"""Merging per-shard payloads into one campaign-level result.

Lanes share no state, so the merge is exact, not approximate:

* **Outputs** — each shard's final values (or sampled traces) land in
  their own lane slice of a campaign-shaped array; the assembled arrays
  are bit-identical per lane to a single-process run.
* **Faults** — shard-local lane indices re-base to global lanes and sort
  into canonical (cycle, lane) order.
* **Coverage** — shard reports fold with
  :meth:`~repro.coverage.toggle.CoverageReport.merge_lanes` (cycles max,
  lanes add) so merged shard coverage equals whole-batch coverage.
* **Metrics** — per-worker registry dumps rebuild and aggregate through
  :meth:`~repro.obs.metrics.MetricsRegistry.merge` (counters add, e.g.
  ``sim.cycles`` sums to the campaign total).
* **Traces** — worker spans replay into the campaign tracer on
  ``shardNN:`` resource rows, re-based onto the coordinator's clock, so
  one Perfetto export shows every worker's timeline side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.spec import CampaignSpec
from repro.coverage.toggle import CoverageReport
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.utils.errors import ClusterError

__all__ = ["ShardOutcome", "CampaignResult", "merge_payloads"]


@dataclass
class ShardOutcome:
    """Bookkeeping for one shard's execution (not its data)."""

    id: int
    lo: int
    hi: int
    attempts: int = 1
    cycles_run: int = 0
    resumed_from: int = 0
    wall_seconds: float = 0.0
    pid: Optional[int] = None
    cache_hit: bool = False  # served from the content-addressed store

    @property
    def cached(self) -> bool:
        """Alias of :attr:`cache_hit`: the shard was not simulated."""
        return self.cache_hit

    @classmethod
    def from_payload(cls, shard, payload: dict,
                     cache_hit: bool = False) -> "ShardOutcome":
        """The outcome of ``shard`` (a :class:`~repro.cluster.spec.ShardSpec`)
        whose result is ``payload``; a store hit ran nothing here, so it
        reports no attempts, time or process."""
        out = cls(id=shard.id, lo=shard.lo, hi=shard.hi,
                  cycles_run=payload.get("cycles_run", 0),
                  cache_hit=cache_hit)
        if cache_hit:
            out.attempts = 0
        else:
            out.attempts = payload.get("attempt", 0) + 1
            out.resumed_from = payload.get("resumed_from", 0)
            out.wall_seconds = payload.get("wall_seconds", 0.0)
            out.pid = payload.get("pid")
        return out

    def to_dict(self) -> dict:
        return {
            "id": self.id, "lo": self.lo, "hi": self.hi,
            "attempts": self.attempts, "cycles_run": self.cycles_run,
            "resumed_from": self.resumed_from,
            "wall_seconds": self.wall_seconds, "pid": self.pid,
            "cached": self.cached, "cache_hit": self.cache_hit,
        }


@dataclass
class CampaignResult:
    """One campaign's merged, campaign-shaped result."""

    spec: CampaignSpec
    outputs: Dict[str, np.ndarray]
    faults: List[dict]
    coverage: Optional[CoverageReport]
    metrics: MetricsRegistry
    tracer: Tracer
    shards: List[ShardOutcome] = field(default_factory=list)
    restarts: int = 0
    workers: int = 0
    wall_seconds: float = 0.0

    @property
    def faulted_lanes(self) -> List[int]:
        return [f["lane"] for f in self.faults]

    def fault_report(self) -> dict:
        """Same shape as ``LaneQuarantine.report()``, campaign-wide."""
        return {
            "n": self.spec.n,
            "active_lanes": self.spec.n - len(self.faults),
            "faulted_lanes": self.faulted_lanes,
            "faults": list(self.faults),
        }

    def summary(self) -> str:
        lines = [
            f"campaign: {self.spec.n} lanes x {self.spec.cycles} cycles in "
            f"{len(self.shards)} shards on {self.workers} workers "
            f"({self.wall_seconds:.2f}s wall, {self.restarts} restarts)"
        ]
        if self.faults:
            lines.append(
                f"quarantined {len(self.faults)}/{self.spec.n} lanes"
            )
        if self.coverage is not None:
            lines.append(self.coverage.summary())
        return "\n".join(lines)


def _merge_outputs(
    spec: CampaignSpec, payloads: List[dict]
) -> Dict[str, np.ndarray]:
    """Assemble per-shard output arrays into campaign-shaped arrays."""
    if not payloads:
        return {}
    names = list(payloads[0]["outputs"])
    merged: Dict[str, np.ndarray] = {}
    for name in names:
        parts = [(p["shard"], p["outputs"][name]) for p in payloads]
        first = np.asarray(parts[0][1])
        if first.ndim == 1:
            out = np.empty(spec.n, dtype=first.dtype)
        else:
            samples = {np.asarray(a).shape[0] for _s, a in parts}
            if len(samples) != 1:
                raise ClusterError(
                    f"shards disagree on trace sample count for {name!r}: "
                    f"{sorted(samples)} (early-stop shards cannot be merged "
                    "with trace_every)"
                )
            out = np.empty((samples.pop(), spec.n), dtype=first.dtype)
        for (_sid, lo, hi), arr in parts:
            if first.ndim == 1:
                out[lo:hi] = arr
            else:
                out[:, lo:hi] = arr
        merged[name] = out
    return merged


def _merge_faults(payloads: List[dict]) -> List[dict]:
    out: List[dict] = []
    for p in payloads:
        _sid, lo, _hi = p["shard"]
        for f in p["faults"]:
            g = dict(f)
            g["lane"] = int(f["lane"]) + lo
            out.append(g)
    out.sort(key=lambda f: (f["cycle"], f["lane"]))
    return out


def _merge_coverage(payloads: List[dict]) -> Optional[CoverageReport]:
    reports = [p["coverage"] for p in payloads if p.get("coverage") is not None]
    if not reports:
        return None
    merged = reports[0]
    for r in reports[1:]:
        merged = merged.merge_lanes(r)
    return merged


def _merge_metrics(payloads: List[dict], into: MetricsRegistry) -> MetricsRegistry:
    for p in payloads:
        into.merge(MetricsRegistry.from_dump(p["metrics"]))
    return into


def _merge_spans(payloads: List[dict], tracer: Tracer) -> int:
    """Replay worker spans into ``tracer`` on per-shard resource rows.

    Worker span times are relative to the worker tracer's epoch;
    ``perf_counter`` is CLOCK_MONOTONIC-backed, so re-basing by the epoch
    delta aligns every worker onto the coordinator's clock (best-effort:
    a platform with per-process counters still merges, just unaligned).
    """
    base = getattr(tracer, "_t0", 0.0)
    merged = 0
    for p in payloads:
        sid = p["shard"][0]
        offset = p.get("epoch", base) - base
        for name, resource, start, end, depth in p.get("spans", ()):
            tracer.record(
                name, start + offset, end + offset,
                resource=f"shard{sid:02d}:{resource}", depth=depth,
            )
            merged += 1
    return merged


def merge_payloads(
    spec: CampaignSpec,
    payloads: List[dict],
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> CampaignResult:
    """Merge every shard payload into one :class:`CampaignResult`.

    ``payloads`` must cover the campaign's lanes exactly once; the merge
    validates coverage of the lane axis rather than trusting the
    scheduler (a lost shard must fail loudly, not zero-fill).

    Every payload must also carry this campaign's exact
    :meth:`~repro.cluster.spec.CampaignSpec.signature` — results
    produced under a different spec (design, seed, cycles, executor, ...)
    are rejected up front with a clear error instead of surfacing later
    as a numpy shape mismatch (or worse, merging cleanly into silently
    wrong lanes when the shapes happen to agree).
    """
    expected_sig = spec.signature()
    bad_sigs = sorted(
        {str(p.get("signature"))[:12] for p in payloads
         if p.get("signature") != expected_sig}
    )
    if bad_sigs:
        raise ClusterError(
            "shard results were produced under mismatched campaign "
            f"signatures: expected {expected_sig[:12]}..., got "
            + ", ".join(f"{s}..." for s in bad_sigs)
            + " (design/seed/cycles/executor or fault script changed); "
            "refusing to merge results from different campaigns"
        )
    payloads = sorted(payloads, key=lambda p: p["shard"][1])
    covered = 0
    for p in payloads:
        _sid, lo, hi = p["shard"]
        if lo != covered:
            raise ClusterError(
                f"shard results do not tile the batch: expected lane {covered}, "
                f"got shard [{lo}, {hi})"
            )
        covered = hi
    if covered != spec.n:
        raise ClusterError(
            f"shard results cover {covered} lanes of {spec.n}"
        )
    metrics = metrics if metrics is not None else MetricsRegistry(enabled=True)
    tracer = tracer if tracer is not None else Tracer(enabled=True)
    result = CampaignResult(
        spec=spec,
        outputs=_merge_outputs(spec, payloads),
        faults=_merge_faults(payloads),
        coverage=_merge_coverage(payloads),
        metrics=_merge_metrics(payloads, metrics),
        tracer=tracer,
    )
    _merge_spans(payloads, tracer)
    return result
