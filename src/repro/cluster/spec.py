"""Serializable campaign description + the lane-shard planner.

A :class:`CampaignSpec` is the *whole* contract between a front end (the
campaign coordinator or the campaign service) and the worker loop: plain
picklable data (a bundled design name or raw Verilog text, batch
geometry, executor kind, fault/checkpoint options) from which every
worker rebuilds its own compiled design.
Nothing compiled ever crosses a process boundary — kernels are plain
Python functions created by ``exec`` and cannot be pickled, and spawn
(the portable, fork-safety-free start method) would reject them anyway.

:func:`plan_shards` carves the batch's lane axis into shards.  Shards
deliberately outnumber workers (default 4x oversubscription) so the
work-queue scheduler keeps every worker busy even when shards finish at
different speeds — one slow shard delays only itself, not the campaign.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

from repro.core.simulator import (
    DEFAULT_EXECUTOR, check_executor, check_run_options,
)
from repro.utils.errors import ClusterError, SimulationError

__all__ = ["CampaignSpec", "ShardSpec", "plan_shards", "DEFAULT_OVERSUBSCRIPTION"]

# Shards per worker when no explicit --shard-lanes is given: enough
# slack for dynamic load balancing, few enough that per-shard setup
# (simulator construction, stimulus slicing) stays negligible.
DEFAULT_OVERSUBSCRIPTION = 4


@dataclass(frozen=True)
class ShardSpec:
    """One contiguous lane range [lo, hi) of the campaign batch."""

    id: int
    lo: int
    hi: int

    @property
    def n(self) -> int:
        return self.hi - self.lo


@dataclass
class CampaignSpec:
    """Everything a worker needs to rebuild and run one campaign.

    Exactly one of ``design`` (a bundled design name, see
    ``repro designs``) or ``source``+``top`` (raw Verilog) must be set.
    ``lane_faults`` are ``(cycle, global_lane, reason)`` triples — the
    coordinator routes each to the shard owning that lane, where it is
    re-based to the shard-local lane index.

    Workers regenerate stimulus from ``seed`` (the bundle's stimulus
    recipe, or ``RTLFlow.random_stimulus`` for raw sources) and slice
    their own lane range, so a sharded campaign consumes lane-for-lane
    the same stimulus as a single-process run.  The signature is the
    worker's cache key: shards of one campaign, from either front end, reuse
    one compiled design.
    """

    n: int
    cycles: int
    design: Optional[str] = None
    source: Optional[str] = None
    top: Optional[str] = None
    seed: int = 0
    executor: str = DEFAULT_EXECUTOR
    watch: Optional[List[str]] = None
    stop: Optional[str] = None
    stop_mode: str = "all"
    stop_check_every: int = 16
    trace_every: int = 0
    fault_isolation: bool = False
    lane_faults: List[Tuple[int, int, str]] = field(default_factory=list)
    coverage: bool = False
    coverage_ports_only: bool = False
    checkpoint_every: Optional[int] = None
    checkpoint_every_seconds: Optional[float] = None
    # Re-verify the compiled IR in every worker (repro.verify) before
    # serving shards, and fail the campaign on any verifier error.
    # Workers rebuild the design independently; this catches a worker
    # whose rebuild produced corrupt IR, not just a bad input design.
    verify: bool = False

    def validate(self) -> None:
        if self.n <= 0:
            raise ClusterError(f"campaign batch size must be positive, got {self.n}")
        if self.cycles <= 0:
            raise ClusterError(f"campaign cycles must be positive, got {self.cycles}")
        if (self.design is None) == (self.source is None):
            raise ClusterError(
                "set exactly one of spec.design (bundled name) or "
                "spec.source+spec.top (raw Verilog)"
            )
        if self.source is not None and not self.top:
            raise ClusterError("spec.source requires spec.top")
        for cycle, lane, _reason in self.lane_faults:
            if not (0 <= lane < self.n):
                raise ClusterError(
                    f"lane fault targets lane {lane}, outside batch of {self.n}"
                )
            if cycle < 0:
                raise ClusterError(f"lane fault cycle must be >= 0, got {cycle}")
        try:
            check_executor(self.executor)
            check_run_options(self.trace_every, self.stop, self.stop_mode,
                              self.stop_check_every)
        except SimulationError as exc:
            raise ClusterError(str(exc)) from exc

    def _payload(self) -> dict:
        """The fields by name.  Every field is flat (scalars, or lists of
        scalars/tuples that are only ``repr``-ed), so this reads them
        directly instead of deep-copying through ``dataclasses.asdict``
        once per shard."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def _digest(payload: dict) -> str:
        h = hashlib.sha256()
        for key in sorted(payload):
            h.update(f"{key}={payload[key]!r};".encode())
        return h.hexdigest()

    def signature(self) -> str:
        """Fingerprint of this exact campaign.

        Covers every field that changes simulation results.  It keys the
        workers' compiled-design cache, and every shard payload carries
        it, so the merge can never mix in a shard produced under a
        different design, seed, geometry or fault script.  Durable
        records are keyed by :meth:`shard_signature` instead.
        """
        payload = self._payload()
        payload["lane_faults"] = sorted(
            (int(c), int(l), str(r)) for c, l, r in self.lane_faults
        )
        return self._digest(payload)

    def shard_signature(self, shard: ShardSpec) -> str:
        """Content address of one shard's result, independent of the
        rest of the campaign.

        Like :meth:`signature` this covers every result-affecting field
        (design text/digest, seed, cycles, batch width ``n`` — lane
        stimulus is sliced out of the full ``n``-wide batch, so it is
        part of the content — executor, stop/trace options),
        but it replaces the *global* ``lane_faults`` list with the lane
        range ``[lo, hi)`` plus only the faults re-based into that
        range.  Two campaigns that differ only in faults targeting
        *other* shards therefore share this shard's key — the property
        the content-addressed result store exploits to re-simulate only
        the shards an edited campaign actually changed.  It names both of
        a shard's durable records: its result-store entry and its
        mid-shard snapshot directory.
        """
        payload = self._payload()
        del payload["lane_faults"]
        payload["shard_range"] = (shard.lo, shard.hi)
        payload["shard_faults"] = sorted(
            (int(c), int(l), str(r)) for c, l, r in self.shard_faults(shard)
        )
        return self._digest(payload)

    def shard_faults(self, shard: ShardSpec) -> List[Tuple[int, int, str]]:
        """This shard's lane faults, re-based to shard-local lane indices."""
        return [
            (cycle, lane - shard.lo, reason)
            for cycle, lane, reason in self.lane_faults
            if shard.lo <= lane < shard.hi
        ]


def plan_shards(
    n: int,
    workers: int,
    shard_lanes: Optional[int] = None,
    oversubscription: int = DEFAULT_OVERSUBSCRIPTION,
) -> List[ShardSpec]:
    """Split ``n`` lanes into contiguous shards for ``workers`` processes.

    With an explicit ``shard_lanes``, shards are that many lanes (the
    last one smaller).  Otherwise the planner sizes shards dynamically:
    about ``workers * oversubscription`` shards, so the work queue always
    holds spare shards for whichever worker frees up first.
    """
    if n <= 0:
        raise ClusterError(f"cannot shard a batch of {n} lanes")
    if workers <= 0:
        raise ClusterError(f"worker count must be positive, got {workers}")
    if shard_lanes is None:
        shard_lanes = max(1, math.ceil(n / (workers * max(1, oversubscription))))
    if shard_lanes <= 0:
        raise ClusterError(f"shard_lanes must be positive, got {shard_lanes}")
    shards = []
    for k, lo in enumerate(range(0, n, shard_lanes)):
        shards.append(ShardSpec(id=k, lo=lo, hi=min(lo + shard_lanes, n)))
    # Tiling invariant: the shards must cover [0, n) exactly, gapless and
    # non-overlapping — a ragged final shard (shard_lanes not dividing n)
    # included.  The merge layer assumes this; a planner regression here
    # would otherwise surface as silently missing or duplicated lanes.
    if (shards[0].lo != 0 or shards[-1].hi != n
            or any(a.hi != b.lo for a, b in zip(shards, shards[1:]))):
        raise ClusterError(
            f"internal error: shard plan does not tile [0, {n}): "
            + ", ".join(f"[{s.lo},{s.hi})" for s in shards[:8])
        )
    return shards
