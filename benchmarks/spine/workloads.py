"""Sample runners: how each kind of workload takes one sample.

A runner is prepared once (untimed warm-up sample, reference digest and the
correctness gate), then asked for timed samples, then for one traced pass.
Only the stable public entry points of ``repro`` are called on the timed
path; the traced pass goes through :mod:`benchmarks.spine.layers`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

import repro
from repro import RTLFlow
from repro.baselines.reference import ReferenceSimulator
from repro.cluster import CampaignSpec, plan_shards, run_campaign
from repro.designs import get_design
from repro.serve.store import ResultStore

from benchmarks.spine import layers
from benchmarks.spine.table import ENGINE, Workload, digest_outputs, lane_values

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 120


@dataclass
class Sample:
    setup_s: List[float]  # every set-up measured; [0] preceded the timed run
    run_s: float
    result_s: float  # what one user waits: set-up + run (per resubmission for "hit")
    digest: str


@dataclass
class Traced:
    metrics: layers.Metrics
    result_s: float  # the profiled sample's time to result, for the overhead ratio
    digests_ok: bool
    note: str = ""  # why some metrics are missing


def reference_errors(graph, bundle, stim, w: Workload,
                     observed: List[Dict[str, list]]) -> List[str]:
    """Replay the gate lanes through the golden reference for every pass and
    compare each watched signal with what the batch engine produced."""
    errors = []
    for slot, lane in enumerate(w.gate_lanes):
        ref = ReferenceSimulator(graph)
        bundle.preload(ref)
        steps = stim.lane(lane)
        for p, values in enumerate(observed):
            trace = ref.run(steps, watch=list(values))
            for name, lanes in values.items():
                if int(trace[name][-1]) != lanes[slot]:
                    errors.append(
                        f"{w.name}: {name} lane {lane} pass {p}: engine "
                        f"{lanes[slot]} != reference {int(trace[name][-1])}"
                    )
    return errors


class EngineRunner:
    """Rebuild from source, fresh simulator, ``passes`` back-to-back runs."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.bundle = get_design(w.design, **w.params)
        self.stim = self.bundle.make_stimulus(w.n, w.cycles, seed)
        self.digest = ""

    def setup(self):
        flow = RTLFlow.from_source(self.bundle.source, self.bundle.top)
        sim = flow.simulator(self.w.n, executor=ENGINE)
        self.bundle.preload(sim)
        return flow, sim

    def run(self, sim):
        """``passes`` back-to-back runs; the digest covers every pass."""
        outs = [
            sim.run(self.stim, watch=self.bundle.watch) for _ in range(self.w.passes)
        ]
        return digest_outputs(outs), outs

    def prepare(self) -> List[str]:
        flow, sim = self.setup()
        self.digest, outs = self.run(sim)
        observed = [lane_values(self.w, out) for out in outs]
        return reference_errors(flow.graph, self.bundle, self.stim, self.w, observed)

    def sample(self, setups: int) -> Sample:
        t0 = time.perf_counter()
        _flow, sim = self.setup()
        t1 = time.perf_counter()
        digest, _outs = self.run(sim)
        t2 = time.perf_counter()
        setup_s = [t1 - t0]
        for _ in range(setups - 1):
            t = time.perf_counter()
            self.setup()
            setup_s.append(time.perf_counter() - t)
        return Sample(setup_s, t2 - t1, t2 - t0, digest)

    def traced(self, spans: layers.Spans) -> Traced:
        w = self.w
        cycles = w.cycles * w.passes
        out: layers.Metrics = {}
        note = ""
        try:
            sim, _graph, sizes = layers.staged_setup(self.bundle, w.n, ENGINE, spans)
            out.update(sizes)
        except layers.LayerMissing as exc:
            note = str(exc)
            with spans.span("setup"):
                _flow, sim = self.setup()
        out.update(layers.setup_metrics(spans))
        with spans.span("run"):
            t = time.perf_counter()
            digest, _outs = self.run(sim)
            wall = time.perf_counter() - t
        out.update(layers.run_split(sim, wall, cycles))
        prof: dict = {}
        with layers.profiled(prof):
            sample = self.sample(setups=1)
        out.update(layers.profile_buckets(prof, cycles))
        return Traced(out, sample.result_s, digest == self.digest == sample.digest, note)

    def close(self) -> None:
        pass


class ColdRunner:
    """One fresh interpreter per sample: import, build, preload, one run."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.seed = seed
        self.digest = ""

    def child(self, mode: str = "plain"):
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        paths = [src, REPO_ROOT] + [
            p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
        ]
        # The partitioner's task count depends on the hash seed (172 or 173
        # tasks for this design); pinning it makes the exact counts repeat.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), PYTHONHASHSEED="0")
        t0 = time.perf_counter()
        # subprocess.run waits for the child (and kills it first on timeout),
        # so it has exited before the next sample starts.
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.spine.cold_child",
             "--seed", str(self.seed), "--mode", mode],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        process_s = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(
                f"cold child exited {proc.returncode}: {proc.stderr[-400:]}"
            )
        report = json.loads(proc.stdout.splitlines()[-1])
        report["python.process_s"] = process_s
        return report

    def prepare(self) -> List[str]:
        report = self.child()
        self.digest = report["digest"]
        bundle = get_design(self.w.design, **self.w.params)
        flow = RTLFlow.from_source(bundle.source, bundle.top)
        stim = bundle.make_stimulus(self.w.n, self.w.cycles, self.seed)
        return reference_errors(flow.graph, bundle, stim, self.w, [report["lanes"]])

    def sample(self, setups: int = 1) -> Sample:
        r = self.child()
        return Sample([r["setup_s"]], r["run_s"], r["total_s"], r["digest"])

    def traced(self, spans: layers.Spans) -> Traced:
        staged = self.child("spans")
        origin = time.perf_counter() - staged["python.process_s"]
        for row in staged["spans"]:
            spans.add(row["name"], origin + row["start"], origin + row["end"],
                      row["parent"])
        profile = self.child("profile")
        out: layers.Metrics = dict(staged["metrics"])
        out.update(profile["metrics"])
        out["python.import_s"] = staged["python.import_s"]
        out["python.process_s"] = staged["python.process_s"]
        return Traced(out, profile["total_s"],
                      staged["digest"] == self.digest == profile["digest"])

    def close(self) -> None:
        pass


class CampaignRunner:
    """``run_campaign(spec, workers=0, store=...)`` into an empty store
    ("miss") or, as a burst of resubmissions, against a filled one ("hit")."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.seed = seed
        self.digest = ""
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
        self.filled = os.path.join(self.tmp, "filled")
        self.empty = os.path.join(self.tmp, "empty")
        ResultStore(self.empty)

    def fresh_root(self) -> str:
        """A store root that does not exist yet (``close`` removes them all)."""
        return os.path.join(tempfile.mkdtemp(prefix="miss-", dir=self.tmp), "store")

    def spec(self) -> CampaignSpec:
        return CampaignSpec(
            design=self.w.design, n=self.w.n, cycles=self.w.cycles, seed=self.seed
        )

    def setup(self) -> float:
        """Time what stands between a submitter and the first shard: open the
        workload's store (empty for "miss", filled for "hit"), build and check
        the spec, sign it, plan the shards and derive every content key.
        ``run_campaign`` repeats these itself, so this is measured beside the
        timed run, not inside it."""
        t0 = time.perf_counter()
        ResultStore(self.filled if self.w.kind == "hit" else self.empty)
        spec = self.spec()
        spec.validate()
        spec.signature()
        for shard in plan_shards(spec.n, 1, self.w.shard_lanes):
            spec.shard_signature(shard)
        return time.perf_counter() - t0

    def submit(self, root: str, expect_hits: int):
        """One campaign from spec to merged outputs; returns its wall time,
        digest and result.  Raises when the store served another number of
        shards than this workload is about."""
        t0 = time.perf_counter()
        result = run_campaign(
            self.spec(), workers=0, shard_lanes=self.w.shard_lanes,
            store=ResultStore(root),
        )
        wall = time.perf_counter() - t0
        hits = sum(1 for o in result.shards if o.cache_hit)
        simulated = sum(1 for o in result.shards if not o.cached)
        if hits != expect_hits or hits + simulated != len(result.shards):
            raise RuntimeError(
                f"store served {hits} and {simulated} were simulated of "
                f"{len(result.shards)} shards, expected {expect_hits} served"
            )
        return wall, digest_outputs([result.outputs]), result

    def prepare(self) -> List[str]:
        """Fill a store (the "miss" warm-up), gate its result, and for "hit"
        take the warm-up burst against it."""
        _wall, self.digest, result = self.submit(self.filled, expect_hits=0)
        errors = self._gate(result)
        if self.w.kind == "hit":
            warm = self.sample(setups=1)
            if warm.digest != self.digest:
                errors.append(f"{self.w.name}: resubmission returned {warm.digest}")
        return errors

    def _gate(self, result) -> List[str]:
        w = self.w
        bundle = get_design(w.design)
        flow = RTLFlow.from_source(bundle.source, bundle.top)
        sim = flow.simulator(w.n)
        bundle.preload(sim)
        stim = bundle.make_stimulus(w.n, w.cycles, self.seed)
        whole = sim.run(stim)
        errors = []
        if sorted(whole) != sorted(result.outputs):
            errors.append(f"{w.name}: merged outputs {sorted(result.outputs)} "
                          f"!= unsharded {sorted(whole)}")
        else:
            errors += [
                f"{w.name}: merged {name} differs from one unsharded run"
                for name in whole
                if not np.array_equal(whole[name], result.outputs[name])
            ]
        observed = [lane_values(w, result.outputs)]
        return errors + reference_errors(flow.graph, bundle, stim, w, observed)

    def sample(self, setups: int) -> Sample:
        w = self.w
        if w.kind == "miss":
            root = self.fresh_root()
            try:
                run_s, digest, _result = self.submit(root, expect_hits=0)
            finally:
                shutil.rmtree(os.path.dirname(root), ignore_errors=True)
        else:
            shards = -(-w.n // w.shard_lanes)
            run_s, digests = 0.0, set()
            for _ in range(w.passes):
                wall, digest, _result = self.submit(self.filled, expect_hits=shards)
                run_s += wall
                digests.add(digest)
            if len(digests) > 1:
                raise RuntimeError(f"resubmissions disagreed: {sorted(digests)}")
        setup_s = [self.setup() for _ in range(setups)]
        return Sample(setup_s, run_s, run_s / w.passes, digest)

    def traced(self, spans: layers.Spans) -> Traced:
        w = self.w
        cycles = w.cycles * w.passes
        root = self.filled if w.kind == "hit" else self.fresh_root()
        note = ""
        try:
            out, digest = campaign_by_hand(self.spec(), w.shard_lanes, root, spans)
        except layers.LayerMissing as exc:
            out, digest, note = {}, self.digest, str(exc)
        prof: dict = {}
        with layers.profiled(prof):
            sample = self.sample(setups=1)
        out.update(layers.profile_buckets(prof, cycles))
        return Traced(out, sample.result_s, digest == self.digest == sample.digest, note)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def campaign_by_hand(spec, shard_lanes: int, root: str, spans: layers.Spans):
    """The public calls ``run_campaign`` makes, one span each, for one
    campaign against the store at ``root``."""
    try:
        from repro.cluster import merge_payloads
        from repro.cluster.worker import run_shard_inline
        from repro.serve.store import adopt_payload
    except ImportError as exc:
        raise layers.LayerMissing(str(exc)) from exc
    store = ResultStore(root)
    cfg = {"checkpoint_dir": None, "heartbeat_seconds": 0.5}
    payloads = []
    try:
        with spans.span("campaign"):
            with spans.span("cluster.spec.signature_s"):
                spec.validate()
                spec.signature()
            with spans.span("cluster.plan_shards_s"):
                shards = plan_shards(spec.n, 1, shard_lanes)
            for shard in shards:
                key = spec.shard_signature(shard)
                with spans.span("serve.store.get_s"):
                    payload = store.get(key)
                if payload is not None:
                    payload = adopt_payload(payload, spec, shard)
                else:
                    task = {"shard": (shard.id, shard.lo, shard.hi), "attempt": 0,
                            "resume": False, "crash_cycle": None, "stimulus": None}
                    with spans.span("cluster.worker.run_shard_s"):
                        payload = run_shard_inline(spec, task, cfg)
                    with spans.span("serve.store.put_s"):
                        store.put(key, payload)
                payloads.append(payload)
            with spans.span("cluster.merge.merge_s"):
                result = merge_payloads(spec, payloads)
    except (TypeError, AttributeError, KeyError) as exc:
        raise layers.LayerMissing(f"campaign layers changed shape: {exc}") from exc
    out = {
        name: spans.total(name)
        for name in ("cluster.spec.signature_s", "cluster.plan_shards_s",
                     "cluster.worker.run_shard_s", "serve.store.put_s",
                     "serve.store.get_s", "cluster.merge.merge_s")
    }
    out["cluster.shards"] = len(shards)
    out["cluster.worker.run_shard_max_s"] = max(
        spans.durations("cluster.worker.run_shard_s"), default=0.0
    )
    out["serve.store.hits"] = store.hits
    out["serve.store.misses"] = store.misses
    out["serve.store.bytes"] = store.stats()["bytes"]
    return out, digest_outputs([result.outputs])


def make_runner(w: Workload, seed: int):
    if w.kind == "engine":
        return EngineRunner(w, seed)
    if w.kind == "cold":
        return ColdRunner(w, seed)
    return CampaignRunner(w, seed)
