"""Cluster subsystem tests: sharding, merging, and multi-process campaigns.

The contract under test (docs/cluster.md):

* **Shard determinism** — a sharded campaign's merged outputs, lane
  fault report and toggle coverage are bit-identical to a single-process
  :meth:`BatchSimulator.run` over the whole batch, across bundled
  designs and executors — including when a worker is SIGKILLed mid-shard
  and its shard restarts from a durable checkpoint.
* **Exact merging** — the merge layer validates that shard results tile
  the lane axis exactly (a lost shard fails loudly, never zero-fills),
  and telemetry merges with counter/histogram-aware semantics.
* **Crash recovery** — worker death is detected, charged against a
  restart budget, and recovered from the shard's own checkpoint;
  deterministic worker errors fail the campaign immediately instead of
  burning restarts.
"""

import os
import sys

import numpy as np
import pytest

from repro import RTLFlow
from repro.cluster import (
    CampaignCoordinator,
    CampaignSpec,
    ClusterError,
    ShardSpec,
    merge_payloads,
    plan_shards,
    run_campaign,
)
from repro.cluster.worker import run_shard_inline
from repro.core.simulator import BatchSimulator
from repro.coverage.collector import CoverageCollector
from repro.coverage.toggle import ToggleCoverage
from repro.designs import get_design
from repro.obs.metrics import MetricsRegistry
from repro.resilience import FaultPlan, LaneFaultSpec
from repro.serve.protocol import outputs_digest
from repro.stimulus.batch import TextStimulusBatch
from repro.utils.errors import SimulationError

IS_LINUX = sys.platform.startswith("linux")


# ---------------------------------------------------------------------------
# Shard planning


class TestPlanShards:
    def test_tiles_exactly(self):
        shards = plan_shards(100, workers=3, shard_lanes=7)
        assert shards[0].lo == 0
        assert shards[-1].hi == 100
        for a, b in zip(shards, shards[1:]):
            assert a.hi == b.lo
        assert sum(s.n for s in shards) == 100
        assert [s.id for s in shards] == list(range(len(shards)))

    def test_default_oversubscribes(self):
        # Default sizing aims for ~4 shards per worker for load balance.
        shards = plan_shards(256, workers=4)
        assert len(shards) == 16
        assert all(s.n == 16 for s in shards)

    def test_small_batch_one_shard(self):
        shards = plan_shards(3, workers=8)
        assert all(s.n >= 1 for s in shards)
        assert sum(s.n for s in shards) == 3

    def test_single_worker_sizing(self):
        shards = plan_shards(64, workers=1)
        assert sum(s.n for s in shards) == 64

    def test_invalid(self):
        with pytest.raises(ClusterError):
            plan_shards(0, workers=2)
        with pytest.raises(ClusterError):
            plan_shards(16, workers=2, shard_lanes=0)

    def test_non_dividing_shard_lanes_produce_ragged_tail(self):
        # 100 lanes in 24-lane shards: four full shards plus a ragged
        # 4-lane tail, covering [0, 100) exactly.
        shards = plan_shards(100, workers=2, shard_lanes=24)
        assert [(s.lo, s.hi) for s in shards] == [
            (0, 24), (24, 48), (48, 72), (72, 96), (96, 100)
        ]
        assert shards[-1].n == 4


# ---------------------------------------------------------------------------
# Satellite: TextStimulusBatch.lanes (no-decode slicing)


class TestTextStimulusLanes:
    def _batch(self, n=6, cycles=5):
        bundle = get_design("counter")
        flow = RTLFlow.from_source(bundle.source, bundle.top, lint=False)
        flow.compile()
        stim = bundle.make_stimulus(n, cycles, seed=3)
        return TextStimulusBatch(stim.to_texts())

    def test_slice_matches_decoded_slice(self):
        tb = self._batch()
        sub = tb.lanes(2, 5)
        assert sub.n == 3
        assert sub.cycles == tb.cycles
        assert sub.names == tb.names
        full = tb.decode_all()
        part = sub.decode_all()
        for name in full.names:
            np.testing.assert_array_equal(
                part.data[name], full.data[name][:, 2:5]
            )

    def test_slice_does_not_decode(self, monkeypatch):
        tb = self._batch()

        def boom(*a, **k):  # pragma: no cover - must not run
            raise AssertionError("lanes() decoded hex")

        monkeypatch.setattr(tb, "inputs_at_range", boom)
        sub = tb.lanes(1, 4)
        assert sub.n == 3

    def test_invalid_ranges(self):
        tb = self._batch()
        for lo, hi in [(-1, 3), (2, 2), (3, 1), (0, 7)]:
            with pytest.raises(SimulationError):
                tb.lanes(lo, hi)


# ---------------------------------------------------------------------------
# Satellite: MetricsRegistry.merge


class TestMetricsMerge:
    def test_counters_add_gauges_last_write(self):
        a = MetricsRegistry(enabled=True)
        b = MetricsRegistry(enabled=True)
        a.inc("sim.cycles", 100)
        b.inc("sim.cycles", 40)
        b.inc("only.b", 7)
        a.set_gauge("g", 1)
        b.set_gauge("g", 5)
        a.merge(b)
        snap = a.snapshot()
        assert snap["counters"]["sim.cycles"]["value"] == 140
        assert snap["counters"]["only.b"]["value"] == 7
        assert snap["gauges"]["g"]["value"] == 5
        # the source registry is not mutated
        assert b.snapshot()["counters"]["sim.cycles"]["value"] == 40

    def test_histograms_fold_exactly(self):
        a = MetricsRegistry(enabled=True)
        b = MetricsRegistry(enabled=True)
        for v in [1.0, 2.0, 3.0]:
            a.observe("h", v)
        for v in [10.0, 0.5]:
            b.observe("h", v)
        a.merge(b)
        h = a.histogram("h")
        assert h.count == 5
        assert h.sum == pytest.approx(16.5)
        assert h.min == pytest.approx(0.5)
        assert h.max == pytest.approx(10.0)

    def test_merge_is_associative_on_counters(self):
        regs = []
        for k in range(3):
            r = MetricsRegistry(enabled=True)
            r.inc("c", k + 1)
            regs.append(r)
        left = MetricsRegistry(enabled=True)
        for r in regs:
            left.merge(r)
        assert left.snapshot()["counters"]["c"]["value"] == 6

    def test_self_merge_rejected(self):
        a = MetricsRegistry(enabled=True)
        with pytest.raises(ValueError):
            a.merge(a)

    def test_dump_roundtrip(self):
        a = MetricsRegistry(enabled=True)
        a.inc("c", 3)
        a.set_gauge("g", 2.5)
        a.observe("h", 4.0)
        a.observe("h", 8.0)
        b = MetricsRegistry.from_dump(a.dump())
        sa, sb = a.snapshot(), b.snapshot()
        assert sa["counters"] == sb["counters"]
        assert sa["gauges"] == sb["gauges"]
        assert sa["histograms"] == sb["histograms"]


# ---------------------------------------------------------------------------
# Satellite: cross-process toggle-coverage merge


class TestCoverageMerge:
    def test_toggle_merge_lanes_or_masks(self):
        a = ToggleCoverage({"s": 2})
        b = ToggleCoverage({"s": 2})
        a.sample({"s": np.array([0, 0], dtype=np.uint64)})
        a.sample({"s": np.array([1, 1], dtype=np.uint64)})  # bit0 0->1
        b.sample({"s": np.array([3, 3], dtype=np.uint64)})
        b.sample({"s": np.array([0, 0], dtype=np.uint64)})  # bits 1->0
        ra, rb = a.report(), b.report()
        merged = ra.merge_lanes(rb)
        assert merged.lanes == ra.lanes + rb.lanes
        assert merged.cycles == max(ra.cycles, rb.cycles)
        # bit coverage is the union of both halves
        assert set(merged.uncovered()) == set(ra.uncovered()) & set(
            rb.uncovered()
        )
        assert merged.covered_points >= max(ra.covered_points, rb.covered_points)

    def test_width_mismatch_rejected(self):
        a = ToggleCoverage({"s": 2})
        b = ToggleCoverage({"s": 3})
        with pytest.raises(SimulationError):
            a.merge(b)

    def test_sharded_coverage_equals_whole_batch(self):
        bundle = get_design("counter")
        flow = RTLFlow.from_source(bundle.source, bundle.top, lint=False)
        model = flow.compile()
        n, cycles = 12, 25
        stim = bundle.make_stimulus(n, cycles, seed=1)

        def run_cov(lo, hi):
            sim = BatchSimulator(model, hi - lo, executor="graph")
            bundle.preload(sim)
            cov = CoverageCollector(sim)
            cov.run(stim.lanes(lo, hi))
            return cov.report()

        whole = run_cov(0, n)
        merged = run_cov(0, 5).merge_lanes(run_cov(5, 9)).merge_lanes(
            run_cov(9, n)
        )
        assert merged.covered_points == whole.covered_points
        assert merged.total_points == whole.total_points
        assert merged.lanes == whole.lanes
        assert merged.cycles == whole.cycles
        assert sorted(merged.uncovered()) == sorted(whole.uncovered())


# ---------------------------------------------------------------------------
# CampaignSpec


class TestCampaignSpec:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ClusterError):
            CampaignSpec(n=4, cycles=2).validate()
        with pytest.raises(ClusterError):
            CampaignSpec(
                n=4, cycles=2, design="counter", source="module m; endmodule",
                top="m",
            ).validate()
        CampaignSpec(n=4, cycles=2, design="counter").validate()

    def test_lane_fault_bounds(self):
        with pytest.raises(ClusterError):
            CampaignSpec(
                n=4, cycles=2, design="counter", lane_faults=[(0, 9, "x")]
            ).validate()

    def test_signature_tracks_content(self):
        a = CampaignSpec(n=4, cycles=2, design="counter", seed=0)
        b = CampaignSpec(n=4, cycles=2, design="counter", seed=0)
        c = CampaignSpec(n=4, cycles=2, design="counter", seed=1)
        assert a.signature() == b.signature()
        assert a.signature() != c.signature()

    def test_signature_keys_are_pinned(self):
        """Store keys and snapshot directory names are durable: the
        digests below must survive any change to how the payload is
        gathered, and change only when the set of spec fields does (each
        such change makes every earlier store entry and mid-shard
        snapshot a miss; see docs/cluster.md)."""
        kw = dict(n=96, cycles=40, design="riscv_mini", seed=7,
                  watch=["pc", "x10"], stop="halted", trace_every=8,
                  checkpoint_every=16)
        shard = ShardSpec(id=1, lo=32, hi=80)
        plain = CampaignSpec(**kw)
        assert plain.signature() == (
            "962da80b4d8fd19541ecc72f3fb7a1f90042beb5791fb6021de45ed7688fe2ac")
        assert plain.shard_signature(shard) == (
            "69db3d88299e34bc50d2fb05524822833fbaf40eee4f812b6607e269538d9fd5")
        faulty = CampaignSpec(
            **kw, fault_isolation=True,
            lane_faults=[(5, 70, "bitflip"), (3, 2, "stuck"), (9, 40, "x")])
        assert faulty.signature() == (
            "0bbff84458aa5325268fe8ee9d30cca0728185d40a1e6a0b204ae1b5a370bdd2")
        assert faulty.shard_signature(shard) == (
            "bdd067f627d982ce6556e154ee903b58ebc9e7a11ee852da175f620ab6a37279")
        # Signing reads the spec, it never rewrites it.
        assert faulty.lane_faults[0] == (5, 70, "bitflip")

    def test_shard_faults_rebase(self):
        spec = CampaignSpec(
            n=16, cycles=4, design="counter",
            lane_faults=[(1, 2, "a"), (2, 9, "b"), (3, 15, "c")],
        )
        shard = ShardSpec(1, 8, 12)
        assert spec.shard_faults(shard) == [(2, 1, "b")]


# ---------------------------------------------------------------------------
# Simulator progress hook (added for the cluster's heartbeat/coverage path)


def test_progress_callback_fires_every_cycle():
    bundle = get_design("counter")
    flow = RTLFlow.from_source(bundle.source, bundle.top, lint=False)
    sim = BatchSimulator(flow.compile(), 4, executor="graph")
    bundle.preload(sim)
    seen = []
    sim.run(bundle.make_stimulus(4, 9, seed=0), progress=seen.append)
    assert seen == list(range(9))


def test_progress_callback_rate_limited():
    bundle = get_design("counter")
    flow = RTLFlow.from_source(bundle.source, bundle.top, lint=False)
    sim = BatchSimulator(flow.compile(), 4, executor="graph")
    bundle.preload(sim)
    seen = []
    # A huge min-interval suppresses every per-cycle call except the
    # first (the timer starts expired) and the guaranteed final cycle.
    sim.run(bundle.make_stimulus(4, 9, seed=0), progress=seen.append,
            progress_min_interval=3600.0)
    assert seen[0] == 0 and seen[-1] == 8
    assert len(seen) < 9
    # Default (0.0) still fires every cycle — behavior unchanged.
    seen2 = []
    sim.run(bundle.make_stimulus(4, 9, seed=0), progress=seen2.append,
            progress_min_interval=0.0)
    assert seen2 == list(range(9))


# ---------------------------------------------------------------------------
# Merge validation


def _payload(spec, sid, lo, hi, outputs, faults=()):
    return {
        "schema": 1,
        "signature": spec.signature(),
        "shard": (sid, lo, hi),
        "outputs": outputs,
        "faults": list(faults),
        "coverage": None,
        "metrics": MetricsRegistry(enabled=True).dump(),
        "spans": [],
        "epoch": 0.0,
    }


class TestMergePayloads:
    def _spec(self, n=8, **kw):
        return CampaignSpec(n=n, cycles=2, design="counter", **kw)

    def test_merges_lane_slices(self):
        spec = self._spec()
        p0 = _payload(spec, 0, 0, 5, {"x": np.arange(5, dtype=np.uint64)})
        p1 = _payload(spec, 1, 5, 8, {"x": np.arange(5, 8, dtype=np.uint64)},
                      faults=[{"lane": 1, "cycle": 3, "reason": "r"}])
        res = merge_payloads(spec, [p1, p0])  # order-independent
        np.testing.assert_array_equal(
            res.outputs["x"], np.arange(8, dtype=np.uint64)
        )
        assert res.faults == [{"lane": 6, "cycle": 3, "reason": "r"}]
        assert res.fault_report()["active_lanes"] == 7

    def test_gap_rejected(self):
        spec = self._spec()
        p0 = _payload(spec, 0, 0, 4, {"x": np.zeros(4, dtype=np.uint64)})
        p2 = _payload(spec, 2, 5, 8, {"x": np.zeros(3, dtype=np.uint64)})
        with pytest.raises(ClusterError):
            merge_payloads(spec, [p0, p2])

    def test_short_coverage_rejected(self):
        spec = self._spec()
        p0 = _payload(spec, 0, 0, 4, {"x": np.zeros(4, dtype=np.uint64)})
        with pytest.raises(ClusterError):
            merge_payloads(spec, [p0])

    def test_mismatched_signatures_rejected_before_tiling(self):
        # A shard produced under a different spec (here: another seed)
        # must be refused with a clear signature error even though its
        # array shapes would tile cleanly — never a deep numpy error,
        # never a silent merge of wrong lanes.
        spec = self._spec()
        other = self._spec(seed=99)
        p0 = _payload(spec, 0, 0, 4, {"x": np.zeros(4, dtype=np.uint64)})
        p1 = _payload(other, 1, 4, 8, {"x": np.zeros(4, dtype=np.uint64)})
        with pytest.raises(ClusterError, match="mismatched campaign sig"):
            merge_payloads(spec, [p0, p1])

    def test_unsigned_payload_rejected(self):
        spec = self._spec()
        p0 = _payload(spec, 0, 0, 8, {"x": np.zeros(8, dtype=np.uint64)})
        del p0["signature"]
        with pytest.raises(ClusterError, match="signature"):
            merge_payloads(spec, [p0])


# ---------------------------------------------------------------------------
# Shard determinism: sharded campaign == single-process run


def _single_process(bundle, model, n, cycles, seed, executor, faults):
    sim = BatchSimulator(
        model, n, executor=executor, fault_isolation=bool(faults)
    )
    bundle.preload(sim)
    stim = bundle.make_stimulus(n, cycles, seed)
    plan = (
        FaultPlan(lane_faults=[
            LaneFaultSpec(cycle=c, lane=l, reason=r) for c, l, r in faults
        ])
        if faults else None
    )
    outputs = sim.run(stim, watch=bundle.watch, fault_plan=plan)
    report = (
        sim.quarantine.report()["faults"] if sim.quarantine is not None else []
    )
    return outputs, sorted((f["cycle"], f["lane"]) for f in report)


def _assert_campaign_matches(res, ref_outputs, ref_faults):
    assert set(res.outputs) == set(ref_outputs)
    for name in ref_outputs:
        np.testing.assert_array_equal(res.outputs[name], ref_outputs[name])
    assert sorted((f["cycle"], f["lane"]) for f in res.faults) == ref_faults


DETERMINISM_MATRIX = [
    ("counter", "graph"),
    ("counter", "graph-conditional"),
    ("crypto", "graph"),
    ("crypto", "graph-conditional"),
]


@pytest.mark.parametrize("design,executor", DETERMINISM_MATRIX)
def test_inline_campaign_bit_identical(design, executor):
    n, cycles, seed = 24, 40, 7
    faults = [(7, 13, "injected"), (15, 2, "injected")]
    bundle = get_design(design)
    flow = RTLFlow.from_source(bundle.source, bundle.top, lint=False)
    model = flow.compile()
    ref_out, ref_faults = _single_process(
        bundle, model, n, cycles, seed, executor, faults
    )
    spec = CampaignSpec(
        n=n, cycles=cycles, design=design, seed=seed, executor=executor,
        watch=bundle.watch, fault_isolation=True, lane_faults=faults,
    )
    res = run_campaign(spec, workers=0, shard_lanes=7)
    assert len(res.shards) == 4
    _assert_campaign_matches(res, ref_out, ref_faults)


def test_ragged_final_shard_merges_bit_identical():
    # shard_lanes=24 does not divide n=100: the merge layer must place
    # the ragged 4-lane tail exactly, lane for lane, against a
    # single-process reference run.
    n, cycles, seed = 100, 30, 7
    bundle = get_design("counter")
    flow = RTLFlow.from_source(bundle.source, bundle.top, lint=False)
    model = flow.compile()
    ref_out, ref_faults = _single_process(
        bundle, model, n, cycles, seed, "graph", faults=[]
    )
    spec = CampaignSpec(
        n=n, cycles=cycles, design="counter", seed=seed, executor="graph",
        watch=bundle.watch,
    )
    res = run_campaign(spec, workers=0, shard_lanes=24)
    assert len(res.shards) == 5
    assert res.shards[-1].hi - res.shards[-1].lo == 4
    _assert_campaign_matches(res, ref_out, ref_faults)


@pytest.mark.skipif(not IS_LINUX, reason="spawn/SIGKILL tests are Linux-only")
@pytest.mark.parametrize("design,executor", DETERMINISM_MATRIX[:2])
def test_multiprocess_campaign_bit_identical(design, executor):
    n, cycles, seed = 24, 40, 7
    faults = [(7, 13, "injected")]
    bundle = get_design(design)
    flow = RTLFlow.from_source(bundle.source, bundle.top, lint=False)
    model = flow.compile()
    ref_out, ref_faults = _single_process(
        bundle, model, n, cycles, seed, executor, faults
    )
    spec = CampaignSpec(
        n=n, cycles=cycles, design=design, seed=seed, executor=executor,
        watch=bundle.watch, fault_isolation=True, lane_faults=faults,
    )
    res = run_campaign(spec, workers=2, shard_lanes=8)
    _assert_campaign_matches(res, ref_out, ref_faults)
    assert res.restarts == 0
    assert res.metrics.snapshot()["counters"]["sim.cycles"]["value"] == (
        cycles * len(res.shards)
    )


@pytest.mark.skipif(not IS_LINUX, reason="spawn/SIGKILL tests are Linux-only")
def test_killed_worker_restarts_and_result_identical(tmp_path):
    """SIGKILL one worker mid-shard; the shard resumes from its checkpoint
    and the merged campaign is still bit-identical to single-process."""
    n, cycles, seed = 24, 40, 7
    faults = [(7, 13, "injected")]
    bundle = get_design("counter")
    flow = RTLFlow.from_source(bundle.source, bundle.top, lint=False)
    model = flow.compile()
    ref_out, ref_faults = _single_process(
        bundle, model, n, cycles, seed, "graph", faults
    )
    spec = CampaignSpec(
        n=n, cycles=cycles, design="counter", seed=seed,
        watch=bundle.watch, fault_isolation=True, lane_faults=faults,
        checkpoint_every=8,
    )
    res = run_campaign(
        spec, workers=2, shard_lanes=8,
        checkpoint_dir=str(tmp_path / "ckpt"),
        inject_worker_crash={1: 16},
    )
    _assert_campaign_matches(res, ref_out, ref_faults)
    assert res.restarts >= 1
    shard1 = next(o for o in res.shards if o.id == 1)
    assert shard1.attempts >= 2
    assert shard1.resumed_from > 0  # restarted from a checkpoint, not scratch


@pytest.mark.skipif(not IS_LINUX, reason="spawn/SIGKILL tests are Linux-only")
def test_restart_budget_exhausted(tmp_path):
    spec = CampaignSpec(
        n=8, cycles=40, design="counter", seed=0, watch=None,
    )
    # Zero restart budget: the first injected worker death is fatal.
    coord = CampaignCoordinator(
        spec, workers=1, shard_lanes=8, max_restarts=0,
        inject_worker_crash={0: 10},
    )
    with pytest.raises(ClusterError, match="max_restarts"):
        coord.run()


def _fresh_digest(spec: CampaignSpec, shard_lanes: int) -> str:
    """The merged digest of ``spec`` run with no durable state at all."""
    return outputs_digest(
        run_campaign(spec, workers=0, shard_lanes=shard_lanes).outputs
    )


@pytest.mark.skipif(not IS_LINUX, reason="spawn/SIGKILL tests are Linux-only")
def test_campaign_resume_skips_completed_shards(tmp_path):
    bundle = get_design("counter")
    spec = CampaignSpec(
        n=16, cycles=30, design="counter", seed=2, watch=bundle.watch,
    )
    ck = str(tmp_path / "ckpt")
    first = run_campaign(spec, workers=2, shard_lanes=4, checkpoint_dir=ck)
    second = run_campaign(spec, workers=2, shard_lanes=4, checkpoint_dir=ck)
    assert all(o.cached for o in second.shards)
    for name in first.outputs:
        np.testing.assert_array_equal(first.outputs[name], second.outputs[name])

    # A different campaign in the same directory misses every shard and
    # produces exactly a fresh run's outputs.
    other = CampaignSpec(
        n=16, cycles=30, design="counter", seed=3, watch=bundle.watch,
    )
    mixed = run_campaign(other, workers=0, shard_lanes=4, checkpoint_dir=ck)
    assert not any(o.cached for o in mixed.shards)
    assert outputs_digest(mixed.outputs) == _fresh_digest(other, 4)


@pytest.mark.skipif(not IS_LINUX, reason="spawn/SIGKILL tests are Linux-only")
def test_retry_never_restores_another_campaigns_snapshot(tmp_path):
    """A retried shard must not pick up the snapshot a campaign with
    another seed left in the same checkpoint directory."""
    ck = str(tmp_path / "ckpt")
    kw = dict(n=64, cycles=120, design="counter", checkpoint_every=16)
    run_campaign(CampaignSpec(seed=0, **kw), workers=0, shard_lanes=16,
                 checkpoint_dir=ck)
    spec = CampaignSpec(seed=1, **kw)
    res = run_campaign(spec, workers=1, shard_lanes=16, checkpoint_dir=ck,
                       inject_worker_crash={1: 3})
    assert res.restarts == 1
    assert outputs_digest(res.outputs) == _fresh_digest(spec, 16)


@pytest.mark.skipif(not IS_LINUX, reason="spawn/SIGKILL tests are Linux-only")
def test_new_shard_geometry_in_the_same_checkpoint_dir(tmp_path):
    """Changing the shard size between runs recomputes the new shards:
    the retry finds no snapshot of another batch size to restore."""
    ck = str(tmp_path / "ckpt")
    spec = CampaignSpec(n=64, cycles=120, design="counter",
                        checkpoint_every=16)
    run_campaign(spec, workers=0, shard_lanes=16, checkpoint_dir=ck)
    res = run_campaign(spec, workers=1, shard_lanes=32, checkpoint_dir=ck,
                       inject_worker_crash={0: 3})
    assert not any(o.cache_hit for o in res.shards)
    assert outputs_digest(res.outputs) == _fresh_digest(spec, 32)


@pytest.mark.skipif(not IS_LINUX, reason="spawn/SIGKILL tests are Linux-only")
def test_traced_shard_retry_reruns_from_cycle_zero(tmp_path):
    """Trace samples are not checkpointed, so a traced shard's retry
    reruns from cycle 0 and merges like an uninterrupted run."""
    spec = CampaignSpec(n=32, cycles=40, design="counter", trace_every=4,
                        checkpoint_every=8)
    res = run_campaign(spec, workers=1, shard_lanes=16,
                       checkpoint_dir=str(tmp_path / "ckpt"),
                       inject_worker_crash={1: 12})
    assert res.restarts == 1
    assert next(o for o in res.shards if o.id == 1).resumed_from == 0
    fresh = run_campaign(spec, workers=0, shard_lanes=16)
    for name in fresh.outputs:
        np.testing.assert_array_equal(res.outputs[name], fresh.outputs[name])


def test_shard_snapshots_removed_once_stored(tmp_path):
    """The result store is a shard's one durable record: once a shard's
    result is stored, its snapshot directory is gone."""
    ck = tmp_path / "ckpt"
    spec = CampaignSpec(n=16, cycles=30, design="counter",
                        checkpoint_every=8)
    run_campaign(spec, workers=0, shard_lanes=8, checkpoint_dir=str(ck))
    assert sorted(os.listdir(ck)) == ["results"]


def test_inline_shard_payload_shape(tmp_path):
    spec = CampaignSpec(
        n=8, cycles=10, design="counter", seed=0, coverage=True,
    )
    task = {"shard": (0, 0, 4), "attempt": 0}
    payload = run_shard_inline(spec, task, {"checkpoint_dir": None})
    assert payload["shard"] == (0, 0, 4)
    assert payload["signature"] == spec.signature()
    assert payload["cycles_run"] == 10
    assert payload["coverage"] is not None
    assert payload["pid"] == os.getpid()


# ---------------------------------------------------------------------------
# CLI


@pytest.mark.skipif(not IS_LINUX, reason="spawn tests are Linux-only")
def test_cli_campaign_smoke(tmp_path, capsys):
    from repro.cli import main

    metrics = tmp_path / "m.json"
    report = tmp_path / "f.json"
    rc = main([
        "campaign", "counter", "-n", "16", "--cycles", "20",
        "--workers", "2", "--shard-lanes", "4",
        "--inject-lane-fault", "5:3",
        "--metrics-json", str(metrics), "--fault-report", str(report),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "4 shards" in out
    assert "quarantined 1/16" in out
    import json

    m = json.loads(metrics.read_text())
    assert m["counters"]["sim.cycles"]["value"] == 80  # 4 shards x 20 cycles
    assert m["gauges"]["cluster.shards"]["value"] == 4
    r = json.loads(report.read_text())
    assert r["faulted_lanes"] == [3]


def test_cli_campaign_rejects_resume(capsys):
    """Every shard record is keyed by content, so rerunning a campaign is
    always safe and ``repro campaign`` has no ``--resume`` to ask for it."""
    from repro.cli import main

    with pytest.raises(SystemExit) as ei:
        main(["campaign", "counter", "-n", "8", "--resume"])
    assert ei.value.code == 2
    assert "unrecognized arguments: --resume" in capsys.readouterr().err
