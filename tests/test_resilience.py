"""Resilience subsystem tests: quarantine, checkpoints, watchdog, injection.

The contract under test (docs/resilience.md):

* **Survivor bit-identity** — quarantining lanes never perturbs the
  remaining lanes: complete pool state restricted to the active lanes is
  bit-identical to a run with no faults at all, on every bundled design
  and every executor.
* **Durable resume** — a checkpoint written mid-run (including by a
  process that then dies without cleanup) restores into a fresh
  simulator and finishes bit-identically to an uninterrupted run.
* **Graceful degradation** — a failed periodic checkpoint write, a
  crashed/hung MCMC trial, and a crashed pipelined chunk all leave the
  run completing with correct results, visibly counted.
* **Deterministic injection** — every recovery path above is driven by a
  scripted :class:`FaultPlan`, not monkeypatching.
"""

import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro import RTLFlow
from repro.core.codegen import KernelCodegen
from repro.core.memory import PACKED_POOL
from repro.core.simulator import BatchSimulator
from repro.coverage.checks import BatchChecker
from repro.designs import get_design
from repro.partition.mcmc import Estimator, MCMCPartitioner
from repro.partition.merge import partition
from repro.resilience import (
    REASON_COVERAGE,
    REASON_DIV_ZERO,
    REASON_INJECTED,
    REASON_MEM_OOB,
    REASON_STIMULUS,
    CheckpointManager,
    CheckpointPolicy,
    FaultPlan,
    FaultyStimulus,
    LaneFaultSpec,
    LaneQuarantine,
    LaneStimulusError,
    RetryPolicy,
    TrialFaultSpec,
    atomic_write_json,
    atomic_write_text,
    call_with_retry,
    parse_lane_fault,
    run_with_timeout,
)
from repro.stimulus.batch import StimulusBatch
from repro.utils import bitvec as bv
from repro.utils import packbits as pk
from repro.utils.errors import (
    CheckpointError,
    RetryExhausted,
    SimulationError,
    WatchdogTimeout,
)

from tests.conftest import COUNTER_V, compile_graph


def make_sim(source, top, n, executor="graph", fault_isolation=False,
             target_weight=64.0):
    graph = compile_graph(source, top)
    tg = partition(graph, target_weight=target_weight)
    model = KernelCodegen(tg).compile()
    return BatchSimulator(model, n, executor=executor,
                          fault_isolation=fault_isolation)


def counter_stim(n, cycles, seed=0):
    rng = np.random.default_rng(seed)
    rst = np.zeros((cycles, n), dtype=np.uint64)
    rst[0] = 1
    en = rng.integers(0, 2, (cycles, n), dtype=np.uint64)
    return StimulusBatch({"rst": rst, "en": en})


def survivor_pools(sim):
    """Complete pool state restricted to the active lanes."""
    act = sim.quarantine.active if sim.quarantine is not None else \
        np.ones(sim.n, dtype=bool)
    return [p.reshape(-1, sim.n)[:, act] for p in sim.arrays.pools]


def _lane_columns(sim, pool):
    """One pool as an (offsets, N) matrix; the packed pool ``P1`` is
    unpacked block by block (W words per offset)."""
    p = sim.arrays.pools[pool]
    if pool != PACKED_POOL:
        return p.reshape(-1, sim.n)
    blocks = p.reshape(-1, sim.arrays.words)
    return np.array([pk.unpack_u8(b, sim.n) for b in blocks],
                    dtype=np.uint8).reshape(-1, sim.n)


def assert_survivors_identical(base, faulted):
    """Pool state of ``faulted``'s active lanes == same lanes of ``base``."""
    act = faulted.quarantine.active
    for pool in range(len(base.arrays.pools)):
        assert np.array_equal(
            _lane_columns(base, pool)[:, act],
            _lane_columns(faulted, pool)[:, act],
        ), f"pool {pool}"


# ---------------------------------------------------------------------------
# LaneQuarantine unit behaviour
# ---------------------------------------------------------------------------


class TestLaneQuarantine:
    def test_starts_all_active(self):
        q = LaneQuarantine(8)
        assert q.all_active
        assert list(q.active_lanes()) == list(range(8))
        assert q.fault_count == 0

    def test_quarantine_is_idempotent(self):
        q = LaneQuarantine(8)
        fresh = q.quarantine([3], cycle=5, reason=REASON_INJECTED)
        assert fresh == [3]
        again = q.quarantine([3], cycle=9, reason=REASON_INJECTED)
        assert again == []  # already dead: no duplicate fault record
        assert q.fault_count == 1
        assert q.faulted_lanes() == [3]

    def test_out_of_range_lane_rejected(self):
        q = LaneQuarantine(4)
        with pytest.raises(SimulationError):
            q.quarantine([4], cycle=0, reason=REASON_INJECTED)

    def test_state_roundtrip(self):
        q = LaneQuarantine(6)
        q.quarantine([1, 4], cycle=7, reason=REASON_MEM_OOB, task="mem",
                     detail="boom")
        r = LaneQuarantine.from_state(q.state_dict())
        assert np.array_equal(r.active, q.active)
        assert [f.to_dict() for f in r.faults] == \
            [f.to_dict() for f in q.faults]

    def test_fault_record_fields(self):
        q = LaneQuarantine(4)
        q.quarantine([2], cycle=11, reason=REASON_DIV_ZERO, task="t_alu")
        (f,) = q.faults
        assert (f.lane, f.cycle, f.reason, f.task) == \
            (2, 11, REASON_DIV_ZERO, "t_alu")
        assert "lane 2" in str(f)

    def test_parse_lane_fault(self):
        assert parse_lane_fault("7:3") == LaneFaultSpec(cycle=7, lane=3)
        assert parse_lane_fault("7:3:div-by-zero").reason == "div-by-zero"
        with pytest.raises(ValueError):
            parse_lane_fault("7")
        with pytest.raises(ValueError):
            parse_lane_fault("a:b")


# ---------------------------------------------------------------------------
# Differential fault isolation: survivors bit-identical on every design
# ---------------------------------------------------------------------------


class TestSurvivorBitIdentity:
    @pytest.mark.parametrize("design", ["counter", "crypto", "riscv_mini"])
    def test_bundled_designs(self, design):
        bundle = get_design(design)
        model = RTLFlow.from_source(bundle.source, bundle.top).compile()
        n, cycles = 8, 30
        stim = bundle.make_stimulus(n, cycles, 11)

        # The per-task engine and the product engine run on one layout;
        # the assertion compares every pool (P1 unpacked) lane by lane.
        for executor in ("graph", "graph-fused"):
            base = BatchSimulator(model, n, executor=executor)
            bundle.preload(base)
            base.run(stim)

            plan = FaultPlan(lane_faults=[LaneFaultSpec(cycle=5, lane=2),
                                          LaneFaultSpec(cycle=14, lane=6)])
            faulted = BatchSimulator(model, n, executor=executor,
                                     fault_isolation=True)
            bundle.preload(faulted)
            faulted.run(stim, fault_plan=plan)

            assert faulted.quarantine.faulted_lanes() == [2, 6]
            assert_survivors_identical(base, faulted)

    @pytest.mark.parametrize("executor",
                             ["graph", "stream", "graph-fused"])
    def test_every_executor(self, executor):
        n, cycles = 16, 40
        stim = counter_stim(n, cycles, seed=3)
        base = make_sim(COUNTER_V, "counter", n, executor=executor)
        base.run(stim)

        plan = FaultPlan(lane_faults=[LaneFaultSpec(cycle=9, lane=0)])
        faulted = make_sim(COUNTER_V, "counter", n, executor=executor,
                           fault_isolation=True)
        faulted.run(stim, fault_plan=plan)
        assert faulted.quarantine.faulted_lanes() == [0]
        assert_survivors_identical(base, faulted)

    def test_quarantined_lane_freezes(self):
        n = 8
        stim = StimulusBatch({
            "rst": np.concatenate(
                [np.ones((1, n), np.uint64), np.zeros((29, n), np.uint64)]),
            "en": np.ones((30, n), dtype=np.uint64),
        })
        plan = FaultPlan(lane_faults=[LaneFaultSpec(cycle=10, lane=3)])
        sim = make_sim(COUNTER_V, "counter", n, fault_isolation=True)
        out = sim.run(stim, fault_plan=plan)["count"]
        # Lane 3 froze around cycle 10 while the rest counted to 29.
        assert out[3] < 12
        survivors = np.delete(out, 3)
        assert (survivors == 29).all()

    def test_random_plan_is_reproducible(self):
        a = FaultPlan.random(seed=42, n_lanes=16, cycles=50,
                             lane_fault_count=3)
        b = FaultPlan.random(seed=42, n_lanes=16, cycles=50,
                             lane_fault_count=3)
        assert a.to_dict() == b.to_dict()
        assert len(a.lane_faults) == 3


# ---------------------------------------------------------------------------
# Built-in fault detectors: div-by-zero, OOB memory write, stimulus decode
# ---------------------------------------------------------------------------


DIVIDER_V = """
module divider (
    input wire clk,
    input wire [7:0] a,
    input wire [7:0] b,
    output reg [7:0] q,
    output reg [7:0] r
);
    always @(posedge clk) begin
        q <= a / b;
        r <= a % b;
    end
endmodule
"""

# A comb divider over 8 input bits, registered so the run has state.
COMB_DIVIDER_V = """
module comb_divider (
    input wire clk,
    input wire [3:0] a,
    input wire [3:0] b,
    output reg [3:0] q
);
    wire [3:0] d = (a / b) + (a % b) + 4'd1;
    always @(posedge clk) q <= d;
endmodule
"""

# 4-bit address space over a 10-deep memory: addresses 10..15 are OOB.
MEMOOB_V = """
module memoob (
    input wire clk,
    input wire we,
    input wire [3:0] waddr,
    input wire [7:0] wdata,
    input wire [3:0] raddr,
    output wire [7:0] rdata
);
    reg [7:0] mem [0:9];
    always @(posedge clk) begin
        if (we) mem[waddr] <= wdata;
    end
    assign rdata = mem[raddr];
endmodule
"""


class TestFaultDetectors:
    def test_div_by_zero_quarantines_lane(self):
        n, cycles = 8, 10
        a = np.full((cycles, n), 100, dtype=np.uint64)
        b = np.full((cycles, n), 7, dtype=np.uint64)
        b[4, 5] = 0  # lane 5 divides by zero at cycle 4
        stim = StimulusBatch({"a": a, "b": b})

        sim = make_sim(DIVIDER_V, "divider", n, fault_isolation=True)
        sim.run(stim)
        (f,) = sim.quarantine.faults
        assert (f.lane, f.cycle, f.reason) == (5, 4, REASON_DIV_ZERO)

        base = make_sim(DIVIDER_V, "divider", n)
        base.run(stim)
        assert_survivors_identical(base, sim)

    def test_div_by_zero_without_isolation_keeps_sentinel(self):
        n = 4
        a = np.full((3, n), 9, dtype=np.uint64)
        b = np.zeros((3, n), dtype=np.uint64)
        stim = StimulusBatch({"a": a, "b": b})
        sim = make_sim(DIVIDER_V, "divider", n)
        out = sim.run(stim)
        assert (out["q"] == 0).all()  # two-state x -> 0 sentinel, no crash

    @pytest.mark.parametrize("executor", ["graph-fused", "graph"])
    def test_comb_div_by_zero_quarantines_lane(self, executor):
        """A small comb divider (8 input bits, many operators) would be a
        lookup table in the fused comb program; the divide must stay a
        divide, so the zero-divisor lane is quarantined on every engine."""
        n, cycles = 8, 10
        a = np.full((cycles, n), 13, dtype=np.uint64)
        b = np.full((cycles, n), 3, dtype=np.uint64)
        b[4, 5] = 0  # lane 5 divides by zero at cycle 4
        stim = StimulusBatch({"a": a, "b": b})

        sim = make_sim(COMB_DIVIDER_V, "comb_divider", n, executor=executor,
                       fault_isolation=True)
        sim.run(stim)
        (f,) = sim.quarantine.faults
        assert (f.lane, f.cycle, f.reason) == (5, 4, REASON_DIV_ZERO)

        base = make_sim(COMB_DIVIDER_V, "comb_divider", n, executor=executor)
        base.run(stim)
        assert_survivors_identical(base, sim)

    def test_oob_mem_write_quarantines_lane(self):
        n, cycles = 8, 12
        rng = np.random.default_rng(0)
        we = np.ones((cycles, n), dtype=np.uint64)
        waddr = rng.integers(0, 10, (cycles, n), dtype=np.uint64)
        waddr[6, 2] = 13  # lane 2 writes beyond depth 10 at cycle 6
        stim = StimulusBatch({
            "we": we, "waddr": waddr,
            "wdata": rng.integers(0, 256, (cycles, n), dtype=np.uint64),
            "raddr": rng.integers(0, 10, (cycles, n), dtype=np.uint64),
        })

        sim = make_sim(MEMOOB_V, "memoob", n, fault_isolation=True)
        sim.run(stim)
        (f,) = sim.quarantine.faults
        assert (f.lane, f.cycle, f.reason) == (2, 6, REASON_MEM_OOB)
        assert f.task == "mem"  # the offending memory is named

        base = make_sim(MEMOOB_V, "memoob", n)
        base.run(stim)
        assert_survivors_identical(base, sim)

    def test_stimulus_decode_fault_quarantines_and_retries(self):
        n, cycles = 8, 20
        stim = counter_stim(n, cycles, seed=5)
        plan = FaultPlan(stimulus_faults={(7, 4)})
        sim = make_sim(COUNTER_V, "counter", n, fault_isolation=True)
        base = make_sim(COUNTER_V, "counter", n)
        base.run(stim)
        sim.run(FaultyStimulus(stim, plan))
        (f,) = sim.quarantine.faults
        assert (f.lane, f.cycle, f.reason) == (4, 7, REASON_STIMULUS)
        assert_survivors_identical(base, sim)

    def test_stimulus_decode_fault_propagates_without_isolation(self):
        stim = counter_stim(4, 10)
        plan = FaultPlan(stimulus_faults={(2, 1)})
        sim = make_sim(COUNTER_V, "counter", 4)
        with pytest.raises(LaneStimulusError):
            sim.run(FaultyStimulus(stim, plan))


# ---------------------------------------------------------------------------
# Div-fault sink thread isolation (simulators evaluate on concurrent threads)
# ---------------------------------------------------------------------------


class TestDivFaultSinkThreadIsolation:
    def test_sink_is_thread_local(self):
        """Each thread's installed sink sees only its own divisions.

        Simulators may evaluate on concurrent threads of one process; a
        process-global sink would let one thread's install/uninstall
        clear another's (missed faults) or deliver a zero-divisor mask to
        the wrong simulator's quarantine.
        """
        rounds = 100
        received = {"a": [], "b": []}
        barrier = threading.Barrier(2)
        errors = []

        def worker(tag):
            try:
                def sink(mask):
                    received[tag].append(threading.get_ident())
                assert bv.set_div_fault_sink(sink) is None  # fresh thread
                try:
                    barrier.wait()
                    num = np.full(4, 8, dtype=np.uint64)
                    den = np.zeros(4, dtype=np.uint64)
                    for _ in range(rounds):
                        assert (bv.b_div(num, den) == 0).all()
                finally:
                    bv.set_div_fault_sink(None)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        ta = threading.Thread(target=worker, args=("a",))
        tb = threading.Thread(target=worker, args=("b",))
        for t in (ta, tb):
            t.start()
        for t in (ta, tb):
            t.join()
        assert not errors
        # No missed deliveries, and every delivery on the installing thread.
        assert len(received["a"]) == rounds
        assert len(received["b"]) == rounds
        assert set(received["a"]) == {ta.ident}
        assert set(received["b"]) == {tb.ident}

    def test_concurrent_simulators_quarantine_only_their_own_lanes(self):
        """Two fault-isolating simulators evaluating on concurrent threads
        each quarantine exactly their own zero-divisor lanes."""
        n, cycles = 8, 400
        own_lane = {"a": 1, "b": 6}
        sims, stims = {}, {}
        for tag, lane in own_lane.items():
            sims[tag] = make_sim(DIVIDER_V, "divider", n, fault_isolation=True)
            a = np.full((cycles, n), 100, dtype=np.uint64)
            b = np.full((cycles, n), 7, dtype=np.uint64)
            b[2:, lane] = 0  # divides by zero on every cycle from 2 on
            stims[tag] = StimulusBatch({"a": a, "b": b})
        barrier = threading.Barrier(2)
        errors = []

        def worker(tag):
            try:
                barrier.wait()
                sims[tag].run(stims[tag])
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        # Switch threads as often as possible so the two evaluations
        # interleave inside each other's sink install/uninstall window.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(tag,))
                       for tag in own_lane]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        for tag, lane in own_lane.items():
            faults = sims[tag].quarantine.faults
            assert [(f.lane, f.cycle, f.reason) for f in faults] == [
                (lane, 2, REASON_DIV_ZERO)]

DONECTR_V = """
module donectr (
    input wire clk,
    input wire rst,
    input wire en,
    output wire done
);
    reg [7:0] q;
    always @(posedge clk) begin
        if (rst) q <= 0;
        else if (en) q <= q + 1;
    end
    assign done = (q >= 8'd10);
endmodule
"""


class TestStopPolling:
    def test_quarantined_lane_cannot_block_completion(self):
        n, cycles = 8, 200
        stim = StimulusBatch({
            "rst": np.concatenate(
                [np.ones((1, n), np.uint64),
                 np.zeros((cycles - 1, n), np.uint64)]),
            "en": np.ones((cycles, n), dtype=np.uint64),
        })
        # Lane 2 is quarantined at q == 2: frozen forever below the done
        # threshold.  'all' completion must still trigger once every
        # *active* lane is done.
        plan = FaultPlan(lane_faults=[LaneFaultSpec(cycle=3, lane=2)])
        sim = make_sim(DONECTR_V, "donectr", n, fault_isolation=True)
        sim.run(stim, fault_plan=plan, stop="done", stop_mode="all",
                stop_check_every=4)
        assert sim.cycles_run < 50

    def test_fully_quarantined_batch_stops_early(self):
        """Once every lane is dead the run bails out instead of burning
        the remaining cycles (stop_mode='any' could otherwise never
        fire over an empty active set)."""
        n, cycles = 4, 200
        stim = counter_stim(n, cycles, seed=3)
        plan = FaultPlan(
            lane_faults=[LaneFaultSpec(cycle=2, lane=l) for l in range(n)]
        )
        sim = make_sim(COUNTER_V, "counter", n, fault_isolation=True)
        sim.run(stim, fault_plan=plan, stop="count", stop_mode="any",
                stop_check_every=4)
        assert sim.quarantine.fault_count == n
        assert not sim.quarantine.any_active
        assert sim.cycles_run <= 3  # faults land at cycle 2; bail right after

    def test_fully_quarantined_batch_stops_without_stop_signal(self):
        n, cycles = 4, 200
        stim = counter_stim(n, cycles, seed=3)
        plan = FaultPlan(
            lane_faults=[LaneFaultSpec(cycle=5, lane=l) for l in range(n)]
        )
        sim = make_sim(COUNTER_V, "counter", n, fault_isolation=True)
        sim.run(stim, fault_plan=plan)
        assert sim.cycles_run <= 6


# ---------------------------------------------------------------------------
# Coverage-check quarantine
# ---------------------------------------------------------------------------


class TestCoverageQuarantine:
    def test_violating_lane_is_quarantined(self):
        n, cycles = 8, 20
        en = np.zeros((cycles, n), dtype=np.uint64)
        en[:, 0] = 1  # only lane 0 counts
        rst = np.zeros((cycles, n), dtype=np.uint64)
        rst[0] = 1
        stim = StimulusBatch({"rst": rst, "en": en})

        sim = make_sim(COUNTER_V, "counter", n, fault_isolation=True)
        checker = BatchChecker(sim, quarantine=True)
        checker.add("count_small", lambda s: s["count"] <= 3)
        checker.run(stim)

        (f,) = sim.quarantine.faults
        assert f.lane == 0
        assert f.reason == REASON_COVERAGE
        assert f.task == "count_small"
        # The frozen lane stops re-violating: exactly one violation record.
        assert len(checker.violations) == 1
        # Survivors held the property throughout.
        assert (sim.get("count")[1:] == 0).all()

    def test_quarantine_requires_fault_isolation(self):
        sim = make_sim(COUNTER_V, "counter", 4)
        with pytest.raises(SimulationError):
            BatchChecker(sim, quarantine=True)

    def test_without_quarantine_violations_accumulate(self):
        n, cycles = 4, 10
        en = np.ones((cycles, n), dtype=np.uint64)
        rst = np.zeros((cycles, n), dtype=np.uint64)
        rst[0] = 1
        stim = StimulusBatch({"rst": rst, "en": en})
        sim = make_sim(COUNTER_V, "counter", n)
        checker = BatchChecker(sim)
        checker.add("count_small", lambda s: s["count"] <= 3)
        checker.run(stim)
        assert len(checker.violations) > 1


# ---------------------------------------------------------------------------
# Atomic writes + checkpoint manager
# ---------------------------------------------------------------------------


class TestAtomicWrites:
    def test_json_roundtrip_no_temp_leftovers(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(str(path), {"a": [1, 2]})
        import json
        assert json.loads(path.read_text()) == {"a": [1, 2]}
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_text_overwrite(self, tmp_path):
        path = tmp_path / "t.txt"
        atomic_write_text(str(path), "one")
        atomic_write_text(str(path), "two")
        assert path.read_text() == "two"


class TestCheckpointManager:
    def _sim(self, n=8):
        return make_sim(COUNTER_V, "counter", n)

    def test_periodic_policy_cadence(self, tmp_path):
        sim = self._sim()
        stim = counter_stim(8, 40, seed=1)
        mgr = CheckpointManager(str(tmp_path),
                               policy=CheckpointPolicy(every_cycles=10),
                               keep=100)
        sim.run(stim, checkpoint=mgr)
        assert mgr.writes == 4
        assert sorted(c for c, _ in mgr._entries()) == [10, 20, 30, 40]

    def test_keep_prunes_old_snapshots(self, tmp_path):
        sim = self._sim()
        stim = counter_stim(8, 40, seed=1)
        mgr = CheckpointManager(str(tmp_path),
                               policy=CheckpointPolicy(every_cycles=10),
                               keep=2)
        sim.run(stim, checkpoint=mgr)
        assert sorted(c for c, _ in mgr._entries()) == [30, 40]

    def test_stray_files_are_ignored(self, tmp_path):
        sim = self._sim()
        mgr = CheckpointManager(str(tmp_path))
        (tmp_path / "ckpt-000000000099.pkl.broken.tmp").write_bytes(b"junk")
        (tmp_path / "notes.txt").write_text("hi")
        assert mgr.latest_path() is None
        sim.run(counter_stim(8, 5, seed=1))
        mgr.save(sim)
        assert mgr.latest_path().endswith("ckpt-000000000005.pkl")

    def test_injected_write_failure_is_transient(self, tmp_path):
        sim = self._sim()
        plan = FaultPlan(checkpoint_failures={0})
        mgr = CheckpointManager(str(tmp_path),
                               policy=CheckpointPolicy(every_cycles=5),
                               fault_plan=plan)
        sim.run(counter_stim(8, 20, seed=1), checkpoint=mgr)
        # Write attempt #0 failed (swallowed: periodic), the rest landed.
        assert mgr.write_failures == 1
        assert mgr.writes == 3
        assert mgr.latest_path() is not None

    def test_required_save_failure_raises(self, tmp_path):
        sim = self._sim()
        plan = FaultPlan(checkpoint_failures={0})
        mgr = CheckpointManager(str(tmp_path), fault_plan=plan)
        sim.run(counter_stim(8, 5, seed=1))
        with pytest.raises(CheckpointError):
            mgr.save(sim, required=True)
        assert mgr.save(sim, required=True)  # next attempt succeeds

    def test_load_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointManager.load(str(tmp_path / "nope.pkl"))

    def test_load_wraps_arbitrary_unpickle_errors(self, tmp_path):
        """Corrupt / version-skewed pickles raise much more than
        UnpicklingError (ImportError, AttributeError, ...); all of it
        must surface as the documented CheckpointError."""
        # A GLOBAL opcode referencing a module that doesn't exist: raw
        # pickle.load raises ModuleNotFoundError, not UnpicklingError.
        skewed = tmp_path / "ckpt-000000000001.pkl"
        skewed.write_bytes(b"cnonexistent_module_xyz\nNoClass\n.")
        with pytest.raises(CheckpointError, match="cannot load checkpoint"):
            CheckpointManager.load(str(skewed))
        # Truncated payload (the classic torn write) stays wrapped too.
        truncated = tmp_path / "ckpt-000000000002.pkl"
        truncated.write_bytes(b"\x80\x04\x95")
        with pytest.raises(CheckpointError, match="cannot load checkpoint"):
            CheckpointManager.load(str(truncated))

    def test_invalid_policy_rejected(self):
        with pytest.raises(CheckpointError):
            CheckpointPolicy(every_cycles=0)
        with pytest.raises(CheckpointError):
            CheckpointPolicy(every_seconds=-1.0)


# ---------------------------------------------------------------------------
# Checkpoint/resume matrix: executors x in-proc / cross-process
# ---------------------------------------------------------------------------


class TestCheckpointResume:
    CYCLES = 60

    def _full_run(self, executor, n=16):
        sim = make_sim(COUNTER_V, "counter", n, executor=executor)
        stim = counter_stim(n, self.CYCLES, seed=9)
        out = sim.run(stim)
        return sim, stim, out

    @pytest.mark.parametrize("executor", ["graph", "stream"])
    def test_inproc_midrun_restore(self, executor):
        ref_sim, stim, ref_out = self._full_run(executor)
        n = 16
        sim = make_sim(COUNTER_V, "counter", n, executor=executor)
        sim.run(stim, cycles=33)
        ckpt = sim.save_checkpoint()

        fresh = make_sim(COUNTER_V, "counter", n, executor=executor)
        fresh.restore_checkpoint(ckpt)
        assert fresh.cycles_run == 33
        out = fresh.run(stim, start_cycle=fresh.cycles_run)
        assert np.array_equal(out["count"], ref_out["count"])
        for p, q in zip(ref_sim.arrays.pools, fresh.arrays.pools):
            assert np.array_equal(p, q)

    @pytest.mark.parametrize("executor", ["graph", "stream"])
    def test_pickled_from_disk_restore(self, executor, tmp_path):
        _, stim, ref_out = self._full_run(executor)
        n = 16
        sim = make_sim(COUNTER_V, "counter", n, executor=executor)
        mgr = CheckpointManager(str(tmp_path),
                               policy=CheckpointPolicy(every_cycles=16))
        sim.run(stim, cycles=40, checkpoint=mgr)

        fresh = make_sim(COUNTER_V, "counter", n, executor=executor)
        fresh.restore_checkpoint(mgr.load_latest())
        assert fresh.cycles_run == 32
        out = fresh.run(stim, start_cycle=fresh.cycles_run)
        assert np.array_equal(out["count"], ref_out["count"])

    def test_checkpoint_with_epochs_field_restores(self):
        """Older checkpoints carry a write-epoch snapshot under
        ``"epochs"``; a restore ignores it and resumes bit-identically."""
        n = 16
        stim = counter_stim(n, self.CYCLES, seed=9)
        sim = make_sim(COUNTER_V, "counter", n, executor="graph")
        sim.run(stim, cycles=30)
        ckpt = sim.save_checkpoint()
        assert "epochs" not in ckpt
        layout = sim.layout
        ckpt["epochs"] = {
            "epoch": 7,
            "write_epochs": [
                np.zeros(max(1, size), dtype=np.int64)
                for size in layout.pool_sizes + [layout.packed_size]
            ],
        }
        fresh = make_sim(COUNTER_V, "counter", n, executor="graph")
        fresh.restore_checkpoint(ckpt)
        out = fresh.run(stim, start_cycle=30)
        _, _, ref_out = self._full_run("graph")
        assert np.array_equal(out["count"], ref_out["count"])

    def test_quarantine_state_rides_in_checkpoint(self):
        n = 8
        stim = counter_stim(n, 40, seed=2)
        plan = FaultPlan(lane_faults=[LaneFaultSpec(cycle=5, lane=1)])
        sim = make_sim(COUNTER_V, "counter", n, fault_isolation=True)
        sim.run(stim, cycles=20, fault_plan=plan)
        ckpt = sim.save_checkpoint()

        fresh = make_sim(COUNTER_V, "counter", n, fault_isolation=True)
        fresh.restore_checkpoint(ckpt)
        assert fresh.quarantine.faulted_lanes() == [1]
        (f,) = fresh.quarantine.faults
        assert (f.cycle, f.reason) == (5, REASON_INJECTED)

    def test_simulated_sigkill_cross_process_resume(self, tmp_path):
        """A process dying mid-run (no cleanup) leaves a resumable dir."""
        script = textwrap.dedent("""
            import os
            import numpy as np
            from repro.core.codegen import KernelCodegen
            from repro.core.simulator import BatchSimulator
            from repro.partition.merge import partition
            from repro.resilience import CheckpointManager, CheckpointPolicy
            from tests.conftest import COUNTER_V, compile_graph
            from tests.test_resilience import counter_stim

            graph = compile_graph(COUNTER_V, "counter")
            model = KernelCodegen(partition(graph, target_weight=64.0)).compile()
            sim = BatchSimulator(model, 16, executor="graph")
            stim = counter_stim(16, 60, seed=9)
            mgr = CheckpointManager(%r, policy=CheckpointPolicy(every_cycles=10))
            mgr.begin(sim.cycles_run)
            for c in range(60):
                sim.cycle(lambda c=c: stim.inputs_at(c))
                mgr.maybe_save(sim)
                if c == 37:
                    os._exit(9)  # SIGKILL stand-in: no flush, no cleanup
        """ % str(tmp_path))
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root]
        )
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 9, proc.stderr

        _, stim, ref_out = self._full_run("graph")
        fresh = make_sim(COUNTER_V, "counter", 16)
        mgr = CheckpointManager(str(tmp_path))
        fresh.restore_checkpoint(mgr.load_latest())
        assert fresh.cycles_run == 30  # last complete snapshot before death
        out = fresh.run(stim, start_cycle=fresh.cycles_run)
        assert np.array_equal(out["count"], ref_out["count"])


# ---------------------------------------------------------------------------
# Watchdog + retry + MCMC trial resilience
# ---------------------------------------------------------------------------


class TestWatchdogRetry:
    def test_run_with_timeout_passes_value(self):
        assert run_with_timeout(lambda: 42, 1.0, "quick") == 42

    def test_run_with_timeout_raises_on_hang(self):
        import time
        with pytest.raises(WatchdogTimeout):
            run_with_timeout(lambda: time.sleep(0.5), 0.05, "hang")

    def test_retry_succeeds_after_transient_failure(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return "ok"

        assert call_with_retry(flaky, RetryPolicy(max_attempts=2),
                               sleep=lambda s: None) == "ok"

    def test_retry_exhaustion_carries_last_error(self):
        def always():
            raise ValueError("doom")

        with pytest.raises(RetryExhausted) as ei:
            call_with_retry(always, RetryPolicy(max_attempts=3),
                            sleep=lambda s: None)
        assert ei.value.attempts == 3
        assert isinstance(ei.value.last_error, ValueError)

    def test_backoff_schedule(self):
        slept = []

        def always():
            raise RuntimeError("x")

        policy = RetryPolicy(max_attempts=3, backoff_s=0.1,
                             backoff_factor=2.0)
        with pytest.raises(RetryExhausted):
            call_with_retry(always, policy, sleep=slept.append)
        assert slept == [0.1, 0.2]


class TestMCMCTrialResilience:
    def _partitioner(self, counter_graph, **kw):
        est = Estimator(counter_graph, n_stimulus=8, cycles=4)
        return MCMCPartitioner(counter_graph, estimator=est, max_iter=4,
                               max_unimproved=3, **kw)

    def test_crashed_trial_is_rejected_not_fatal(self, counter_graph):
        plan = FaultPlan(trial_faults=[
            TrialFaultSpec(iteration=1, mode="crash", attempts=5)
        ])
        p = self._partitioner(counter_graph,
                              retry=RetryPolicy(max_attempts=2),
                              fault_plan=plan)
        result = p.optimize()
        assert result.failed_trials == 1
        assert result.trial_retries >= 1
        assert result.iterations >= 1
        # inf never leaks into the recorded best.
        import math
        assert math.isfinite(result.best_cost)

    def test_hung_trial_times_out_then_recovers(self, counter_graph):
        plan = FaultPlan(trial_faults=[
            TrialFaultSpec(iteration=1, mode="hang", hang_s=0.3)
        ])
        p = self._partitioner(
            counter_graph,
            retry=RetryPolicy(max_attempts=2, timeout_s=0.05),
            fault_plan=plan,
        )
        result = p.optimize()
        assert result.trial_timeouts == 1
        assert result.failed_trials == 0  # retry absorbed the hang

    def test_failed_initial_trial_yields_zero_improvement(self, counter_graph):
        plan = FaultPlan(trial_faults=[
            TrialFaultSpec(iteration=0, mode="crash", attempts=5)
        ])
        p = self._partitioner(counter_graph,
                              retry=RetryPolicy(max_attempts=2),
                              fault_plan=plan)
        result = p.optimize()
        import math
        assert math.isinf(result.initial_cost)
        assert result.improvement == 0.0  # guarded, not NaN

    def test_no_harness_means_no_overhead_path(self, counter_graph):
        p = self._partitioner(counter_graph)
        result = p.optimize()
        assert result.failed_trials == 0
        assert result.trial_retries == 0
