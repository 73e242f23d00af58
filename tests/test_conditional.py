"""Tests for activity-aware conditional (dirty-set) replay.

The `"graph-conditional"` executor must be *bit-identical* to the
unconditional `"graph"` executor on every design and stimulus — skipping
is legal only when re-execution would recompute the value already in the
pools.  These tests sweep the bundled designs across activity levels,
compare complete pool state, and pin what the executor observes change
and which tasks it re-runs.
"""

import numpy as np
import pytest

from repro import RTLFlow
from repro.core.codegen import KernelCodegen, transpile
from repro.core.memory import DeviceArrays
from repro.core.simulator import BatchSimulator, make_executor
from repro.designs import get_design, list_designs
from repro.gpu.device import SimulatedDevice
from repro.gpu.graphexec import ConditionalGraphExecutor
from repro.partition.merge import partition
from repro.partition.taskgraph import TaskGraph  # noqa: F401  (re-exported API)
from repro.pipeline.scheduler import PipelineSimulator
from repro.rtlir.graph import NodeKind
from repro.stimulus.batch import StimulusBatch
from repro.utils.errors import SimulationError

from tests.conftest import COUNTER_V, MEMDUT_V, compile_graph
from tests.helpers import assert_batch_matches_reference


def _hold_with_activity(stim: StimulusBatch, activity: float, seed: int = 7):
    """Derive a low-activity variant of ``stim``.

    A batch-uniform Bernoulli(``activity``) draw decides, per cycle,
    whether the inputs advance to that cycle's values or hold the
    previous cycle's (cycle 0 always applies, so resets still happen).
    This models correlated control activity — the regime where a batch
    engine can be quiescent at all (the dirty set is any-lane-changed).
    """
    rng = np.random.default_rng(seed)
    update = rng.random(stim.cycles) < activity
    update[0] = True
    held = {}
    for name, arr in stim.data.items():
        out = arr.copy()
        for c in range(1, stim.cycles):
            if not update[c]:
                out[c] = out[c - 1]
        held[name] = out
    return StimulusBatch(held)


def _pools_equal(a: DeviceArrays, b: DeviceArrays) -> bool:
    return all(np.array_equal(p, q) for p, q in zip(a.pools, b.pools))


def _counter_stim(n: int, cycles: int, activity: float, seed: int = 0):
    """Batch-uniform enable toggling with probability ``activity``."""
    rng = np.random.default_rng(seed)
    en_row = (rng.random(cycles) < activity).astype(np.uint64)
    en = np.repeat(en_row[:, None], n, axis=1)
    rst = np.zeros((cycles, n), dtype=np.uint64)
    rst[0] = 1
    return StimulusBatch({"rst": rst, "en": en})


class TestDifferentialAgainstGraphExecutor:
    """Pool-state equality: conditional vs unconditional replay."""

    @pytest.mark.parametrize("design", list_designs())
    @pytest.mark.parametrize("activity", [0.05, 0.5, 1.0])
    def test_bit_identical_pools(self, design, activity):
        bundle = get_design(design)
        flow = RTLFlow.from_source(bundle.source, bundle.top)
        model = flow.compile()
        n, cycles = 8, 40
        stim = _hold_with_activity(
            bundle.make_stimulus(n, cycles, 11), activity
        )
        sims = {}
        for kind in ("graph", "graph-conditional"):
            sim = BatchSimulator(model, n, executor=kind)
            bundle.preload(sim)
            sim.run(stim)
            sims[kind] = sim
        assert _pools_equal(
            sims["graph"].arrays, sims["graph-conditional"].arrays
        ), f"{design}: pool state diverged at activity {activity}"

    def test_conditional_matches_golden_reference(self):
        assert_batch_matches_reference(
            COUNTER_V, "counter", n=8, cycles=25, executor="graph-conditional"
        )

    def test_conditional_matches_reference_with_memory(self):
        assert_batch_matches_reference(
            MEMDUT_V, "memdut", n=8, cycles=30, executor="graph-conditional"
        )

    def test_skips_at_low_activity(self):
        model = transpile(compile_graph(COUNTER_V, "counter"))
        sim = BatchSimulator(model, 32, executor="graph-conditional")
        sim.run(_counter_stim(32, 200, activity=0.02))
        ex = sim.executor
        assert ex.tasks_skipped > 0, "low activity must skip tasks"
        assert ex.tasks_run > 0
        assert 0.0 < ex.skip_rate < 1.0

    def test_skip_rate_decreases_with_activity(self):
        model = transpile(compile_graph(COUNTER_V, "counter"))
        rates = {}
        for activity in (0.02, 1.0):
            sim = BatchSimulator(model, 32, executor="graph-conditional")
            sim.run(_counter_stim(32, 200, activity=activity))
            rates[activity] = sim.executor.skip_rate
        assert rates[0.02] > rates[1.0], rates

    def test_checkpoint_restore_stays_identical(self):
        """A restore dirties everything, so replay after restore is exact."""
        model = transpile(compile_graph(COUNTER_V, "counter"))
        stim = _counter_stim(8, 60, activity=0.1, seed=3)
        cond = BatchSimulator(model, 8, executor="graph-conditional")
        ref = BatchSimulator(model, 8, executor="graph")
        for c in range(30):
            cond.cycle(stim.inputs_at(c))
            ref.cycle(stim.inputs_at(c))
        ckpt = cond.save_checkpoint()
        for c in range(30, 40):
            cond.cycle(stim.inputs_at(c))
        cond.restore_checkpoint(ckpt)
        for c in range(30, 60):
            cond.cycle(stim.inputs_at(c))
            ref.cycle(stim.inputs_at(c))
        assert _pools_equal(cond.arrays, ref.arrays)

    def test_pipeline_simulator_with_conditional_executor(self):
        model = transpile(compile_graph(COUNTER_V, "counter"))
        n, cycles = 16, 30
        stim = _counter_stim(n, cycles, activity=0.2, seed=9)
        pipe = PipelineSimulator(
            model, n, groups=4, executor="graph-conditional"
        )
        mono = BatchSimulator(model, n, executor="graph")
        outs = pipe.run_virtual(stim)
        mono.run(stim)
        assert np.array_equal(outs["count"], mono.get("count"))


MULTICLOCK_V = """
module twoclk (
    input wire clk,
    input wire slow_clk,
    input wire rst,
    input wire [7:0] d,
    output wire [7:0] fast_q,
    output wire [7:0] slow_q
);
    reg [7:0] f, s;
    always @(posedge clk) begin
        if (rst) f <= 0;
        else f <= f + d;
    end
    always @(posedge slow_clk) begin
        if (rst) s <= 0;
        else s <= f;
    end
    assign fast_q = f;
    assign slow_q = s;
endmodule
"""


class TestMulticlockConditional:
    def test_two_clock_domains_bit_identical(self):
        graph = compile_graph(MULTICLOCK_V, "twoclk")
        model = transpile(graph)
        n = 4
        rng = np.random.default_rng(2)
        d = rng.integers(0, 16, size=(24, n), dtype=np.uint64)
        sims = {
            kind: BatchSimulator(model, n, executor=kind, clock="clk")
            for kind in ("graph", "graph-conditional")
        }

        def drive(sim, cycle, rst):
            slow = 1 if cycle % 2 == 1 else 0
            sim.set_inputs({"rst": rst, "d": d[cycle]})
            sim.arrays.write("slow_clk", 0)
            sim.set_clock(0)
            sim.evaluate()
            sim.set_clock(1)
            sim.arrays.write("slow_clk", slow)
            sim.evaluate()

        for kind, sim in sims.items():
            drive(sim, 0, 1)
            for c in range(1, 24):
                drive(sim, c, 0)
        assert _pools_equal(
            sims["graph"].arrays, sims["graph-conditional"].arrays
        )


ACTIVITY_V = """
module act (
    input wire clk,
    input wire [7:0] a,
    input wire [7:0] b,
    input wire we,
    input wire [1:0] waddr,
    input wire [1:0] raddr,
    output wire [7:0] ya,
    output wire [7:0] yab,
    output wire [7:0] yb,
    output wire [7:0] yr,
    output wire [7:0] ym
);
    reg [7:0] r;
    reg [7:0] mem [0:3];
    always @(posedge clk) begin
        r <= b;
        if (we) mem[waddr] <= a;
    end
    wire [7:0] ta = a + 8'd1;
    assign ya = ta;
    assign yab = ta ^ 8'h5a;
    assign yb = b - 8'd3;
    assign yr = r + 8'd7;
    assign ym = mem[raddr];
endmodule
"""

_ACT_INPUTS = {"a": [1, 2, 3, 4, 5, 6, 7, 8], "b": 9, "we": 0, "waddr": 1,
               "raddr": 1}


def _rerun(sim, action=lambda: None, edge=False):
    """Task ids the next evaluation re-executes after ``action``; the
    evaluation is a rising clock edge when ``edge``."""
    if edge:
        sim.set_clock(0)
        sim.evaluate()
    before = dict(sim.executor._last_run)
    action()
    if edge:
        sim.set_clock(1)
    sim.evaluate()
    return {t for t, e in sim.executor._last_run.items() if before.get(t) != e}


def _readers(sim, name):
    """Comb tasks reading ``name``, and every comb task downstream."""
    tg = sim.model.taskgraph
    out = set()
    for tid in sim.model.comb_schedule():  # topological order
        if name in tg.task_reads(tid) or out & set(tg.preds.get(tid, ())):
            out.add(tid)
    return out


def _set_shadow(sim, name, values):
    s = sim.layout.slot(name)
    n = sim.n
    sim.arrays.pools[s.pool][s.next_offset * n : (s.next_offset + 1) * n] = values


class TestActivityObservation:
    """What the conditional executor sees change, and what it re-runs."""

    def _sim(self, **kwargs):
        graph = compile_graph(ACTIVITY_V, "act")
        model = KernelCodegen(partition(graph, target_weight=1.0)).compile()
        sim = BatchSimulator(model, 8, executor="graph-conditional", **kwargs)
        sim.set_inputs(_ACT_INPUTS)
        for _ in range(3):
            sim.cycle()
        assert _rerun(sim, edge=True) == set()  # settled
        return sim

    def test_fine_grained_partition(self):
        sim = self._sim()
        readers = {name: _readers(sim, name) for name in ("a", "b", "r", "mem")}
        assert all(readers.values())
        assert readers["a"] != readers["b"]
        assert len(sim.model.comb_schedule()) > len(readers["a"])

    def test_identical_input_rewrite_stays_quiet(self):
        sim = self._sim()
        assert _rerun(sim, lambda: sim.set_input("a", _ACT_INPUTS["a"])) == set()
        assert _rerun(sim, lambda: sim.set_inputs(_ACT_INPUTS), edge=True) == set()

    def test_changed_input_reruns_readers_and_downstream(self):
        sim = self._sim()
        ran = _rerun(sim, lambda: sim.set_input("a", 200))
        assert ran == _readers(sim, "a")
        assert not ran & _readers(sim, "b")

    def test_register_commit_dirties_only_on_change(self):
        sim = self._sim()
        assert _rerun(sim, edge=True) == set()  # commit changed nothing
        _set_shadow(sim, "r", 77)
        assert _rerun(sim, edge=True) == _readers(sim, "r")
        assert np.all(sim.get("yr") == 84)

    def test_quarantined_lane_change_dirties_nothing(self):
        sim = self._sim(fault_isolation=True)
        sim.quarantine.quarantine([3], cycle=0, reason="injected")
        pending = np.full(8, 9, dtype=np.uint8)
        pending[3] = 77
        _set_shadow(sim, "r", pending)
        assert _rerun(sim, edge=True) == set()
        assert np.all(sim.get("r") == 9)

    def test_enabled_memory_write_dirties_readers(self):
        sim = self._sim()
        ran = _rerun(sim, lambda: sim.set_inputs({"we": 1, "a": 42}), edge=True)
        assert _readers(sim, "mem") <= ran
        assert np.all(sim.get("ym") == 42)

    @pytest.mark.parametrize("write", ["load_memory", "non_input", "restore"])
    def test_unobserved_host_write_dirties_every_task_once(self, write):
        sim = self._sim()
        sim.set_clock(0)
        sim.evaluate()
        ckpt = sim.save_checkpoint()  # low clock: the restore keeps the edge
        action = {
            "load_memory": lambda: sim.load_memory("mem", [5, 6, 7, 8]),
            "non_input": lambda: sim.arrays.write("r", 3),
            "restore": lambda: sim.restore_checkpoint(ckpt),
        }[write]
        every = {t.tid for t in sim.model.taskgraph.tasks}
        assert _rerun(sim, action, edge=True) == every
        assert _rerun(sim, edge=True) == set()


#: graph-conditional's (tasks_run, tasks_skipped) on the bundled designs
#: (seed 1, preloaded, bundle.watch), plus ``memdut`` at low activity:
#: the bundled designs' memory readers always re-run for other reasons,
#: so only that row notices a missed memory write.
SKIP_TABLE = [
    ("counter", 256, 60, (179, 1)),
    ("spinal", 512, 60, (660, 0)),
    ("riscv_mini", 512, 128, (1662, 1026)),
    ("crypto", 128, 40, (1080, 0)),
    ("nvdla", 64, 32, (580, 476)),
    ("memdut", 16, 60, (73, 107)),
]


@pytest.mark.parametrize("design,n,cycles,counts", SKIP_TABLE)
def test_skip_decisions_on_bundled_designs(design, n, cycles, counts):
    if design == "memdut":
        model = transpile(compile_graph(MEMDUT_V, "memdut"))
        rng = np.random.default_rng(1)
        stim = _hold_with_activity(StimulusBatch({
            "we": rng.integers(0, 2, (cycles, n), dtype=np.uint64),
            "waddr": rng.integers(0, 16, (cycles, n), dtype=np.uint64),
            "wdata": rng.integers(0, 256, (cycles, n), dtype=np.uint64),
            "raddr": np.full((cycles, n), 5, dtype=np.uint64),
        }), 0.2)
        sim = BatchSimulator(model, n, executor="graph-conditional")
        sim.run(stim)
    else:
        bundle = get_design(design)
        model = RTLFlow.from_source(bundle.source, bundle.top).compile()
        sim = BatchSimulator(model, n, executor="graph-conditional")
        bundle.preload(sim)
        sim.run(bundle.make_stimulus(n, cycles, 1), watch=bundle.watch)
    assert (sim.executor.tasks_run, sim.executor.tasks_skipped) == counts


class TestTaskAccessMetadata:
    def test_task_reads_exclude_clock(self):
        model = transpile(compile_graph(COUNTER_V, "counter"))
        tg = model.taskgraph
        for task in tg.tasks:
            if task.kind is NodeKind.SEQ:
                assert task.clock not in tg.task_reads(task.tid)

    def test_task_writes_cover_targets(self):
        model = transpile(compile_graph(COUNTER_V, "counter"))
        tg = model.taskgraph
        written = set()
        for task in tg.tasks:
            written |= tg.task_writes(task.tid)
        assert "count" in written and "q" in written

    def test_seq_writes_map_to_shadow_offsets(self):
        model = transpile(compile_graph(COUNTER_V, "counter"))
        acc = model.task_accesses()
        tg = model.taskgraph
        layout = model.layout
        for task in tg.tasks:
            if task.kind is not NodeKind.SEQ:
                continue
            slot = layout.slot(model.graph.nodes[task.nodes[0]].target)
            offs = {
                int(o)
                for pool, arr in acc[task.tid].write_offsets
                if pool == slot.pool
                for o in arr
            }
            assert slot.next_offset in offs
            assert slot.offset not in offs

    def test_memory_reads_are_ranges(self):
        model = transpile(compile_graph(MEMDUT_V, "memdut"))
        acc = model.task_accesses()
        ms = model.layout.mem("mem")
        ranges = {
            r for a in acc.values() for r in a.read_ranges
        }
        assert (ms.pool, ms.base, ms.base + ms.depth) in ranges

    def test_accesses_cached(self):
        model = transpile(compile_graph(COUNTER_V, "counter"))
        assert model.task_accesses() is model.task_accesses()


class TestSkipTelemetry:
    def test_metrics_counters_record_skip_rate(self):
        from repro import obs

        model = transpile(compile_graph(COUNTER_V, "counter"))
        with obs.capture() as (tracer, metrics):
            sim = BatchSimulator(
                model, 16, executor="graph-conditional",
                tracer=tracer, metrics=metrics,
            )
            sim.run(_counter_stim(16, 100, activity=0.02))
        snap = metrics.snapshot()
        counters = snap["counters"]
        assert counters["executor.tasks_run"]["value"] > 0
        assert counters["executor.tasks_skipped"]["value"] > 0
        run = counters["executor.tasks_run"]["value"]
        skipped = counters["executor.tasks_skipped"]["value"]
        assert run == sim.executor.tasks_run
        assert skipped == sim.executor.tasks_skipped


class TestExecutorFactory:
    def test_make_executor_conditional(self):
        model = transpile(compile_graph(COUNTER_V, "counter"))
        ex = make_executor(model, SimulatedDevice(), "graph-conditional")
        assert isinstance(ex, ConditionalGraphExecutor)

    def test_unknown_kind_rejected(self):
        model = transpile(compile_graph(COUNTER_V, "counter"))
        with pytest.raises(SimulationError):
            make_executor(model, SimulatedDevice(), "nope")
