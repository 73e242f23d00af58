"""Tests for the BatchSimulator public API (checkpointing, traces, flows)."""

import inspect
import pickle

import numpy as np
import pytest

from repro import RTLFlow
from repro.core.codegen import transpile
from repro.core.simulator import BatchSimulator
from repro.designs import get_design
from repro.partition.merge import partition
from repro.partition.weights import WeightVector
from repro.stimulus.generator import random_batch
from repro.utils.errors import SimulationError

from tests.conftest import COUNTER_V, MEMDUT_V, compile_graph


@pytest.fixture(scope="module")
def counter_model():
    return transpile(compile_graph(COUNTER_V, "counter"))


@pytest.fixture(scope="module")
def memdut_model():
    return transpile(compile_graph(MEMDUT_V, "memdut"))


class TestCheckpointing:
    def test_save_restore_roundtrip(self, counter_model):
        sim = BatchSimulator(counter_model, 8)
        stim = random_batch(counter_model.design, 8, 30, seed=1)
        for c in range(15):
            sim.cycle(stim.inputs_at(c))
        ckpt = sim.save_checkpoint()
        mid = sim.get("count").copy()
        for c in range(15, 30):
            sim.cycle(stim.inputs_at(c))
        final = sim.get("count").copy()

        # Restore and replay the second half: same result.
        sim.restore_checkpoint(ckpt)
        assert np.array_equal(sim.get("count"), mid)
        for c in range(15, 30):
            sim.cycle(stim.inputs_at(c))
        assert np.array_equal(sim.get("count"), final)

    def test_checkpoint_includes_memories(self, memdut_model):
        sim = BatchSimulator(memdut_model, 4)
        sim.cycle({"we": 1, "waddr": 2, "wdata": 0x5A, "raddr": 2})
        ckpt = sim.save_checkpoint()
        sim.cycle({"we": 1, "waddr": 2, "wdata": 0xFF, "raddr": 2})
        sim.restore_checkpoint(ckpt)
        sim.set_inputs({"we": 0, "raddr": 2})
        sim.evaluate()
        assert np.all(sim.get("rdata") == 0x5A)

    def test_checkpoint_is_picklable(self, counter_model):
        sim = BatchSimulator(counter_model, 4)
        sim.cycle({"rst": 1, "en": 0})
        blob = pickle.dumps(sim.save_checkpoint())
        sim2 = BatchSimulator(counter_model, 4)
        sim2.restore_checkpoint(pickle.loads(blob))
        sim2.cycle({"rst": 0, "en": 1})
        assert np.all(sim2.get("count") == 1)

    def test_batch_size_mismatch_rejected(self, counter_model):
        sim4 = BatchSimulator(counter_model, 4)
        sim8 = BatchSimulator(counter_model, 8)
        with pytest.raises(SimulationError):
            sim8.restore_checkpoint(sim4.save_checkpoint())


class TestTraces:
    def test_trace_every(self, counter_model):
        sim = BatchSimulator(counter_model, 4)
        stim = random_batch(
            counter_model.design, 4, 10, seed=0,
            overrides={"en": np.ones((10, 4), dtype=np.uint64)},
        )
        traces = sim.run(stim, trace_every=2, watch=["count"])
        assert traces["count"].shape == (5, 4)
        # Samples at cycles 2,4,6,8,10 (after reset at cycle 1): counts 1,3,5,7,9
        assert list(traces["count"][:, 0]) == [1, 3, 5, 7, 9]

    def test_run_final_values_default_outputs(self, counter_model):
        sim = BatchSimulator(counter_model, 2)
        stim = random_batch(counter_model.design, 2, 5, seed=0)
        outs = sim.run(stim)
        assert set(outs) == {"count"}

    def test_stopwatch_accumulates(self, counter_model):
        sim = BatchSimulator(counter_model, 2)
        stim = random_batch(counter_model.design, 2, 5, seed=0)
        sim.run(stim)
        assert sim.stopwatch.total("evaluate") > 0
        assert sim.stopwatch.counts["set_inputs"] == 5
        assert sim.cycles_run == 5


class TestFlowApi:
    def test_compile_is_cached(self):
        flow = RTLFlow.from_source(COUNTER_V, "counter")
        assert flow.compile() is flow.compile()
        assert flow.compile(target_weight=2.0) is not flow.compile()

    def test_from_files(self, tmp_path):
        p = tmp_path / "c.v"
        p.write_text(COUNTER_V)
        flow = RTLFlow.from_files([str(p)], "counter")
        assert flow.design.top == "counter"

    def test_defines_passed_through(self):
        src = "`ifdef WIDE\nmodule m(input wire [15:0] a);\n`else\n" \
              "module m(input wire [7:0] a);\n`endif\nendmodule"
        narrow = RTLFlow.from_source(src, "m")
        wide = RTLFlow.from_source(src, "m", defines={"WIDE": "1"})
        assert narrow.design.signals["a"].width == 8
        assert wide.design.signals["a"].width == 16

    def test_mcmc_weights_cached(self):
        flow = RTLFlow.from_source(COUNTER_V, "counter")
        flow.optimize_partition(n_stimulus=4, cycles=2, max_iter=2,
                                max_unimproved=1)
        w1 = flow.mcmc_weights()
        w2 = flow.mcmc_weights()
        assert w1 is w2

    def test_weights_and_use_mcmc_conflict(self):
        flow = RTLFlow.from_source(COUNTER_V, "counter")
        w = WeightVector.ones(flow.graph)
        with pytest.raises(ValueError):
            flow.taskgraph(weights=w, use_mcmc=True)

    def test_simulator_takes_no_partition_settings(self):
        params = list(inspect.signature(RTLFlow.simulator).parameters)
        assert params == ["self", "n", "executor", "device"]

    def test_default_compile_partitions_on_first_read(self):
        flow = RTLFlow.from_source(COUNTER_V, "counter")
        model = flow.compile()
        model.fused()
        assert model._taskgraph is None
        assert _tasks(model.taskgraph) == _tasks(partition(flow.graph))
        assert model.taskgraph is model.taskgraph

    def test_directed_stimulus(self):
        flow = RTLFlow.from_source(COUNTER_V, "counter")
        stim = flow.directed_stimulus(
            [{"en": [1, 1, 1]}, {"en": [0]}], n=4, cycles=12
        )
        assert stim.cycles == 12
        assert stim.n == 4


def _spinal_flow():
    b = get_design("spinal")
    return RTLFlow.from_source(b.source, b.top)


def _scaled(graph, s):
    w = WeightVector.ones(graph)
    w.values = {t: s for t in w.values}
    return w


def _tasks(tg):
    return [t.nodes for t in tg.tasks]


class TestCompileCache:
    """``RTLFlow.compile`` keys its models by weight values: keyed by
    ``id(weights)``, a freed vector's reused id returned a model
    partitioned for other weights, and ``use_mcmc`` returned the first
    tuning's model after a second one."""

    def test_fresh_weight_vectors_get_their_own_partition(self):
        flow = _spinal_flow()
        g = flow.graph
        for i in range(40):
            # Each vector is freed after its call, so ids get reused.
            got = flow.compile(weights=_scaled(g, 1.0 + i / 4)).taskgraph
            want = partition(g, weights=_scaled(g, 1.0 + i / 4))
            assert _tasks(got) == _tasks(want), i

    def test_use_mcmc_follows_the_latest_tuning(self, monkeypatch):
        from repro.partition import mcmc

        flow = _spinal_flow()
        g = flow.graph
        tuned = iter([_scaled(g, 1.0), _scaled(g, 8.0)])
        monkeypatch.setattr(
            mcmc.MCMCPartitioner, "optimize",
            lambda self: mcmc.MCMCResult(next(tuned), 1.0, 1.0))
        first = flow.optimize_partition().weights
        m1 = flow.compile(use_mcmc=True)
        second = flow.optimize_partition().weights
        m2 = flow.compile(use_mcmc=True)
        assert _tasks(partition(g, weights=first)) != _tasks(
            partition(g, weights=second))
        assert m2 is not m1
        assert _tasks(m2.taskgraph) == _tasks(partition(g, weights=second))


class TestStopCondition:
    """Listing 1 fidelity: `while (!sim.stop && c <= NUM_CYCLES)`."""

    @pytest.fixture(scope="class")
    def rv(self):
        from repro.designs import riscv_mini
        from tests.conftest import compile_graph

        graph = compile_graph(riscv_mini.generate(), "riscv_mini")
        return transpile(graph), riscv_mini

    def test_stop_all_ends_early(self, rv):
        model, riscv_mini = rv
        sim = BatchSimulator(model, 4)
        sim.load_memory("imem", riscv_mini.program_image("sum10"))
        sim.cycle({"rst": 1, "io_in": 0})
        sim.set_inputs({"rst": 0})
        outs = sim.run(cycles=100000, stop="halted", stop_check_every=8)
        assert sim.cycles_run < 200  # sum10 halts after ~35 cycles
        assert np.all(outs["a0_out"] == 55)

    def test_stop_any_vs_all(self, rv):
        model, riscv_mini = rv
        # countdown's runtime depends on io_in per lane: lane 0 halts fast.
        image = riscv_mini.program_image("countdown")

        def run(mode):
            sim = BatchSimulator(model, 2)
            sim.load_memory("imem", image)
            sim.cycle({"rst": 1, "io_in": 0})
            sim.set_inputs({
                "rst": 0,
                "io_in": np.array([1, 200], dtype=np.uint64),
            })
            sim.run(cycles=100000, stop="halted", stop_mode=mode,
                    stop_check_every=4)
            return sim.cycles_run

        assert run("any") < run("all")

    def test_bad_stop_mode(self, rv):
        model, _ = rv
        sim = BatchSimulator(model, 2)
        with pytest.raises(SimulationError):
            sim.run(cycles=10, stop="halted", stop_mode="most")

    @pytest.mark.parametrize("options", [
        {"trace_every": -1},
        {"stop": "halted", "stop_check_every": 0},
        {"stop_mode": "most"},
        {"start_cycle": -3},
        {"watch": ["a0_outt"]},
        {"stop": "haltd"},
    ])
    def test_bad_run_options_rejected_before_any_cycle(self, rv, options):
        model, _ = rv
        sim = BatchSimulator(model, 2)
        with pytest.raises(SimulationError) as err:
            sim.run(cycles=10, **options)
        assert sim.cycles_run == 0
        for unknown in ("a0_outt", "haltd"):  # the error names the signal
            assert unknown not in str(options) or repr(unknown) in str(err.value)
