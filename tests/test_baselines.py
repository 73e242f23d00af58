"""Tests for the Verilator-like and ESSENT-like CPU baselines."""

import numpy as np
import pytest

from repro.baselines.essent import EssentSim
from repro.baselines.reference import ReferenceSimulator
from repro.baselines.scalargen import generate_scalar_model
from repro.baselines.verilator import VerilatorSim
from repro.stimulus.generator import random_batch

from tests.conftest import ALU_V, COUNTER_V, HIER_V, MEMDUT_V, compile_graph
from tests.test_batch_differential import (
    BLOCKING_CHAIN_V,
    CASEZ_V,
    MULTIWRITE_MEM_V,
    NARROW_OPS_V,
    SELECTS_V,
    WIDE_OPS_V,
)


def _diff_vs_reference(engine_factory, source, top, n=6, cycles=25, seed=3,
                       watch=None):
    graph = compile_graph(source, top)
    if watch is None:
        watch = [s.name for s in graph.design.outputs]
    stim = random_batch(graph.design, n, cycles, seed=seed)
    for lane in range(n):
        ref = ReferenceSimulator(graph)
        dut = engine_factory(graph)
        for step in stim.lane(lane):
            ref.cycle(step)
            dut.cycle(step)
            for w in watch:
                assert dut.get(w) == ref.get(w), (
                    f"{w} mismatch on lane {lane}: {dut.get(w):#x} vs "
                    f"{ref.get(w):#x}"
                )


def _verilator(graph):
    return VerilatorSim(generate_scalar_model(graph))


def _essent(graph):
    return EssentSim(graph)


DESIGNS = [
    (COUNTER_V, "counter"),
    (ALU_V, "alu"),
    (MEMDUT_V, "memdut"),
    (HIER_V, "adder4"),
    (WIDE_OPS_V, "wideops"),
    (NARROW_OPS_V, "narrowops"),
    (SELECTS_V, "selects"),
    (CASEZ_V, "przenc"),
    (BLOCKING_CHAIN_V, "blkchain"),
    (MULTIWRITE_MEM_V, "mw"),
]


class TestVerilatorLike:
    @pytest.mark.parametrize("source,top", DESIGNS, ids=[t for _, t in DESIGNS])
    def test_matches_reference(self, source, top):
        _diff_vs_reference(_verilator, source, top)

    def test_generated_source_is_straightline(self):
        graph = compile_graph(ALU_V, "alu")
        spec = generate_scalar_model(graph)
        assert "def comb_all(S, M):" in spec.source
        # No control flow in the emitted statements: straight-line code.
        for line in spec.source.splitlines():
            stripped = line.strip()
            assert not stripped.startswith(("for ", "while "))

    def test_memory_preload(self):
        graph = compile_graph(MEMDUT_V, "memdut")
        sim = _verilator(graph)
        sim.load_memory("mem", [5, 6, 7])
        sim.cycle({"we": 0, "waddr": 0, "wdata": 0, "raddr": 2})
        assert sim.get("rdata") == 7

    def test_run_traces(self):
        graph = compile_graph(COUNTER_V, "counter")
        sim = _verilator(graph)
        stim = [{"rst": 1, "en": 0}] + [{"rst": 0, "en": 1}] * 3
        traces = sim.run(stim)
        assert traces["count"] == [0, 1, 2, 3]


class TestEssentLike:
    @pytest.mark.parametrize("source,top", DESIGNS, ids=[t for _, t in DESIGNS])
    def test_matches_reference(self, source, top):
        _diff_vs_reference(_essent, source, top)

    def test_low_activity_skips_work(self):
        graph = compile_graph(COUNTER_V, "counter")
        sim = EssentSim(graph)
        sim.cycle({"rst": 1, "en": 0})
        evaluated_after_reset = sim.nodes_evaluated
        # Holding inputs constant with en=0: nothing changes, so almost no
        # node re-evaluates.
        for _ in range(50):
            sim.cycle({"rst": 0, "en": 0})
        extra = sim.nodes_evaluated - evaluated_after_reset
        assert extra < 20  # a full-cycle engine would do 50 * nodes

    def test_high_activity_evaluates(self):
        graph = compile_graph(COUNTER_V, "counter")
        sim = EssentSim(graph)
        sim.cycle({"rst": 1, "en": 0})
        base = sim.nodes_evaluated
        for _ in range(10):
            sim.cycle({"rst": 0, "en": 1})
        assert sim.nodes_evaluated - base >= 10  # the counter updates each cycle

    def test_activity_factor_reported(self):
        graph = compile_graph(COUNTER_V, "counter")
        sim = EssentSim(graph)
        for _ in range(5):
            sim.cycle({"rst": 0, "en": 0})
        assert 0.0 <= sim.activity_factor <= 1.0


class TestBatchRunners:
    """The scalar baseline, one lane at a time, against the batch engine."""

    def test_runners_agree_with_batch_simulator(self):
        from repro.core.codegen import transpile
        from repro.core.simulator import BatchSimulator

        graph = compile_graph(MEMDUT_V, "memdut")
        stim = random_batch(graph.design, 10, 25, seed=11)
        spec = generate_scalar_model(graph)
        vl = []
        for lane in range(stim.n):
            scalar = VerilatorSim(spec)
            for step in stim.lane(lane):
                scalar.cycle(step)
            vl.append(scalar.get("rdata"))
        sim = BatchSimulator(transpile(graph), stim.n)
        batch = sim.run(stim)
        assert np.array_equal(np.array(vl, dtype=np.uint64), batch["rdata"])
