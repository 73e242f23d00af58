"""Tests for the pipeline schedule model (§3.2.3): ``run_virtual``."""

import numpy as np
import pytest

from repro import RTLFlow
from repro.core.codegen import transpile
from repro.core.simulator import BatchSimulator
from repro.designs import get_design
from repro.pipeline.scheduler import PipelineSimulator
from repro.stimulus.batch import TextStimulusBatch
from repro.stimulus.generator import random_batch
from repro.utils.errors import SimulationError

from tests.conftest import COUNTER_V, MEMDUT_V, compile_graph


@pytest.fixture(scope="module")
def counter_model():
    return transpile(compile_graph(COUNTER_V, "counter"))


@pytest.fixture(scope="module")
def memdut_model():
    return transpile(compile_graph(MEMDUT_V, "memdut"))


@pytest.fixture(scope="module")
def riscv_mini():
    bundle = get_design("riscv_mini")
    return bundle, RTLFlow.from_source(bundle.source, bundle.top).compile()


def _counter_stim(design, n, cycles, seed):
    return random_batch(design, n, cycles, seed=seed)


def _design_case(request, design, n, cycles):
    """(model, dense stimulus, memory preload) for one design."""
    if design == "riscv_mini":
        bundle, model = request.getfixturevalue("riscv_mini")
        return model, bundle.make_stimulus(n, cycles, 3), bundle.preload
    model = request.getfixturevalue(f"{design}_model")
    return model, random_batch(model.design, n, cycles, seed=5), None


def _check_matches_monolithic(request, design, text, groups):
    """``run_virtual`` on ``groups`` groups equals one BatchSimulator."""
    n, cycles = 16, 40
    model, stim, preload = _design_case(request, design, n, cycles)
    mono = BatchSimulator(model, n)
    pipe = PipelineSimulator(model, n, groups=groups, cpu_workers=2)
    if preload is not None:
        preload(mono)
        preload(pipe)
    expect = mono.run(stim)
    got = pipe.run_virtual(
        TextStimulusBatch(stim.to_texts()) if text else stim)
    assert got.keys() == expect.keys()
    for name in expect:
        assert np.array_equal(expect[name], got[name]), name


class TestCorrectness:
    @pytest.mark.parametrize("text", [False, True])
    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_matches_monolithic_batch(self, request, text, groups):
        _check_matches_monolithic(request, "counter", text, groups)

    @pytest.mark.parametrize("design", ["memdut", "riscv_mini"])
    @pytest.mark.parametrize("text", [False, True], ids=["dense", "text"])
    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_design_matches_monolithic_batch(self, request, design, text,
                                             groups):
        _check_matches_monolithic(request, design, text, groups)

    def test_text_stimulus_source(self, counter_model):
        n, cycles = 8, 15
        stim = _counter_stim(counter_model.design, n, cycles, seed=6)
        texts = stim.to_texts()
        tstim = TextStimulusBatch(texts)
        mono = BatchSimulator(counter_model, n)
        expect = mono.run(stim)["count"]
        pipe = PipelineSimulator(counter_model, n, groups=4, cpu_workers=2)
        got = pipe.run_virtual(tstim)["count"]
        assert np.array_equal(expect, got)

    def test_memory_design_with_pipeline(self, memdut_model):
        n, cycles = 8, 20
        stim = random_batch(memdut_model.design, n, cycles, seed=7)
        mono = BatchSimulator(memdut_model, n)
        expect = mono.run(stim)["rdata"]
        pipe = PipelineSimulator(memdut_model, n, groups=2)
        got = pipe.run_virtual(stim)["rdata"]
        assert np.array_equal(expect, got)

    def test_load_memory_broadcast_and_lane(self, memdut_model):
        pipe = PipelineSimulator(memdut_model, 8, groups=2)
        pipe.load_memory("mem", [9] * 16)
        pipe.load_memory("mem", [1] * 16, lane=5)
        assert pipe.read_memory("mem", 0)[0] == 9
        assert pipe.read_memory("mem", 5)[0] == 1


class TestValidation:
    def test_groups_must_divide_n(self, counter_model):
        with pytest.raises(SimulationError):
            PipelineSimulator(counter_model, 10, groups=3)

    def test_report_fields(self, counter_model):
        n = 8
        stim = _counter_stim(counter_model.design, n, 10, seed=8)
        pipe = PipelineSimulator(counter_model, n, groups=2)
        pipe.run_virtual(stim)
        r = pipe.report
        assert r.cycles == 10
        assert r.groups == 2
        assert r.cpu_stage_seconds.shape == r.gpu_stage_seconds.shape == (2, 10)
        assert r.set_inputs_seconds == pytest.approx(r.cpu_stage_seconds.sum())
        assert r.evaluate_seconds == pytest.approx(r.gpu_stage_seconds.sum())
        assert r.set_inputs_seconds >= 0.0
        assert r.evaluate_seconds > 0.0
        assert 0.0 < r.pipelined_makespan <= r.sequential_makespan
        for u in (r.pipelined_utilization, r.sequential_utilization):
            assert 0.0 <= u <= 1.0


class TestOverlap:
    def test_pipeline_improves_utilization_on_input_bound_workload(
        self, counter_model
    ):
        """With expensive text decode, the pipelined schedule of the
        measured stages keeps the GPU at least as busy as the per-cycle
        barrier — the Fig. 15 property at laptop scale."""
        n, cycles = 32, 40
        stim = _counter_stim(counter_model.design, n, cycles, seed=9)
        tstim = TextStimulusBatch(stim.to_texts())
        pipe = PipelineSimulator(counter_model, n, groups=4, cpu_workers=4)
        pipe.run_virtual(tstim)
        r = pipe.report
        assert r.pipelined_makespan <= r.sequential_makespan
        assert r.pipelined_utilization >= r.sequential_utilization


class TestErrorPropagation:
    """A failing stimulus decode ends the measured run at that cycle."""

    class _FailingStim:
        """Raises for group 0 after a few cycles; counts sibling progress."""

        def __init__(self, inner, fail_cycle):
            self.inner = inner
            self.fail_cycle = fail_cycle
            self.calls = []

        def __len__(self):
            return len(self.inner)

        def inputs_at_range(self, cycle, lo, hi):
            self.calls.append((cycle, lo))
            if lo == 0 and cycle >= self.fail_cycle:
                raise RuntimeError("corrupt stimulus chunk")
            return self.inner.inputs_at_range(cycle, lo, hi)

    def test_error_propagates_and_stops_siblings(self, counter_model):
        n, cycles, groups = 16, 400, 4
        stim = _counter_stim(counter_model.design, n, cycles, seed=11)
        failing = self._FailingStim(stim, fail_cycle=3)
        pipe = PipelineSimulator(counter_model, n, groups=groups, cpu_workers=2)
        with pytest.raises(RuntimeError, match="corrupt stimulus chunk"):
            pipe.run_virtual(failing, cycles=cycles)
        # Group 0 is decoded first in every cycle, so no sibling decodes
        # anything of the failing cycle or after it.
        assert len(failing.calls) == groups * 3 + 1
