"""Tests for the simulated device, executors and timeline tracing."""

import numpy as np
import pytest

from repro.core.codegen import transpile
from repro.core.memory import DeviceArrays
from repro.core.simulator import BatchSimulator, make_executor
from repro.gpu.device import SimulatedDevice
from repro.gpu.graphexec import CudaGraphExecutor, FusedProgramExecutor
from repro.gpu.stream import StreamExecutor
from repro.gpu.timeline import Tracer, TimelineSpan, render_timeline
from repro.utils.errors import SimulationError

from tests.conftest import ALU_V, COUNTER_V, HIER_V, compile_graph


@pytest.fixture(scope="module")
def adder_model():
    return transpile(compile_graph(HIER_V, "adder4"), target_weight=4.0)


def _boom(*_args):
    raise RuntimeError("boom")


class TestDeviceAccounting:
    def test_stream_pays_per_kernel_launch(self, adder_model):
        device = SimulatedDevice()
        ex = StreamExecutor(adder_model, device)
        arrays = DeviceArrays(adder_model.layout, 8)
        ex.run_comb(arrays)
        assert device.stats.kernel_launches == adder_model.taskgraph.n_comb_tasks
        assert device.stats.event_ops > 0
        assert device.stats.sync_calls == 1

    def test_graph_pays_single_launch(self, adder_model):
        device = SimulatedDevice()
        ex = CudaGraphExecutor(adder_model, device)
        arrays = DeviceArrays(adder_model.layout, 8)
        ex.run_comb(arrays)
        assert device.stats.graph_launches == 1
        assert device.stats.kernel_launches == 0
        assert device.stats.event_ops == 0

    def test_overhead_accumulates_across_cycles(self, adder_model):
        dev_s = SimulatedDevice()
        dev_g = SimulatedDevice()
        arrays = DeviceArrays(adder_model.layout, 8)
        stream = StreamExecutor(adder_model, dev_s)
        graph = CudaGraphExecutor(adder_model, dev_g)
        for _ in range(10):
            stream.run_comb(arrays)
            graph.run_comb(arrays)
        # The modeled CUDA-call overhead must be strictly larger for the
        # stream executor (Table 4's effect).
        assert dev_s.stats.overhead_seconds > dev_g.stats.overhead_seconds

    def test_busy_time_grows_with_work(self, adder_model):
        device = SimulatedDevice()
        ex = CudaGraphExecutor(adder_model, device)
        arrays = DeviceArrays(adder_model.layout, 8)
        ex.run_comb(arrays)
        one = device.stats.busy_seconds
        for _ in range(9):
            ex.run_comb(arrays)
        assert device.stats.busy_seconds > one

    def test_utilization_bounds(self):
        device = SimulatedDevice()
        assert device.utilization(0.0) == 0.0
        device.stats.busy_seconds = 5.0
        assert device.utilization(2.0) == 1.0
        assert device.utilization(10.0) == 0.5

    def test_launch_rolls_back_stats_on_kernel_failure(self):
        device = SimulatedDevice()
        device.launch(lambda: None, ())
        before = device.stats.clone()
        with pytest.raises(RuntimeError, match="boom"):
            device.launch(_boom, ())
        # A failed launch never happened as far as accounting goes.
        assert device.stats == before
        device.launch(lambda: None, ())  # retry counts exactly once
        assert device.stats.kernel_launches == before.kernel_launches + 1

    def test_launch_graph_rolls_back_partial_accounting(self):
        device = SimulatedDevice()
        ran = []
        kernels = [lambda: ran.append("a"), _boom, lambda: ran.append("c")]
        before = device.stats.clone()
        with pytest.raises(RuntimeError, match="boom"):
            device.launch_graph(kernels, ())
        # The first kernel ran, but neither its busy time nor the graph
        # launch count may survive the failure.
        assert ran == ["a"]
        assert device.stats == before
        device.launch_graph([lambda: None], ())
        assert device.stats.graph_launches == before.graph_launches + 1

    def test_gpu_device_alias(self):
        from repro.gpu.device import GpuDevice

        assert GpuDevice is SimulatedDevice


class TestExecutorFactory:
    def test_kinds(self, adder_model):
        device = SimulatedDevice()
        assert isinstance(make_executor(adder_model, device, "graph"), CudaGraphExecutor)
        assert isinstance(make_executor(adder_model, device, "stream"), StreamExecutor)
        fused = make_executor(adder_model, device, "graph-fused")
        assert isinstance(fused, FusedProgramExecutor)
        assert fused.layout is adder_model.layout

    def test_unknown_kind(self, adder_model):
        with pytest.raises(SimulationError):
            make_executor(adder_model, SimulatedDevice(), "nope")


class TestFusedExecution:
    def test_fused_matches_unfused(self):
        g = compile_graph(ALU_V, "alu")
        model = transpile(g, target_weight=2.0)
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, 16, dtype=np.uint64)
        b = rng.integers(0, 256, 16, dtype=np.uint64)
        op = rng.integers(0, 8, 16, dtype=np.uint64)
        outs = {}
        for kind in ("graph", "graph-fused", "stream"):
            sim = BatchSimulator(model, 16, executor=kind)
            sim.set_inputs({"a": a, "b": b, "op": op})
            sim.evaluate()
            outs[kind] = sim.get("y").copy()
        assert np.array_equal(outs["graph"], outs["graph-fused"])
        assert np.array_equal(outs["graph"], outs["stream"])


class TestTimeline:
    def test_tracer_records_spans(self):
        tracer = Tracer(enabled=True)
        with tracer.span("work", resource="CPU0"):
            pass
        assert len(tracer.spans) == 1
        assert tracer.spans[0].resource == "CPU0"
        assert tracer.spans[0].name == "work"

    def test_disabled_tracer_skips(self):
        tracer = Tracer(enabled=False)
        with tracer.span("work", resource="CPU0"):
            pass
        assert tracer.spans == []

    def test_busy_by_resource(self):
        tracer = Tracer(enabled=True)
        tracer.record("k", 0.0, 0.5, resource="GPU")
        tracer.record("k", 1.0, 1.25, resource="GPU")
        tracer.record("s", 0.0, 0.1, resource="CPU")
        busy = tracer.busy_by_resource()
        assert busy["GPU"] == pytest.approx(0.75)
        assert busy["CPU"] == pytest.approx(0.1)

    def test_render_timeline(self):
        spans = [
            TimelineSpan("CPU", "a", 0.0, 0.4),
            TimelineSpan("GPU", "b", 0.4, 1.0),
        ]
        art = render_timeline(spans, width=40)
        lines = art.splitlines()
        assert lines[0].startswith("CPU")
        assert lines[1].startswith("GPU")
        assert "#" in lines[0] and "#" in lines[1]

    def test_render_empty(self):
        assert "empty" in render_timeline([])

    def test_device_traces_when_enabled(self, adder_model):
        tracer = Tracer(enabled=True)
        device = SimulatedDevice(tracer=tracer)
        ex = CudaGraphExecutor(adder_model, device)
        arrays = DeviceArrays(adder_model.layout, 4)
        ex.run_comb(arrays)
        assert any(s.name == "cudaGraphLaunch" for s in tracer.spans)
