"""Tests for the unified telemetry subsystem (repro.obs) and the
runtime correctness fixes that shipped with it."""

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.codegen import transpile
from repro.core.simulator import BatchSimulator
from repro.obs import MetricsRegistry, Tracer, capture, kernel_time_summary
from repro.obs.trace import _NULL_SPAN
from repro.stimulus.generator import random_batch
from repro.utils.errors import SimulationError

from tests.conftest import COUNTER_V, MEMDUT_V, compile_graph


@pytest.fixture(scope="module")
def counter_model():
    return transpile(compile_graph(COUNTER_V, "counter"))


@pytest.fixture(scope="module")
def memdut_model():
    return transpile(compile_graph(MEMDUT_V, "memdut"))


class TestTracerSpans:
    def test_nesting_depth(self):
        t = Tracer()
        with t.span("outer", resource="CPU"):
            with t.span("inner", resource="CPU"):
                pass
        spans = {s.name: s for s in t.spans}
        assert spans["outer"].depth == 0
        assert spans["inner"].depth == 1
        assert spans["inner"].start >= spans["outer"].start
        assert spans["inner"].end <= spans["outer"].end

    def test_aggregation(self):
        t = Tracer()
        t.record("k", 0.0, 0.5, resource="GPU")
        t.record("k", 1.0, 1.25, resource="GPU")
        t.add("host", 0.1)
        agg = t.aggregate()
        assert agg["k"].count == 2
        assert agg["k"].total == pytest.approx(0.75)
        assert agg["k"].min == pytest.approx(0.25)
        assert agg["k"].max == pytest.approx(0.5)
        assert t.total("host") == pytest.approx(0.1)
        assert t.count("nope") == 0
        assert t.aggregate(prefix="k")  # filter keeps "k"
        assert "host" not in t.aggregate(prefix="k")

    def test_busy_by_resource_counts_top_level_only(self):
        t = Tracer()
        t.record("launch", 0.0, 1.0, resource="GPU", depth=0)
        t.record("kernel", 0.1, 0.9, resource="GPU", depth=1)
        t.record("setup", 0.0, 0.5, resource="CPU", depth=0)
        busy = t.busy_by_resource()
        assert busy["GPU"] == pytest.approx(1.0)  # nested span not doubled
        assert busy["CPU"] == pytest.approx(0.5)
        assert t.window() == pytest.approx(1.0)

    def test_thread_safety_and_thread_ids(self):
        t = Tracer()

        barrier = threading.Barrier(4)

        def work():
            barrier.wait()  # all threads alive at once -> distinct idents
            for _ in range(50):
                with t.span("w", resource="CPU"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert t.count("w") == 200
        assert len({s.thread for s in t.spans}) == 4

    def test_max_spans_cap(self):
        t = Tracer(max_spans=3)
        for i in range(5):
            t.record("s", i, i + 0.5)
        assert len(t.spans) == 3
        assert t.dropped_spans == 2
        assert t.count("s") == 5  # aggregates keep counting

    def test_keep_spans_false_aggregates_only(self):
        t = Tracer(keep_spans=False)
        with t.span("x"):
            pass
        assert t.spans == []
        assert t.count("x") == 1

    def test_reset(self):
        t = Tracer()
        t.record("a", 0.0, 1.0)
        t.reset()
        assert t.spans == [] and t.totals == {}


class TestDisabledTracer:
    def test_span_returns_shared_null_singleton(self):
        t = Tracer(enabled=False)
        assert t.span("a") is _NULL_SPAN
        assert t.span("b", resource="GPU") is _NULL_SPAN
        with t.span("a"):
            pass  # usable as a context manager

    def test_everything_is_a_noop(self):
        t = Tracer(enabled=False)
        t.record("a", 0.0, 1.0)
        t.add("b", 2.0)
        with t.span("c"):
            pass
        assert t.spans == []
        assert t.totals == {}
        assert t.to_chrome_trace()["traceEvents"] == []


class TestChromeTraceExport:
    def test_schema(self, tmp_path):
        t = Tracer()
        with t.span("outer", resource="CPU0"):
            with t.span("inner", resource="CPU0"):
                pass
        t.record("kernel", 0.0, 0.001, resource="GPU")
        path = str(tmp_path / "out.trace.json")
        t.write_chrome_trace(path)
        doc = json.load(open(path))
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        xs = [e for e in events if e["ph"] == "X"]
        assert {m["args"]["name"] for m in meta} == {"CPU0", "GPU"}
        assert len(xs) == 3
        for e in xs:
            assert set(e) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert isinstance(e["ts"], float) and e["dur"] >= 0
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        # one pid per resource, consistent with the metadata events
        pid_of = {m["args"]["name"]: m["pid"] for m in meta}
        gpu_events = [e for e in xs if e["cat"] == "GPU"]
        assert all(e["pid"] == pid_of["GPU"] for e in gpu_events)

    def test_render_ascii(self):
        t = Tracer()
        t.record("a", 0.0, 0.5, resource="GPU")
        t.record("b", 0.5, 1.0, resource="CPU")
        art = t.render_ascii(width=40)
        assert "GPU" in art and "CPU" in art and "#" in art
        assert Tracer().render_ascii() == "(empty timeline)"


class TestMetrics:
    def test_counter_gauge_histogram(self):
        r = MetricsRegistry()
        r.inc("launches")
        r.inc("launches", 2)
        r.set_gauge("bytes", 1024)
        r.gauge("bytes").add(1)
        for v in range(1, 101):
            r.observe("lat", v)
        assert r.counter("launches").value == 3
        assert r.gauge("bytes").value == 1025
        h = r.histogram("lat")
        assert h.count == 100 and h.mean == pytest.approx(50.5)
        assert h.percentile(50) == pytest.approx(50.5)
        with pytest.raises(ValueError):
            r.counter("launches").inc(-1)

    def test_snapshot_roundtrip(self, tmp_path):
        r = MetricsRegistry()
        r.inc("c", 7)
        r.set_gauge("g", 1.5)
        r.observe("h", 3.0)
        path = str(tmp_path / "m.json")
        r.write_json(path, extra={"kernels": {"task_0": {"total_seconds": 1}}})
        doc = json.load(open(path))
        assert doc["counters"]["c"]["value"] == 7
        assert doc["gauges"]["g"]["value"] == 1.5
        assert doc["histograms"]["h"]["count"] == 1
        assert doc["histograms"]["h"]["p50"] == 3.0
        assert doc["kernels"]["task_0"]["total_seconds"] == 1
        # snapshot itself must be plain-JSON serializable
        json.dumps(r.snapshot())

    def test_disabled_registry_noop(self):
        r = MetricsRegistry(enabled=False)
        r.inc("c")
        r.set_gauge("g", 1)
        r.observe("h", 1)
        snap = r.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_histogram_reservoir_bounded(self):
        r = MetricsRegistry()
        h = r.histogram("x", max_samples=10)
        for v in range(100):
            h.observe(v)
        assert len(h.samples) == 10
        assert h.count == 100 and h.max == 99


class TestGlobalDefaults:
    def test_defaults_start_disabled(self):
        assert not obs.get_tracer().enabled
        assert not obs.get_metrics().enabled

    def test_capture_swaps_and_restores(self):
        before_t, before_m = obs.get_tracer(), obs.get_metrics()
        with capture() as (tracer, metrics):
            assert obs.get_tracer() is tracer and tracer.enabled
            assert obs.get_metrics() is metrics and metrics.enabled
        assert obs.get_tracer() is before_t
        assert obs.get_metrics() is before_m

    def test_capture_restores_on_error(self):
        before = obs.get_tracer()
        with pytest.raises(RuntimeError):
            with capture():
                raise RuntimeError("boom")
        assert obs.get_tracer() is before

    def test_kernel_time_summary(self):
        t = Tracer()
        t.record("task_0", 0.0, 0.5, resource="GPU")
        t.record("task_0", 1.0, 1.5, resource="GPU")
        t.record("other", 0.0, 1.0)
        summary = kernel_time_summary(t)
        assert list(summary) == ["task_0"]
        assert summary["task_0"]["count"] == 2
        assert summary["task_0"]["total_seconds"] == pytest.approx(1.0)


class TestSimulatorInstrumentation:
    def test_spans_and_metrics_recorded(self, counter_model):
        with capture() as (tracer, metrics):
            sim = BatchSimulator(counter_model, 4, executor="graph")
            stim = random_batch(counter_model.design, 4, 5, seed=0)
            sim.run(stim)
        assert tracer.count("set_inputs") == 5
        assert tracer.count("evaluate") == 5
        # per-task kernel spans show up via the device
        assert kernel_time_summary(tracer)
        snap = metrics.snapshot()
        assert snap["counters"]["sim.cycles"]["value"] == 5
        assert snap["gauges"]["sim.batch_n"]["value"] == 4
        assert snap["gauges"]["mem.footprint_bytes"]["value"] > 0
        assert any(k.startswith("mem.pool") and k.endswith(".bytes")
                   for k in snap["gauges"])
        assert any(k.endswith(".commit_bytes") for k in snap["counters"])

    def test_device_publish_metrics(self, counter_model):
        with capture() as (tracer, metrics):
            sim = BatchSimulator(counter_model, 2)
            sim.cycle({"rst": 1, "en": 0})
            sim.device.publish_metrics(metrics)
        snap = metrics.snapshot()
        assert snap["gauges"]["device.graph_launches"]["value"] > 0
        assert snap["gauges"]["device.busy_seconds"]["value"] > 0

    def test_disabled_by_default_records_nothing(self, counter_model):
        sim = BatchSimulator(counter_model, 2)
        sim.cycle({"rst": 1, "en": 0})
        assert sim.tracer.spans == []
        assert sim.metrics.snapshot()["counters"] == {}
        # the Fig. 2 stopwatch split still aggregates regardless
        assert sim.stopwatch.count("evaluate") == 1


class TestPipelineInstrumentation:
    def test_pipeline_publishes_stage_metrics(self, counter_model):
        from repro.pipeline.scheduler import PipelineSimulator

        with capture() as (_tracer, metrics):
            pipe = PipelineSimulator(counter_model, 8, groups=2)
            stim = random_batch(counter_model.design, 8, 6, seed=0)
            pipe.run(stim)
        snap = metrics.snapshot()
        assert snap["gauges"]["pipeline.groups"]["value"] == 2
        assert snap["gauges"]["pipeline.cycles"]["value"] == 6
        assert "pipeline.overlap_ratio" in snap["gauges"]
        assert snap["gauges"]["pipeline.overlap_ratio"]["value"] >= 0.0


class TestRuntimeFixes:
    def test_empty_trace_keeps_integer_dtype(self, counter_model):
        sim = BatchSimulator(counter_model, 4)
        stim = random_batch(counter_model.design, 4, 3, seed=0)
        out = sim.run(stim, trace_every=10)  # no sample point reached
        for name, arr in out.items():
            assert arr.shape == (0, 4)
            assert arr.dtype == sim.get(name).dtype  # not float64
            assert arr.dtype.kind == "u"

    def test_nonempty_trace_dtype_matches_signal(self, counter_model):
        sim = BatchSimulator(counter_model, 4)
        stim = random_batch(counter_model.design, 4, 4, seed=0)
        out = sim.run(stim, trace_every=2)
        for name, arr in out.items():
            assert arr.dtype == sim.get(name).dtype and arr.shape[0] == 2

    def test_checkpoint_cross_design_rejected(self, counter_model,
                                              memdut_model):
        a = BatchSimulator(counter_model, 4)
        b = BatchSimulator(memdut_model, 4)  # same n, different layout
        with pytest.raises(SimulationError, match="memory layout"):
            b.restore_checkpoint(a.save_checkpoint())

    def test_checkpoint_same_design_roundtrip(self, counter_model):
        sim = BatchSimulator(counter_model, 4)
        stim = random_batch(counter_model.design, 4, 10, seed=2)
        sim.run(stim)
        ckpt = sim.save_checkpoint()
        assert ckpt["layout"]["signature"]
        sim2 = BatchSimulator(counter_model, 4)
        sim2.restore_checkpoint(ckpt)
        assert np.array_equal(sim2.get("count"), sim.get("count"))

    def test_legacy_checkpoint_without_layout_accepted(self, counter_model):
        sim = BatchSimulator(counter_model, 4)
        ckpt = sim.save_checkpoint()
        del ckpt["layout"]  # pre-signature checkpoints restore fine
        BatchSimulator(counter_model, 4).restore_checkpoint(ckpt)

    def test_nonuniform_clock_rejected(self, counter_model):
        sim = BatchSimulator(counter_model, 4)
        sim.cycle({"rst": 1, "en": 0})
        sim.arrays.write(sim.clock, np.array([0, 1, 0, 1], dtype=np.uint64))
        with pytest.raises(SimulationError, match="batch-uniform"):
            sim.evaluate()

    def test_run_matches_manual_cycles(self, counter_model):
        stim = random_batch(counter_model.design, 4, 12, seed=3)
        a = BatchSimulator(counter_model, 4)
        got = a.run(stim)
        b = BatchSimulator(counter_model, 4)
        for c in range(len(stim)):
            b.cycle(stim.inputs_at(c))
        assert np.array_equal(got["count"], b.get("count"))
        assert a.cycles_run == b.cycles_run == 12
