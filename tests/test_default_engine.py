"""One product engine, one protocol, one deterministic lowering.

* every entry point defaults to ``DEFAULT_EXECUTOR == "graph-fused"``;
* a default simulator never builds the per-task module, the task-
  replaying executors build it exactly once;
* a quarantined batch stays on the fused engine's single-launch
  ``run_eval`` and its survivors match ``graph`` and the reference;
* the deleted kinds/aliases are rejected by name, and the removed
  lowering selector is an error on the CLI, the spec and the wire;
* elaboration, partition and generated source do not depend on the
  interpreter's hash seed;
* the default path and a campaign worker never partition: only a
  task-replaying executor makes the task graph, on first use.
"""

import http.client
import inspect
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import benchmarks.common as bench_common
from repro import RTLFlow
from repro.cli import build_parser, main
from repro.cluster import CampaignSpec
from repro.core import codegen
from repro.core.codegen import transpile
from repro.core.simulator import (
    DEFAULT_EXECUTOR,
    EXECUTOR_KINDS,
    BatchSimulator,
    make_executor,
)
from repro.gpu import Executor, SimulatedDevice
from repro.pipeline.scheduler import PipelineSimulator
from repro.resilience import FaultPlan, LaneFaultSpec
from repro.serve import (
    BackgroundService,
    CampaignService,
    ServiceClient,
    ServiceError,
    spec_from_dict,
)
from repro.utils.errors import ClusterError, SimulationError

from tests.conftest import COUNTER_V, compile_graph
from tests.helpers import reference_traces
from tests.test_resilience import counter_stim


def _signature_default(fn, name):
    return inspect.signature(fn).parameters[name].default


def _cli_executor_defaults():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return {
        name: action.default
        for name, parser in sub.choices.items()
        for action in parser._actions
        if action.dest == "executor"
    }


ENTRY_POINT_DEFAULTS = {
    "make_executor": lambda: _signature_default(make_executor, "kind"),
    "BatchSimulator": lambda: _signature_default(BatchSimulator, "executor"),
    "RTLFlow.simulator": lambda: _signature_default(
        RTLFlow.simulator, "executor"),
    "PipelineSimulator": lambda: _signature_default(
        PipelineSimulator, "executor"),
    "CampaignSpec": lambda: CampaignSpec(n=1, cycles=1).executor,
    "benchmarks.make_batch_sim": lambda: _signature_default(
        bench_common.make_batch_sim, "executor"),
    "benchmarks.time_rtlflow": lambda: _signature_default(
        bench_common.time_rtlflow, "executor"),
    "benchmarks.time_rtlflow_projected": lambda: _signature_default(
        bench_common.time_rtlflow_projected, "executor"),
}


class TestOneDefault:
    def test_the_constant(self):
        assert DEFAULT_EXECUTOR == "graph-fused"
        assert EXECUTOR_KINDS == ("graph-fused", "graph", "stream", "sanitize")

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINT_DEFAULTS))
    def test_entry_point_default(self, entry):
        assert ENTRY_POINT_DEFAULTS[entry]() == DEFAULT_EXECUTOR

    def test_every_cli_subcommand_default(self):
        defaults = _cli_executor_defaults()
        assert set(defaults) == {
            "simulate", "profile", "run", "campaign", "submit",
        }
        assert set(defaults.values()) == {DEFAULT_EXECUTOR}


# A top name no other test uses, so its code-cache entries are this
# test's alone.
LAZYPROBE_V = COUNTER_V.replace("module counter", "module lazyprobe")


def _cache_keys(top):
    return [k for k in codegen._CODE_CACHE if k.startswith(f"<rtlflow:{top}:")]


class TestPerTaskModuleIsLazy:
    def test_default_run_never_builds_it_graph_builds_it_once(
            self, monkeypatch):
        builds = []
        real = codegen.KernelCodegen.compile_tasks

        def counting(self):
            builds.append(self.graph.design.top)
            return real(self)

        monkeypatch.setattr(codegen.KernelCodegen, "compile_tasks", counting)
        flow = RTLFlow.from_source(LAZYPROBE_V, "lazyprobe")
        stim = counter_stim(8, 12, seed=1)

        fused_out = flow.simulator(8).run(stim)
        model = flow.compile()
        assert not model.tasks_built and builds == []
        keys = _cache_keys("lazyprobe")
        assert keys and all(k.startswith("<rtlflow:lazyprobe:fused:")
                            for k in keys)

        graph_out = flow.simulator(8, executor="graph").run(stim)
        flow.simulator(8, executor="stream")
        assert model.tasks_built and builds == ["lazyprobe"]
        untagged = [k for k in _cache_keys("lazyprobe") if ":fused:" not in k]
        assert len(untagged) == 1
        assert np.array_equal(fused_out["count"], graph_out["count"])

    def test_explicit_transpile_is_eager(self):
        model = transpile(compile_graph(COUNTER_V, "counter"))
        assert model.tasks_built and "def task_0" in model.source


class TestGeneratedSourceRegistration:
    """``linecache`` holds a generated source exactly as long as the code
    cache holds its code object."""

    SRC = "def boom(x):\n    return 1 // x  # generated line\n"

    def test_registered_on_a_miss_only(self):
        import linecache

        code = codegen.compile_source(self.SRC, "lcprobe_miss")
        name = code.co_filename
        assert linecache.cache[name][2] == self.SRC.splitlines(True)
        # A hit must not re-split and re-register the source.
        sentinel = (0, None, ["sentinel\n"], name)
        linecache.cache[name] = sentinel
        assert codegen.compile_source(self.SRC, "lcprobe_miss") is code
        assert linecache.cache[name] is sentinel
        linecache.cache[name] = (
            len(self.SRC), None, self.SRC.splitlines(True), name)

    def test_clearing_the_code_cache_drops_the_sources(self, monkeypatch):
        import linecache

        monkeypatch.setattr(codegen, "_CODE_CACHE", {})
        monkeypatch.setattr(codegen, "_CODE_CACHE_MAX", 2)
        names = [
            codegen.compile_source(f"x = {i}\n", "lcprobe_evict").co_filename
            for i in range(2)
        ]
        assert all(n in linecache.cache for n in names)
        third = codegen.compile_source("x = 2\n", "lcprobe_evict").co_filename
        assert list(codegen._CODE_CACHE) == [third]
        assert not any(n in linecache.cache for n in names)
        assert third in linecache.cache
        codegen._clear_code_cache()
        assert third not in linecache.cache

    def test_traceback_shows_the_generated_line(self):
        import linecache
        import traceback

        ns = {}
        exec(codegen.compile_source(self.SRC, "lcprobe_tb"), ns)
        linecache.checkcache()  # mtime=None entries survive this
        try:
            ns["boom"](0)
        except ZeroDivisionError:
            text = traceback.format_exc()
        assert "<rtlflow:lcprobe_tb:" in text
        assert "return 1 // x  # generated line" in text


class TestQuarantineStaysOnRunEval:
    def test_fused_two_launches_per_cycle_and_survivors_identical(self):
        n, cycles, dead = 16, 40, 3
        graph = compile_graph(COUNTER_V, "counter")
        model = transpile(graph)
        stim = counter_stim(n, cycles, seed=3)
        plan = FaultPlan(lane_faults=[LaneFaultSpec(cycle=9, lane=dead)])

        traces = {}
        for kind in (DEFAULT_EXECUTOR, "graph"):
            sim = BatchSimulator(model, n, executor=kind,
                                 fault_isolation=True)
            traces[kind] = sim.run(stim, trace_every=1, fault_plan=plan)
            assert sim.quarantine.faulted_lanes() == [dead]
            if kind == DEFAULT_EXECUTOR:
                # One launch per evaluation, two evaluations per cycle —
                # before and after the lane died.
                assert sim.device.stats.graph_launches == 2 * cycles

        alive = np.arange(n) != dead
        fused = traces[DEFAULT_EXECUTOR]["count"]
        assert np.array_equal(fused[:, alive],
                              traces["graph"]["count"][:, alive])
        ref = reference_traces(graph, stim, ["count"])["count"]
        assert (fused[:, alive].astype(object) == ref[:, alive]).all()
        # The dead lane's register stopped committing when it was fenced.
        assert (fused[10:, dead] == fused[10, dead]).all()

    def test_every_engine_is_an_executor(self):
        model = transpile(compile_graph(COUNTER_V, "counter"))
        for kind in EXECUTOR_KINDS:
            ex = make_executor(model, SimulatedDevice(), kind)
            assert isinstance(ex, Executor) and ex.name == kind
            assert ex.layout is model.layout


class TestDeletedSpellingsAreRejected:
    @pytest.mark.parametrize(
        "kind", ["graph-inlined", "fused", "inlined", "conditional",
                 "sanitized", "graph-conditional"])
    def test_make_executor_names_the_accepted_kinds(self, kind):
        model = transpile(compile_graph(COUNTER_V, "counter"))
        with pytest.raises(SimulationError) as ei:
            make_executor(model, SimulatedDevice(), kind)
        for accepted in EXECUTOR_KINDS:
            assert accepted in str(ei.value)

    def test_campaign_spec_uses_the_same_rule(self):
        for kind in ("fused", "graph-conditional"):
            with pytest.raises(ClusterError, match="accepted kinds"):
                CampaignSpec(n=4, cycles=4, design="counter",
                             executor=kind).validate()

    def test_cli_rejects_the_activity_skipping_engine(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["run", "counter", "--executor", "graph-conditional"])
        assert ei.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'graph-conditional'" in err
        for accepted in ("graph-fused", "graph", "stream"):
            assert repr(accepted) in err

    @pytest.mark.parametrize("backend", ["numba", "cupy"])
    def test_cli_rejects_removed_backends(self, backend, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["run", "counter", "-n", "4", "-c", "4",
                  "--backend", backend])
        assert ei.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_cli_rejects_removed_run_groups(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["run", "counter", "--groups", "2"])
        assert ei.value.code == 2
        assert "unrecognized arguments: --groups" in capsys.readouterr().err

    def test_cli_rejects_backend_on_a_contrast_engine(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["run", "counter", "-n", "4", "-c", "4",
                  "--backend", "tensor", "--executor", "graph"])
        assert ei.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err


class TestRemovedBackendSurface:
    """The fused engine has one lowering; its old selector is gone from
    every surface, and a stale caller gets an error naming it."""

    @pytest.mark.parametrize("argv", [
        ["run", "counter"],
        ["simulate", "c.v", "--top", "counter"],
        ["profile", "counter"],
        ["campaign", "counter"],
        ["verify"],
        ["stats"],
        ["submit", "counter"],
    ], ids=lambda argv: argv[0])
    def test_cli_flag_is_unrecognized(self, argv, capsys):
        with pytest.raises(SystemExit) as ei:
            main(argv + ["--backend", "numpy"])
        assert ei.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_campaign_spec_field_is_gone(self):
        with pytest.raises(TypeError, match="backend"):
            CampaignSpec(n=4, cycles=4, design="counter", backend="numpy")

    def test_stale_client_spec_is_a_400_naming_the_field(self, tmp_path):
        stale = {"n": 4, "cycles": 4, "design": "counter", "backend": "numpy"}
        with pytest.raises(ServiceError, match="'backend'"):
            spec_from_dict(stale)
        bg = BackgroundService(CampaignService(
            data_dir=str(tmp_path / "svc"), port=0, workers=0)).start()
        try:
            ServiceClient(bg.base_url).wait_ready()
            conn = http.client.HTTPConnection("127.0.0.1", bg.port, timeout=30)
            conn.request("POST", "/jobs", body=json.dumps({"spec": stale}),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            body = json.loads(resp.read())
            conn.close()
        finally:
            bg.stop(drain=True)
        assert resp.status == 400
        assert "'backend'" in body["error"]


_DETERMINISM_CHILD = textwrap.dedent("""
    import hashlib
    from repro import RTLFlow
    from repro.designs import get_design

    for name, params in (("nvdla", {"pes": 64}), ("riscv_mini", {})):
        bundle = get_design(name, **params)
        model = RTLFlow.from_source(bundle.source, bundle.top).compile()
        digest = hashlib.sha256(model.fused().source.encode()).hexdigest()
        print(name, len(model.taskgraph.tasks), digest)
""")


def test_lowering_is_identical_across_hash_seeds():
    """Spawned cluster/serve workers each draw their own hash seed; the
    task graph and the content-addressed generated source must not."""
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = []
    for seed in ("0", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_CHILD], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 2


_PARTITION_CALLS_CHILD = textwrap.dedent("""
    import json
    import sys

    import numpy as np

    from repro import BatchSimulator, RTLFlow
    from repro.cluster import CampaignSpec, run_campaign
    from repro.designs import get_design
    from repro.partition import merge

    calls = []
    code = merge.partition.__code__
    sys.setprofile(lambda frame, event, arg: calls.append(1)
                   if event == "call" and frame.f_code is code else None)

    b = get_design("spinal")
    flow = RTLFlow.from_source(b.source, b.top)
    stim = b.make_stimulus(16, 12, 1)
    sim = flow.simulator(16)
    b.preload(sim)
    fused = sim.run(stim)
    default = len(calls)

    run_campaign(CampaignSpec(n=16, cycles=12, design="spinal", seed=1),
                 workers=0, shard_lanes=8)
    campaign = len(calls) - default

    sim = BatchSimulator(flow.compile(), 16, executor="graph")
    b.preload(sim)
    graph = sim.run(stim)
    sys.setprofile(None)
    print(json.dumps({
        "default": default,
        "campaign": campaign,
        "graph": len(calls) - default - campaign,
        "same": sorted(graph) == sorted(fused) and all(
            np.array_equal(graph[k], fused[k]) for k in fused),
    }))
""")


def test_default_path_never_partitions():
    """A fresh interpreter counts every ``partition()`` call: none for
    ``from_source`` -> ``simulator()`` -> ``run()`` or for a campaign
    worker's ``flow.compile()`` + ``BatchSimulator``; one when the
    ``graph`` executor first reads the same model's task graph, whose
    outputs match the fused engine's."""
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", _PARTITION_CALLS_CHILD],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got == {"default": 0, "campaign": 0, "graph": 1, "same": True}
