"""Per-layer measurement: spans around each layer's public call, the run
split the simulator already accounts for, and cProfile self time by module.

Everything here times the program from outside.  A layer entry point that a
later refactor removes makes its metrics ``None`` (reported with the reason),
never a crash: :func:`staged_setup` raises :class:`LayerMissing` and the
caller falls back to the stable ``RTLFlow`` entry points.
"""

from __future__ import annotations

import cProfile
import importlib
import pstats
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

from benchmarks.spine.table import BUCKETS, CALL_BUCKETS, ENGINE

Metrics = Dict[str, Optional[float]]


class LayerMissing(Exception):
    """A layer's public entry point is gone or changed shape."""


class Spans:
    """In-memory span recorder: name, start, end, parent, workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.rows: List[dict] = []
        self._open: List[str] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.add(name, start, end, parent)

    def add(self, name: str, start: float, end: float, parent: Optional[str]):
        self.rows.append({
            "name": name, "start": start, "end": end,
            "parent": parent, "workload": self.workload,
        })

    def durations(self, name: str) -> List[float]:
        return [r["end"] - r["start"] for r in self.rows if r["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))


def chrome_trace(rows: List[dict]) -> dict:
    """Spans as Chrome-trace JSON (open in chrome://tracing or Perfetto)."""
    if not rows:
        return {"traceEvents": []}
    origin = min(r["start"] for r in rows)
    lanes = {w: i for i, w in enumerate(dict.fromkeys(r["workload"] for r in rows))}
    events = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
         "args": {"name": workload}}
        for workload, tid in lanes.items()
    ]
    for r in rows:
        events.append({
            "name": r["name"], "ph": "X", "pid": 1, "tid": lanes[r["workload"]],
            "ts": (r["start"] - origin) * 1e6,
            "dur": (r["end"] - r["start"]) * 1e6,
            "args": {"parent": r["parent"], "workload": r["workload"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _entry(module: str, name: str):
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError) as exc:
        raise LayerMissing(f"{module}.{name}: {exc}") from exc


def staged_setup(bundle, n: int, executor: Optional[str], spans: Spans):
    """``RTLFlow.from_source`` + ``flow.simulator`` + ``preload``, one span
    per layer under a parent ``setup`` span.  Returns ``(sim, graph, sizes)``.
    """
    parse_source = _entry("repro.verilog.parser", "parse_source")
    elaborate = _entry("repro.elaborate.elaborator", "elaborate")
    lower = _entry("repro.elaborate.symexec", "lower")
    optimize_design = _entry("repro.elaborate.optimize", "optimize_design")
    build_graph = _entry("repro.rtlir.build", "build_graph")
    lint_artifacts = _entry("repro.lint", "lint_artifacts")
    lint_context = _entry("repro.lint", "LintContext")
    partition = _entry("repro.partition.merge", "partition")
    codegen = _entry("repro.core.codegen", "KernelCodegen")
    simulator = _entry("repro.core.simulator", "BatchSimulator")
    text, top = bundle.source, bundle.top
    kwargs = {} if executor is None else {"executor": executor}
    generated = 0
    try:
        with spans.span("setup"):
            with spans.span("verilog.parse_s"):
                unit = parse_source(text, "<input>")
            with spans.span("elaborate.elaborate_s"):
                flat = elaborate(unit, top)
            with spans.span("elaborate.lower_s"):
                lowered = lower(flat)
            with spans.span("elaborate.optimize_s"):
                optimized = optimize_design(lowered)
            with spans.span("rtlir.build_graph_s"):
                graph = build_graph(optimized)
            with spans.span("lint.lint_s"):
                report = lint_artifacts(
                    lint_context(
                        top=top, filename="<input>", unit=unit, flat=flat,
                        lowered=lowered, optimized=optimized, graph=graph,
                    ),
                    text=text,
                )
            if report.errors:
                raise RuntimeError(f"lint rejected {bundle.name}")
            with spans.span("partition.partition_s"):
                taskgraph = partition(graph)
            with spans.span("core.codegen.compile_s"):
                model = codegen(taskgraph).compile()
            generated += model.source.count("\n") + 1
            if executor == ENGINE:
                with spans.span("core.codegen.fused_compile_s"):
                    fused = model.fused()
                generated += fused.source.count("\n") + 1
            with spans.span("core.simulator.construct_s"):
                sim = simulator(model, n, **kwargs)
                bundle.preload(sim)
    except (TypeError, AttributeError) as exc:
        raise LayerMissing(f"staged set-up no longer fits the layers: {exc}") from exc
    sizes = {
        "verilog.source_lines": text.count("\n") + 1,
        "rtlir.nodes": len(graph.nodes),
        "partition.tasks": len(taskgraph.tasks),
        "core.codegen.generated_lines": generated,
        "core.memory.device_bytes": sim.layout.footprint_bytes(n),
    }
    return sim, graph, sizes


def setup_metrics(spans: Spans) -> Metrics:
    """Each set-up layer's span total, plus the parent ``setup`` span."""
    out: Metrics = {
        r["name"]: spans.total(r["name"]) for r in spans.rows if r["parent"] == "setup"
    }
    out["setup.traced_s"] = spans.total("setup")
    return out


def run_split(sim, wall_s: float, cycles: int) -> Metrics:
    """The Fig. 2 split after ordinary ``run()`` calls, from the accounting
    the simulator keeps with telemetry off."""
    set_inputs = sim.stopwatch.total("set_inputs")
    evaluate = sim.stopwatch.total("evaluate")
    stats = sim.device.stats
    return {
        "core.simulator.set_inputs_s": set_inputs,
        "core.simulator.evaluate_s": evaluate,
        "core.simulator.loop_self_s": wall_s - set_inputs - evaluate,
        "gpu.device.busy_s": stats.busy_seconds,
        "core.simulator.bookkeeping_s": evaluate - stats.busy_seconds,
        "gpu.device.graph_launches_per_cycle": stats.graph_launches / cycles,
    }


_FRONTEND = (
    "repro/verilog/", "repro/elaborate/", "repro/rtlir/", "repro/lint/",
    "repro/partition/", "repro/core/codegen.py", "repro/core/indexmap.py",
    "repro/core/annotate.py", "repro/core/flow.py", "repro/verify/",
    "repro/backends/",
)
_BY_PATH = (
    ("generated", ("<rtlflow:",)),
    ("utils.widevec", ("repro/utils/widevec.py",)),
    ("utils.packbits", ("repro/utils/packbits.py",)),
    ("utils.bitvec", ("repro/utils/bitvec.py",)),
    ("core.kernels", ("repro/core/kernels.py",)),
    ("core.memory", ("repro/core/memory.py",)),
    ("core.simulator", ("repro/core/simulator.py",)),
    ("gpu", ("repro/gpu/",)),
    ("obs", ("repro/obs/", "repro/utils/timing.py")),
    ("stimulus", ("repro/stimulus/", "repro/designs/")),
    ("frontend", _FRONTEND),
    ("cluster", ("repro/cluster/",)),
    ("serve", ("repro/serve/",)),
    ("numpy", ("/numpy/",)),
)


def _bucket(filename: str, function: str) -> str:
    if filename == "~":  # a C function: numpy's and compile() are told apart
        if "numpy" in function:
            return "numpy"
        return "python.compile" if function.endswith("builtins.compile>") else "other"
    for bucket, needles in _BY_PATH:
        if any(needle in filename for needle in needles):
            return bucket
    return "other"


@contextmanager
def profiled(out: dict):
    """cProfile the body; ``out`` receives the profile and its wall time."""
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    try:
        yield
    finally:
        profile.disable()
        out["wall_s"] = time.perf_counter() - start
        out["profile"] = profile


def profile_buckets(prof: dict, cycles: int) -> Metrics:
    """Self time and call counts of one :func:`profiled` body, bucketed by
    source path.  ``other`` takes the remainder of the wall time so the buckets
    sum to it; ``profile.accounted_s`` is what cProfile itself attributed."""
    wall_s = prof["wall_s"]
    self_s = dict.fromkeys(BUCKETS, 0.0)
    calls = dict.fromkeys(BUCKETS, 0)
    stats = pstats.Stats(prof["profile"])
    for (filename, _line, function), (_cc, ncalls, tottime, _ct, _callers) in (
        stats.stats.items()  # type: ignore[attr-defined]
    ):
        bucket = _bucket(filename.replace("\\", "/"), function)
        self_s[bucket] += tottime
        calls[bucket] += ncalls
    accounted = sum(self_s.values())
    self_s["other"] += wall_s - accounted
    out: Metrics = {f"{b}.self_s": self_s[b] for b in BUCKETS}
    for b in CALL_BUCKETS:
        out[f"{b}.calls_per_cycle"] = calls[b] / cycles
    out["host_calls_per_cycle"] = sum(calls.values()) / cycles
    out["profile.accounted_s"] = accounted
    out["profile.wall_s"] = wall_s
    return out


def calibrate() -> float:
    """A fixed numpy + pure-Python loop: host drift apart from program change."""
    start = time.perf_counter()
    a = np.arange(1 << 16, dtype=np.uint64)
    acc = 0
    for i in range(400):
        a = (a * np.uint64(6364136223846793005) + np.uint64(i)) >> np.uint64(1)
        acc += i * i % 7
    for i in range(60000):
        acc += i % 3
    return time.perf_counter() - start
