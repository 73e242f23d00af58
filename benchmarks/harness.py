"""Experiment harness: regenerates every table and figure of the paper.

Usage::

    python -m benchmarks.harness --experiment table2 [--scale default]
    python -m benchmarks.harness --all --scale quick

Each experiment prints a paper-style table and writes its rows to
``benchmarks/results/<experiment>.json`` (plus ``.txt`` for the rendered
table); EXPERIMENTS.md records paper-vs-measured for every experiment.

Scales: ``quick`` (seconds per experiment), ``default`` (a few minutes),
``paper`` (stretches toward the paper's axes; hours on a laptop).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from benchmarks.common import (
    DEVICE_COMPUTE_SCALE,
    SCALES,
    PreparedDesign,
    load_design,
    make_batch_sim,
    measure_lane_seconds,
    modeled_cpu_batch_seconds,
    save_result,
    save_text,
    time_rtlflow,
    time_rtlflow_pipeline,
    time_rtlflow_projected,
)
from repro import obs
from repro.analysis.metrics import transpilation_row
from repro.analysis.report import format_table
from repro.gpu.device import SimulatedDevice
from repro.gpu.timeline import TimelineSpan, render_timeline
from repro.obs import Tracer
from repro.partition.mcmc import Estimator
from repro.partition.merge import partition
from repro.utils.timing import format_duration

PAPER_CPU_WORKERS = 80  # the paper's Machine 1 (80 threads)

# Benchmark designs per experiment family (sizes tuned per scale).
_DESIGN_PARAMS = {
    "quick": {"riscv": {}, "spinal": {"taps": 4}, "nvdla": {"pes": 4}},
    "default": {"riscv": {}, "spinal": {"taps": 8}, "nvdla": {"pes": 8}},
    "paper": {"riscv": {}, "spinal": {"taps": 16}, "nvdla": {"pes": 32}},
}


def _designs(scale: str, names=("spinal", "nvdla")) -> List[PreparedDesign]:
    params = _DESIGN_PARAMS[scale]
    out = []
    for n in names:
        key = "riscv" if n == "riscv_mini" else n
        out.append(load_design(n, **params.get(key, {})))
    return out


# ---------------------------------------------------------------------------
# Table 1: transpilation statistics
# ---------------------------------------------------------------------------


def run_table1(scale: str = "default") -> str:
    rows = []
    payload = {}
    for prep in _designs(scale, ("riscv_mini", "spinal", "nvdla")):
        verilog_loc = sum(
            1 for l in prep.bundle.source.splitlines()
            if l.strip() and not l.strip().startswith("//")
        )
        r = transpilation_row(prep.graph)
        v, f = r["verilator"], r["rtlflow"]
        rows.append(
            [
                prep.name,
                verilog_loc,
                r["design"]["ast_nodes"],
                v.loc, f"{v.cc_avg:.1f}", v.tokens,
                f"{v.transpile_seconds * 1000:.0f}ms",
                f.loc, f"{f.cc_avg:.1f}", f.tokens,
                f"{f.transpile_seconds * 1000:.0f}ms",
            ]
        )
        payload[prep.name] = {
            "verilog_loc": verilog_loc,
            "ast_nodes": r["design"]["ast_nodes"],
            "verilator": v.as_row(),
            "rtlflow": f.as_row(),
        }
    text = format_table(
        ["design", "Verilog LOC", "#AST nodes",
         "V.LOC", "V.CC", "V.#Tok", "V.T_trans",
         "R.LOC", "R.CC", "R.#Tok", "R.T_trans"],
        rows,
        title="Table 1: transpiled-code statistics (V = Verilator-style scalar, "
              "R = RTLflow batch)",
    )
    save_result("table1", payload)
    save_text("table1", text)
    return text


# ---------------------------------------------------------------------------
# Table 2: overall Verilator-80t vs RTLflow
# ---------------------------------------------------------------------------


def run_table2(scale: str = "default") -> str:
    cfg = SCALES[scale]
    rows = []
    payload = []
    for prep in _designs(scale, ("spinal", "nvdla")):
        for cycles in cfg["cycles"]:
            lane_s = measure_lane_seconds(prep, cycles)
            # Span the break-even point: the paper's Table 2 starts below
            # it (256 stimulus) and ends far above (65536).
            for n in [s * 8 for s in cfg["stim"]] + [cfg["stim"][-1] * 32]:
                cpu_s = modeled_cpu_batch_seconds(lane_s, n, PAPER_CPU_WORKERS)
                host_s, proj_s, _ = time_rtlflow_projected(prep, n, cycles)
                speedup = cpu_s / proj_s
                rows.append(
                    [prep.name, n, cycles,
                     format_duration(cpu_s), format_duration(host_s),
                     format_duration(proj_s), f"{speedup:.1f}x"]
                )
                payload.append(
                    {"design": prep.name, "stimulus": n, "cycles": cycles,
                     "verilator_s": cpu_s, "rtlflow_host_s": host_s,
                     "rtlflow_projected_s": proj_s, "speedup": speedup}
                )
    text = format_table(
        ["design", "#stimulus", "#cycles", "Verilator(80t, modeled)",
         "RTLflow(host)", "RTLflow(projected A6000)", "speed-up"],
        rows,
        title="Table 2: elapsed simulation time, Verilator 80 threads vs "
              f"RTLflow (device projection x{DEVICE_COMPUTE_SCALE:.0f}, "
              "see benchmarks/common.py)",
    )
    save_result("table2", payload)
    save_text("table2", text)
    return text


# ---------------------------------------------------------------------------
# Table 3: MCMC partitioning vs default weights
# ---------------------------------------------------------------------------


def run_table3(scale: str = "default") -> str:
    cfg = SCALES[scale]
    prep = _designs(scale, ("nvdla",))[0]
    graph = prep.graph

    iters = cfg["mcmc_iters"]
    est_n = min(cfg["stim"])
    result = prep.flow.optimize_partition(
        n_stimulus=est_n, cycles=8, max_iter=iters, max_unimproved=max(4, iters // 3)
    )

    rows = []
    payload = {"mcmc": {
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "initial_cost": result.initial_cost,
        "best_cost": result.best_cost,
        "improvement": result.improvement,
    }, "rows": []}
    for cycles in cfg["cycles"]:
        for n in cfg["stim"][-2:]:
            # Simulated device seconds with measured kernel times at this
            # n; min over trials (timing noise on a shared host can exceed
            # the partitioning gap in a single estimate).
            est = Estimator(graph, n_stimulus=n, cycles=cycles, seed=3,
                            repeats=3)
            default_cost = min(
                est.estimate_cost(partition(graph)) for _ in range(2)
            )
            mcmc_cost = min(
                est.estimate_cost(partition(graph, weights=result.weights))
                for _ in range(2)
            )
            imp = (default_cost - mcmc_cost) / default_cost
            rows.append(
                [n, cycles, f"{default_cost:.3f}s", f"{mcmc_cost:.3f}s",
                 f"{imp * 100:+.1f}%"]
            )
            payload["rows"].append(
                {"stimulus": n, "cycles": cycles,
                 "default_s": default_cost, "mcmc_s": mcmc_cost,
                 "improvement": imp}
            )
    text = format_table(
        ["#stimulus", "#cycles", "RTLflow^-g (default)", "RTLflow (MCMC)",
         "improvement"],
        rows,
        title=f"Table 3: GPU-aware MCMC partitioning on {prep.name} "
              f"({result.iterations} sampling iterations)",
    )
    save_result("table3", payload)
    save_text("table3", text)
    return text


# ---------------------------------------------------------------------------
# Table 4: CUDA Graph vs stream execution
# ---------------------------------------------------------------------------


def run_table4(scale: str = "default") -> str:
    cfg = SCALES[scale]
    n = cfg["stim"][-1]
    rows = []
    payload = []
    for prep in _designs(scale, ("spinal", "nvdla")):
        # Launch overheads accumulate with cycle count (the paper uses
        # 10K-500K cycles here), so run the long-cycle configurations.
        for cycles in (cfg["cycles"][-1], cfg["cycles"][-1] * 4):
            # Best of two trials per executor: wall noise on a shared host
            # can exceed the scheduling gap at small scales.
            def run(executor):
                best = None
                for _ in range(2):
                    dev = SimulatedDevice()
                    wall, _ = time_rtlflow(prep, n, cycles, executor=executor,
                                           device=dev)
                    total = wall + dev.stats.overhead_seconds
                    busy = dev.stats.busy_seconds
                    # Projection (DESIGN.md §2): kernel compute runs on the
                    # device at the spec-calibrated scale; the scheduling
                    # bookkeeping (wall - busy) and the modeled CUDA call
                    # latencies stay at host cost — exactly the fraction
                    # CUDA Graph eliminates.
                    projected = (
                        max(0.0, wall - busy)
                        + busy / DEVICE_COMPUTE_SCALE
                        + dev.stats.overhead_seconds
                    )
                    if best is None or total < best[0]:
                        best = (total, projected, dev)
                return best

            stream_total, stream_proj, stream_dev = run("stream")
            graph_total, graph_proj, graph_dev = run("graph")
            rows.append(
                [prep.name, n, cycles,
                 f"{stream_total:.2f}s", f"{graph_total:.2f}s",
                 f"{stream_total / graph_total:.1f}x",
                 f"{stream_proj:.2f}s", f"{graph_proj:.2f}s",
                 f"{stream_proj / graph_proj:.1f}x"]
            )
            payload.append(
                {"design": prep.name, "stimulus": n, "cycles": cycles,
                 "stream_s": stream_total, "graph_s": graph_total,
                 "stream_projected_s": stream_proj,
                 "graph_projected_s": graph_proj,
                 "stream_cuda_calls": stream_dev.stats.kernel_launches
                 + stream_dev.stats.event_ops,
                 "graph_launches": graph_dev.stats.graph_launches}
            )
    text = format_table(
        ["design", "#stimulus", "#cycles", "stream(host)", "graph(host)",
         "host speed-up", "stream(projected)", "graph(projected)",
         "projected speed-up"],
        rows,
        title="Table 4: CUDA Graph vs stream-based execution "
              "(host-measured and projected-device times)",
    )
    save_result("table4", payload)
    save_text("table4", text)
    return text


# ---------------------------------------------------------------------------
# Table 5 / Fig 15: pipeline scheduling
# ---------------------------------------------------------------------------


def run_table5(scale: str = "default") -> str:
    cfg = SCALES[scale]
    cycles = cfg["cycles"][0]
    rows = []
    payload = []
    for prep in _designs(scale, ("spinal", "nvdla")):
        # The pipeline matters in the input-bound regime (large batches).
        for n in [s * 4 for s in cfg["stim"]]:
            report, _ = time_rtlflow_pipeline(prep, n, cycles, groups=4,
                                              cpu_workers=4)
            seq = report.sequential_makespan
            pipe = report.pipelined_makespan
            imp = (seq - pipe) / seq if seq else 0.0
            rows.append(
                [prep.name, n, cycles, f"{seq:.3f}s", f"{pipe:.3f}s",
                 f"{imp * 100:+.1f}%"]
            )
            payload.append(
                {"design": prep.name, "stimulus": n, "cycles": cycles,
                 "sequential_s": seq, "pipelined_s": pipe, "improvement": imp}
            )
    text = format_table(
        ["design", "#stimulus", "#cycles", "RTLflow^-p", "RTLflow (pipeline)",
         "improvement"],
        rows,
        title="Table 5: pipeline scheduling vs per-cycle set_inputs barrier "
              "(virtual-time schedule of measured stage durations)",
    )
    save_result("table5", payload)
    save_text("table5", text)
    return text


def run_fig15(scale: str = "default") -> str:
    cfg = SCALES[scale]
    cycles = cfg["cycles"][0]
    rows = []
    payload = []
    for prep in _designs(scale, ("spinal", "nvdla")):
        for n in [s * 4 for s in cfg["stim"]]:
            report, _ = time_rtlflow_pipeline(prep, n, cycles)
            rows.append(
                [prep.name, n,
                 f"{report.sequential_utilization * 100:.1f}%",
                 f"{report.pipelined_utilization * 100:.1f}%"]
            )
            payload.append(
                {"design": prep.name, "stimulus": n,
                 "util_no_pipeline": report.sequential_utilization,
                 "util_pipeline": report.pipelined_utilization}
            )
    text = format_table(
        ["design", "#stimulus", "GPU util (RTLflow^-p)", "GPU util (RTLflow)"],
        rows,
        title="Figure 15: GPU utilization with and without pipeline scheduling",
    )
    save_result("fig15", payload)
    save_text("fig15", text)
    return text


# ---------------------------------------------------------------------------
# Fig 2: set_inputs / evaluate breakdown
# ---------------------------------------------------------------------------


def run_fig2(scale: str = "default") -> str:
    cfg = SCALES[scale]
    cycles = cfg["cycles"][0]
    prep = _designs(scale, ("nvdla",))[0]
    rows = []
    payload = []
    # The paper's axis is 1024..16384 stimulus — the regime where CPU-side
    # decode overtakes device evaluation; scale the preset counts up.
    for n in [s * 8 for s in cfg["stim"]]:
        report, _ = time_rtlflow_pipeline(prep, n, cycles, text_inputs=True)
        rows.append(
            [n, f"{report.set_inputs_seconds:.3f}s",
             f"{report.evaluate_seconds:.3f}s",
             f"{report.sequential_utilization * 100:.1f}%"]
        )
        payload.append(
            {"stimulus": n,
             "set_inputs_s": report.set_inputs_seconds,
             "evaluate_s": report.evaluate_seconds,
             "gpu_utilization": report.sequential_utilization}
        )
    from repro.analysis.plots import ascii_stacked_bars

    bars = ascii_stacked_bars(
        [str(p["stimulus"]) for p in payload],
        {
            "set_inputs": [p["set_inputs_s"] for p in payload],
            "evaluate": [p["evaluate_s"] for p in payload],
        },
    )
    text = format_table(
        ["#stimulus", "set inputs (CPU)", "evaluate design (GPU)",
         "GPU utilization"],
        rows,
        title="Figure 2: runtime breakdown without pipeline scheduling "
              f"({prep.name}, {cycles} cycles)",
    ) + "\n\n" + bars
    save_result("fig2", payload)
    save_text("fig2", text)
    return text


# ---------------------------------------------------------------------------
# Fig 12: hardware platform sweep
# ---------------------------------------------------------------------------


def run_fig12(scale: str = "default") -> str:
    cfg = SCALES[scale]
    prep = _designs(scale, ("nvdla",))[0]
    n = cfg["stim"][-1] * 8  # the batch regime, where the GPU point wins
    cycles = cfg["cycles"][0]
    lane_s = measure_lane_seconds(prep, cycles)
    serial = modeled_cpu_batch_seconds(lane_s, n, 1)
    rows = []
    payload = []
    for workers in (1, 4, 16, 40, 80):
        t = modeled_cpu_batch_seconds(lane_s, n, workers)
        rows.append(
            [f"{workers} CPU", format_duration(t), f"{serial / t:.1f}x"]
        )
        payload.append({"platform": f"{workers}cpu", "seconds": t,
                        "speedup_vs_1cpu": serial / t})
    host_s, proj_s, _ = time_rtlflow_projected(prep, n, cycles)
    rows.append(
        ["1 GPU, host-measured", format_duration(host_s),
         f"{serial / host_s:.1f}x"]
    )
    rows.append(
        ["1 GPU, projected A6000 (RTLflow)", format_duration(proj_s),
         f"{serial / proj_s:.1f}x"]
    )
    payload.append({"platform": "gpu_host", "seconds": host_s,
                    "speedup_vs_1cpu": serial / host_s})
    payload.append({"platform": "gpu_projected", "seconds": proj_s,
                    "speedup_vs_1cpu": serial / proj_s})
    text = format_table(
        ["platform", "runtime", "speed-up vs 1 CPU"],
        rows,
        title=f"Figure 12: {prep.name} with {n} stimulus, {cycles} cycles "
              "(CPU workers modeled from measured per-lane time)",
    )
    save_result("fig12", payload)
    save_text("fig12", text)
    return text


# ---------------------------------------------------------------------------
# Fig 13: runtime growth over #stimulus (riscv-mini)
# ---------------------------------------------------------------------------


def run_fig13(scale: str = "default") -> str:
    cfg = SCALES[scale]
    prep = load_design("riscv_mini")
    cycles = cfg["cycles"][0]
    v_lane = measure_lane_seconds(prep, cycles, engine="verilator")
    e_lane = measure_lane_seconds(prep, cycles, engine="essent")
    stim_counts = sorted(set(cfg["stim"] + [cfg["stim"][-1] * 4]))
    rows = []
    payload = []
    for n in stim_counts:
        v = modeled_cpu_batch_seconds(v_lane, n, PAPER_CPU_WORKERS)
        e = modeled_cpu_batch_seconds(e_lane, n, PAPER_CPU_WORKERS)
        g_host, g_proj, _ = time_rtlflow_projected(prep, n, cycles)
        rows.append([n, f"{v:.3f}s", f"{e:.3f}s", f"{g_host:.3f}s",
                     f"{g_proj:.3f}s"])
        payload.append({"stimulus": n, "verilator_s": v, "essent_s": e,
                        "rtlflow_host_s": g_host, "rtlflow_projected_s": g_proj})
    from repro.analysis.plots import ascii_lineplot

    plot = ascii_lineplot(
        {
            "Verilator": [(p["stimulus"], p["verilator_s"]) for p in payload],
            "ESSENT": [(p["stimulus"], p["essent_s"]) for p in payload],
            "RTLflow": [(p["stimulus"], p["rtlflow_projected_s"]) for p in payload],
        },
        logx=True, logy=True, xlabel="#stimulus", ylabel="sec",
    )
    text = format_table(
        ["#stimulus", "Verilator(80t)", "ESSENT(80 procs)", "RTLflow(host)",
         "RTLflow(projected)"],
        rows,
        title=f"Figure 13: runtime growth over #stimulus (riscv-mini, "
              f"{cycles} cycles)",
    ) + "\n\n" + plot
    save_result("fig13", payload)
    save_text("fig13", text)
    return text


# ---------------------------------------------------------------------------
# Fig 14: partition shapes, default vs MCMC
# ---------------------------------------------------------------------------


def run_fig14(scale: str = "default") -> str:
    prep = _designs(scale, ("spinal",))[0]
    graph = prep.graph
    default_tg = partition(graph)
    cfg = SCALES[scale]
    result = prep.flow.optimize_partition(
        n_stimulus=min(cfg["stim"]), cycles=8,
        max_iter=cfg["mcmc_iters"], max_unimproved=max(4, cfg["mcmc_iters"] // 3),
    )
    mcmc_tg = partition(graph, weights=result.weights)
    rows = []
    for name, tg in (("default", default_tg), ("GPU-aware (MCMC)", mcmc_tg)):
        s = tg.stats()
        rows.append(
            [name, s["comb_tasks"], s["levels"], s["max_width"],
             f"{s['avg_width']:.1f}", f"{s['avg_task_nodes']:.1f}"]
        )
    save_text("fig14_default_dot", default_tg.to_dot())
    save_text("fig14_mcmc_dot", mcmc_tg.to_dot())
    text = format_table(
        ["partition", "comb tasks", "levels", "max concurrency",
         "avg concurrency", "avg nodes/task"],
        rows,
        title=f"Figure 14: task-graph shape on {prep.name} "
              "(DOT files in benchmarks/results/)",
    )
    save_result("fig14", {"rows": rows})
    save_text("fig14", text)
    return text


# ---------------------------------------------------------------------------
# Figs 9/10/16: execution timelines
# ---------------------------------------------------------------------------


def run_timelines(scale: str = "quick") -> str:
    prep = _designs(scale, ("spinal",))[0]
    n, cycles = 32, 3
    out = []

    # Fig 10: stream vs graph launch timeline.
    for kind in ("stream", "graph"):
        tracer = Tracer(enabled=True)
        device = SimulatedDevice(tracer=tracer)
        sim = make_batch_sim(prep, n, executor=kind, device=device)
        stim = prep.bundle.make_stimulus(n, cycles, 1)
        sim.run(stim)
        out.append(f"--- Fig 10 ({kind} execution, {cycles} cycles) ---")
        out.append(
            f"kernel launches: {device.stats.kernel_launches}, "
            f"graph launches: {device.stats.graph_launches}, "
            f"event ops: {device.stats.event_ops}, "
            f"sync calls: {device.stats.sync_calls}"
        )

    # Fig 16: pipeline timeline from the virtual schedule, rebuilt from the
    # *measured* per-(group, cycle) stage durations of a real run with
    # text-decoded stimulus (the input-bound regime the figure depicts).
    from repro.pipeline.virtualtime import makespan_pipelined, makespan_sequential

    report, _ = time_rtlflow_pipeline(
        prep, 512, 8, groups=4, cpu_workers=2, text_inputs=True
    )
    cpu = report.cpu_stage_seconds
    gpu = report.gpu_stage_seconds
    for name, fn in (("without pipeline", makespan_sequential),
                     ("with pipeline", makespan_pipelined)):
        res = fn(cpu, gpu, 2)
        spans = [TimelineSpan(r, lbl, s, e) for r, lbl, s, e in res.spans]
        out.append(f"--- Fig 16 ({name}): makespan {res.makespan * 1e3:.2f} ms, "
                   f"GPU util {res.gpu_utilization:.0%} ---")
        out.append(render_timeline(spans, width=88))
    text = "\n".join(out)
    save_text("timelines", text)
    return text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

EXPERIMENTS: Dict[str, Callable[[str], str]] = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "fig2": run_fig2,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14": run_fig14,
    "fig15": run_fig15,
    "timelines": run_timelines,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--experiment", "-e", choices=sorted(EXPERIMENTS),
                    action="append", default=None)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--scale", choices=sorted(SCALES), default="default")
    ap.add_argument("--trace-json", default=None, metavar="PATH",
                    help="capture a Chrome-trace JSON across the "
                         "selected experiments")
    ap.add_argument("--metrics-json", default=None, metavar="PATH",
                    help="capture a metrics snapshot JSON across the "
                         "selected experiments")
    args = ap.parse_args(argv)
    names = sorted(EXPERIMENTS) if args.all else (args.experiment or [])
    if not names:
        ap.error("pass --experiment NAME (repeatable) or --all")

    def run_all() -> None:
        tracer = obs.get_tracer()
        for name in names:
            t0 = time.perf_counter()
            print(f"\n>>> {name} (scale={args.scale})")
            with tracer.span(name, resource="harness"):
                print(EXPERIMENTS[name](args.scale))
            print(f"[{name} took {time.perf_counter() - t0:.1f}s]")

    if args.trace_json or args.metrics_json:
        with obs.capture() as (tracer, metrics):
            run_all()
        if args.trace_json:
            tracer.write_chrome_trace(args.trace_json)
            print(f"wrote {args.trace_json}")
        if args.metrics_json:
            metrics.write_json(
                args.metrics_json,
                extra={"kernels": obs.kernel_time_summary(tracer)},
            )
            print(f"wrote {args.metrics_json}")
    else:
        run_all()
    return 0


if __name__ == "__main__":
    sys.exit(main())
