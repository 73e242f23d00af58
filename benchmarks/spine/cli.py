"""Command line of the benchmark spine.

Two shapes of one measurement:

* ``--workload NAME --seed N --seconds S --trace 0|1`` measures one workload
  for ``S`` seconds and prints one JSON object as its last line — the form
  ``BENCHMARK.json`` names;
* without ``--workload`` all six workloads run with their sample counts from
  :mod:`benchmarks.spine.table`, interleaved round-robin so minute-scale host
  drift hits all of them alike, followed by the traced pass.

Protocol in both: one process, one thread, no pools, no servers; one untimed
warm-up sample per workload (it also yields the reference digest and runs the
correctness gate); ``gc.collect()`` before every sample; every timing reported
is the median of its samples.  End-to-end numbers are taken with all telemetry
off; per-layer numbers come from a separate traced pass.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from benchmarks.spine import layers
from benchmarks.spine.table import END_TO_END, PER_LAYER, WORKLOADS, Workload, by_name
from benchmarks.spine.workloads import HERE, OUT_DIR, REPO_ROOT, Sample, make_runner

HISTORY = os.path.join(HERE, "history.jsonl")
MIN_SAMPLES = 3
TRACE_PLAIN_SAMPLES = 2  # untraced samples a --trace 1 run takes for the overhead ratio
SMOKE_ROUNDS = 2
SMOKE_TRACED = ("counter_overhead", "campaign_hit")
UNITS = {name: unit for name, unit, _better, *_ in END_TO_END + PER_LAYER}


@dataclass
class Outcome:
    """Every sample a workload attempted in one end-to-end phase."""

    samples: List[Sample] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)


def take_sample(runner, outcome: Outcome) -> None:
    """One operation: a sample that raises or whose output digest differs
    from the workload's verified digest is failed and not timed."""
    gc.collect()
    outcome.attempted += 1
    try:
        sample = runner.sample(runner.w.setups)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        outcome.failed += 1
        outcome.errors.append(f"{runner.w.name}: sample raised {exc!r}")
        return
    if sample.digest != runner.digest:
        outcome.failed += 1
        outcome.errors.append(
            f"{runner.w.name}: output digest {sample.digest[:16]} != "
            f"verified {runner.digest[:16]}"
        )
        return
    outcome.samples.append(sample)


def summarise(w: Workload, samples: Sequence[Sample]) -> Dict[str, dict]:
    """Median (with min, max and count) of each end-to-end metric."""
    run = [s.run_s for s in samples]
    result = [s.result_s for s in samples]
    setup = [t for s in samples for t in s.setup_s]
    work = w.lane_cycles
    return {
        "lane_cycles_per_s": {
            "value": work / statistics.median(run),
            "min": work / max(run), "max": work / min(run), "count": len(run),
        },
        "time_to_result_s": {
            "value": statistics.median(result),
            "min": min(result), "max": max(result), "count": len(result),
        },
        "setup_s": {
            "value": statistics.median(setup),
            "min": min(setup), "max": max(setup), "count": len(setup),
        },
    }


def traced_pass(runner, untraced_result_s: float, calib_s: float,
                rows: List[dict]) -> tuple:
    """One traced pass of ``runner``: every per-layer metric by name (``None``
    where the workload has no such layer), whether outputs still matched, and
    why anything is missing."""
    spans = layers.Spans(runner.w.name)
    gc.collect()
    traced = runner.traced(spans)
    rows.extend(spans.rows)
    metrics = {name: traced.metrics.get(name) for name, _u, _b in PER_LAYER}
    metrics["host.calib_s"] = calib_s
    metrics["trace.overhead_ratio"] = traced.result_s / untraced_result_s
    checks = {
        k: traced.metrics[k] for k in ("profile.accounted_s", "profile.wall_s")
        if k in traced.metrics
    }
    return metrics, checks, traced.digests_ok, traced.note


def hygiene_errors() -> List[str]:
    """No process may outlive the benchmark."""
    errors = []
    if multiprocessing.active_children():
        errors.append(f"live children: {multiprocessing.active_children()}")
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
        errors.append(f"unreaped child process {pid}")
    except ChildProcessError:
        pass
    return errors


def write_artifacts(rows: List[dict], document: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "trace.json"), "w", encoding="utf-8") as fh:
        json.dump(layers.chrome_trace(rows), fh)
    with open(os.path.join(OUT_DIR, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)


# -- one workload, for BENCHMARK.json ---------------------------------------


def run_one(args) -> int:
    w = by_name(args.workload)
    runner = make_runner(w, args.seed)
    outcome = Outcome()
    rows: List[dict] = []
    try:
        outcome.errors += runner.prepare()
        if args.trace:
            calib = []
            for _ in range(TRACE_PLAIN_SAMPLES):
                calib.append(layers.calibrate())
                take_sample(runner, outcome)
            if not outcome.samples:
                raise RuntimeError("; ".join(outcome.errors))
            untraced = statistics.median(s.result_s for s in outcome.samples)
            metrics, checks, ok, note = traced_pass(
                runner, untraced, statistics.median(calib), rows
            )
            outcome.attempted += 1
            if not ok:
                outcome.failed += 1
                outcome.errors.append(f"{w.name}: traced outputs differ")
            write_artifacts(rows, {
                "seed": args.seed, "per_layer": {w.name: metrics},
                "checks": {w.name: checks}, "notes": {w.name: note},
            })
            # BENCHMARK.json's consumer wants numbers: a layer this workload
            # does not have reads 0 there and null in out/metrics.json.
            values = {k: 0.0 if v is None else v for k, v in metrics.items()}
        else:
            deadline = time.perf_counter() + args.seconds
            while (time.perf_counter() < deadline
                   or len(outcome.samples) < MIN_SAMPLES):
                take_sample(runner, outcome)
                if outcome.failed >= MIN_SAMPLES:
                    raise RuntimeError("; ".join(outcome.errors))
            values = {k: v["value"] for k, v in summarise(w, outcome.samples).items()}
    finally:
        runner.close()
    outcome.errors += hygiene_errors()
    for line in outcome.errors:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    }))
    return 1 if outcome.errors else 0


# -- all workloads ---------------------------------------------------------


def due(samples: int, rounds: int, r: int) -> bool:
    """Spread ``samples`` evenly over ``rounds`` so they span the whole run."""
    return (r * samples) // rounds != ((r + 1) * samples) // rounds


def end_to_end(runners, counts: Dict[str, int], calib: List[float]) -> Dict[str, Outcome]:
    """Round ``r`` takes one sample of each workload that is due."""
    rounds = max(counts.values())
    outcomes = {r.w.name: Outcome() for r in runners}
    for r in range(rounds):
        calib.append(layers.calibrate())
        for runner in runners:
            if due(counts[runner.w.name], rounds, r):
                take_sample(runner, outcomes[runner.w.name])
    return outcomes


def print_phase(summaries: Dict[str, Dict[str, dict]], outcomes: Dict[str, Outcome]):
    print("== end to end: telemetry off, median [min .. max] of n samples ==")
    for name, summary in summaries.items():
        out = outcomes[name]
        print(f"{name}/ops = {out.attempted}   {name}/failed = {out.failed}")
        for metric, unit, _better, _bound in END_TO_END:
            s = summary[metric]
            print(f"{name}/{metric} = {s['value']:.6g} {unit}   "
                  f"[{s['min']:.6g} .. {s['max']:.6g}] n={s['count']}")


def selfcheck_errors(first, second) -> List[str]:
    """Two end-to-end phases of the same code must agree within the bounds."""
    errors = []
    print("== selfcheck: first median, second median, relative difference, bound ==")
    for name in first:
        for metric, _unit, _better, bound in END_TO_END:
            a, b = first[name][metric]["value"], second[name][metric]["value"]
            diff = abs(b - a) / a
            verdict = "ok" if diff <= bound else "DISAGREE"
            print(f"{name}/{metric}: {a:.6g} {b:.6g} {diff:.2%} {bound:.0%} {verdict}")
            if diff > bound:
                errors.append(f"selfcheck: {name}/{metric} moved {diff:.2%} > {bound:.0%}")
    return errors


def record(seed: int, calib_s: float, summaries) -> None:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    line = {
        "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
        "host.calib_s": calib_s,
        "end_to_end": {
            name: {m: s[m]["value"] for m in s} for name, s in summaries.items()
        },
    }
    with open(HISTORY, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line) + "\n")


def run_all(args) -> int:
    counts = {w.name: w.samples for w in WORKLOADS}
    if args.smoke:
        top = max(counts.values())
        counts = {k: max(1, round(v * SMOKE_ROUNDS / top)) for k, v in counts.items()}
    runners = [make_runner(w, args.seed) for w in WORKLOADS]
    errors: List[str] = []
    rows: List[dict] = []
    calib: List[float] = []
    try:
        for runner in runners:
            errors += runner.prepare()
        phases = [end_to_end(runners, counts, calib)]
        if args.selfcheck:
            phases.append(end_to_end(runners, counts, calib))
        summaries = []
        for outcomes in phases:
            errors += [e for o in outcomes.values() for e in o.errors]
            summary = {
                r.w.name: summarise(r.w, outcomes[r.w.name].samples)
                for r in runners if outcomes[r.w.name].samples
            }
            print_phase(summary, outcomes)
            summaries.append(summary)
        if args.selfcheck:
            errors += selfcheck_errors(*summaries)
        calib_s = statistics.median(calib)
        per_layer, checks, notes = {}, {}, {}
        for runner in runners:
            name = runner.w.name
            if (args.smoke and name not in SMOKE_TRACED) or name not in summaries[0]:
                continue
            untraced = summaries[0][name]["time_to_result_s"]["value"]
            per_layer[name], checks[name], ok, notes[name] = traced_pass(
                runner, untraced, calib_s, rows
            )
            if not ok:
                errors.append(f"{name}: traced outputs differ")
    finally:
        for runner in runners:
            runner.close()
    errors += hygiene_errors()
    print("== per layer: one traced pass per workload ==")
    for name, metrics in per_layer.items():
        if notes[name]:
            print(f"{name}: note: {notes[name]}")
        for metric, unit, _better in PER_LAYER:
            value = metrics[metric]
            shown = "null (no such layer in this workload)" if value is None \
                else f"{value:.6g} {unit}"
            print(f"{name}/{metric} = {shown}")
    write_artifacts(rows, {
        "seed": args.seed, "end_to_end": summaries[0], "per_layer": per_layer,
        "checks": checks, "notes": notes,
    })
    if args.record:
        record(args.seed, calib_s, summaries[0])
    for line in errors:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"failed = {len(errors)}")
    return 1 if errors else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(prog="benchmarks.spine", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                    help="measure this one workload and print one JSON line")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="with --workload: how long to take timed samples")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 reports the per-layer metrics instead")
    ap.add_argument("--selfcheck", action="store_true",
                    help="run the end-to-end phase twice and require agreement")
    ap.add_argument("--smoke", action="store_true",
                    help=f"{SMOKE_ROUNDS} rounds, traced pass on {SMOKE_TRACED} only")
    ap.add_argument("--record", action="store_true",
                    help="append this run's medians to history.jsonl")
    args = ap.parse_args(argv)
    if args.workload:
        return run_one(args)
    return run_all(args)
