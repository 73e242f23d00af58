"""One cold ``nvdla_cold`` sample in a fresh interpreter.

Run by :class:`benchmarks.spine.workloads.ColdRunner` as
``python -m benchmarks.spine.cold_child --seed N --mode plain|spans|profile``;
prints one JSON object as its last line and exits.  The clock starts on the
first line, so ``total_s`` includes importing numpy and ``repro``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from benchmarks.spine.table import ENGINE, by_name, digest_outputs, lane_values  # noqa: E402


def cold_sample(w, seed: int, staged: bool) -> dict:
    """Import, build, preload and run once; ``staged`` drives the set-up one
    layer at a time under spans instead of through ``RTLFlow``."""
    from repro import RTLFlow
    from repro.designs import get_design

    report: dict = {"python.import_s": time.perf_counter() - T0}
    bundle = get_design(w.design, **w.params)
    if staged:
        from benchmarks.spine import layers
    t_setup = time.perf_counter()
    if staged:
        spans = layers.Spans(w.name)
        sim, _graph, sizes = layers.staged_setup(bundle, w.n, ENGINE, spans)
    else:
        flow = RTLFlow.from_source(bundle.source, bundle.top)
        sim = flow.simulator(w.n, executor=ENGINE)
        bundle.preload(sim)
    report["setup_s"] = time.perf_counter() - t_setup
    stim = bundle.make_stimulus(w.n, w.cycles, seed)
    t_run = time.perf_counter()
    out = sim.run(stim, watch=bundle.watch)
    report["digest"] = digest_outputs([out])
    t_end = time.perf_counter()
    report["run_s"] = t_end - t_run
    report["total_s"] = t_end - T0
    report["lanes"] = lane_values(w, out)
    if staged:
        spans.add("python.import_s", T0, T0 + report["python.import_s"], None)
        spans.add("run", t_run, t_end, None)
        report["metrics"] = {
            **layers.setup_metrics(spans), **sizes,
            **layers.run_split(sim, report["run_s"], w.cycles),
        }
        report["spans"] = [
            dict(r, start=r["start"] - T0, end=r["end"] - T0) for r in spans.rows
        ]
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "spans", "profile"), default="plain")
    args = ap.parse_args(argv)
    w = by_name("nvdla_cold")
    if args.mode == "profile":
        from benchmarks.spine import layers

        prof: dict = {}
        with layers.profiled(prof):
            report = cold_sample(w, args.seed, staged=False)
        report["metrics"] = layers.profile_buckets(prof, w.cycles)
    else:
        report = cold_sample(w, args.seed, staged=args.mode == "spans")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
