"""Fusion bench: fused flat-program executor vs per-node graph replay.

The ``graph-fused`` executor compiles each partition's kernel schedule
into one straight-line generated program (docs/fusion.md) and stores
1-bit signals bit-packed across the batch axis, so a simulated cycle is
a single launch of a few fused kernels instead of hundreds of per-node
dispatches.  This bench measures that end to end: for each design it
times ``graph`` (per-node replay) against ``graph-fused`` under the
fairness protocol of ``bench_ablation_activity._batch_times`` (per
variant warm-up, interleaved repeats) and checks the two executors are
**bit-identical** on every watched output before reporting a speedup.

Running as a script writes ``BENCH_fusion.json`` at the repo root;
``--smoke`` selects the reduced CI configuration.
"""

import argparse
import json
import os
import time

import numpy as np
import pytest

from benchmarks.bench_ablation_activity import _batch_times, _uniform_stim
from benchmarks.common import load_design
from repro.resilience import atomic_write_json
from repro.stimulus.generator import random_batch

DESIGNS = ("counter", "crypto", "spinal")
EXECUTORS = ("graph", "graph-fused")


def _design_stim(prep, n: int, cycles: int, seed: int = 0):
    """Random stimulus for any registered design (reset held one cycle)."""
    if prep.name == "counter":
        return _uniform_stim(n, cycles, 1.0, seed=seed)
    return random_batch(prep.graph.design, n, cycles, seed=seed)


def _outputs(model, n, stim, executor):
    from repro.core.simulator import BatchSimulator

    sim = BatchSimulator(model, n, executor=executor)
    sim.run(stim)
    return {
        s.name: np.asarray(sim.get(s.name)).copy()
        for s in model.design.outputs
    }


def check_bit_identity(model, n, stim):
    """Assert fused output batches equal the unfused executor's, bit for bit."""
    base = _outputs(model, n, stim, "graph")
    fused = _outputs(model, n, stim, "graph-fused")
    for name, want in base.items():
        got = fused[name]
        if not np.array_equal(want, got):
            bad = int(np.flatnonzero(want != got)[0])
            raise AssertionError(
                f"fused executor diverged on output "
                f"{name!r} at lane {bad}: {want[bad]!r} != {got[bad]!r}"
            )
    return sorted(base)


# The verifier is opt-in and runs off-cycle, so turning it on must not
# slow the default simulation path beyond timer noise: 2% relative plus
# a 2ms absolute floor for very short runs on shared runners.
VERIFY_GUARD_REL = 0.02
VERIFY_GUARD_ABS = 0.002


def run_verify_guard(model, n, stim, repeats, sanitized_lanes=256):
    """Verifier-off vs verifier-on timings of the default fused path.

    "On" means what ``repro run --verify`` does once, off-cycle: a full
    static ``verify_model`` pass before the timed run.  Off/on repeats
    are interleaved (same fairness rationale as ``_batch_times``) and
    the best of ``max(3, repeats)`` is kept.  The checked run
    (``sanitize``) is also timed — at a reduced lane count, since it
    intentionally trades throughput for per-step write-set checking —
    and reported without gating.

    Returns ``(t_off, t_on, verify_seconds, t_sanitized, n_sanitized)``
    and asserts the guard: ``t_on <= t_off * 1.02 + 2ms``.
    """
    from repro.core.simulator import BatchSimulator
    from repro.verify import verify_model

    def timed_run(executor, run_stim, lanes):
        sim = BatchSimulator(model, lanes, executor=executor)
        t0 = time.perf_counter()
        sim.run(run_stim)
        return time.perf_counter() - t0

    # Warm-up: untimed default run + one verify pass (lazy imports, rule
    # registration, fused-source compile) so neither side is charged
    # one-time costs.
    timed_run("graph-fused", stim, n)
    report = verify_model(model)
    assert report.clean, report.format_text()

    t_off = t_on = verify_s = None
    for _ in range(max(3, repeats)):
        dt = timed_run("graph-fused", stim, n)
        t_off = dt if t_off is None else min(t_off, dt)
        t0 = time.perf_counter()
        verify_model(model)
        vs = time.perf_counter() - t0
        verify_s = vs if verify_s is None else min(verify_s, vs)
        dt = timed_run("graph-fused", stim, n)
        t_on = dt if t_on is None else min(t_on, dt)

    n_s = min(n, sanitized_lanes)
    stim_s = stim.lanes(0, n_s)
    timed_run("sanitize", stim_s, n_s)  # warm-up
    t_san = timed_run("sanitize", stim_s, n_s)

    assert t_on <= t_off * (1 + VERIFY_GUARD_REL) + VERIFY_GUARD_ABS, (
        f"verifier-on default path regressed: off={t_off * 1e3:.2f}ms "
        f"on={t_on * 1e3:.2f}ms (guard: {VERIFY_GUARD_REL:.0%} + "
        f"{VERIFY_GUARD_ABS * 1e3:.0f}ms)"
    )
    return t_off, t_on, verify_s, t_san, n_s


def run_fusion_bench(n: int = 8192, cycles: int = 300, repeats: int = 3,
                     designs=DESIGNS):
    """Time graph vs graph-fused per design; returns the report payload."""
    results = []
    for name in designs:
        prep = load_design(name)
        model = prep.flow.compile()
        stim = _design_stim(prep, n, cycles)
        # Identity check at a small ragged batch (exercises tail-bit
        # handling) so the check never dominates the timed portion.
        n_check = min(n, 257)
        stim_check = _design_stim(prep, n_check, cycles)
        checked = check_bit_identity(model, n_check, stim_check)
        timed = _batch_times(model, n, stim, EXECUTORS, repeats)
        t_full, _ = timed["graph"]
        t_fused, _ = timed["graph-fused"]
        t_off, t_on, verify_s, t_san, n_s = run_verify_guard(
            model, n, stim, repeats)
        rec = {
            "design": name,
            "batch_full_seconds": t_full,
            "batch_fused_seconds": t_fused,
            "fused_speedup": t_full / t_fused,
            "bit_identical_outputs": checked,
            "verifier_off_seconds": t_off,
            "verifier_on_seconds": t_on,
            "verify_pass_seconds": verify_s,
            "batch_sanitized_seconds": t_san,
            "sanitized_lanes": n_s,
        }
        results.append(rec)
    return {
        "bench": "fusion",
        "n": n,
        "cycles": cycles,
        "repeats": repeats,
        "results": results,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="reduced CI configuration (small n, fewer cycles)")
    ap.add_argument("--n", type=int, default=None)
    ap.add_argument("--cycles", type=int, default=None)
    ap.add_argument("--repeats", type=int, default=None)
    ap.add_argument("--designs", nargs="*", default=None)
    ap.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_fusion.json",
    ))
    args = ap.parse_args(argv)
    if args.smoke:
        n, cycles, repeats = 1024, 100, 2
    else:
        n, cycles, repeats = 8192, 300, 3
    payload = run_fusion_bench(
        n=args.n or n,
        cycles=args.cycles or cycles,
        repeats=args.repeats or repeats,
        designs=tuple(args.designs) if args.designs else DESIGNS,
    )
    atomic_write_json(args.out, payload)
    print(f"wrote {args.out}")
    for rec in payload["results"]:
        print(
            f"  {rec['design']:<10} "
            f"full={rec['batch_full_seconds'] * 1e3:7.1f}ms "
            f"fused={rec['batch_fused_seconds'] * 1e3:7.1f}ms "
            f"speedup={rec['fused_speedup']:.2f}x "
            f"verify={rec['verify_pass_seconds'] * 1e3:5.1f}ms "
            f"sanitized={rec['batch_sanitized_seconds'] * 1e3:7.1f}ms"
            f"@{rec['sanitized_lanes']}"
        )
    return 0


# -- tests --------------------------------------------------------------------


def test_fusion_report_shape(tmp_path):
    payload = run_fusion_bench(n=128, cycles=30, repeats=1, designs=("counter",))
    out = tmp_path / "BENCH_fusion.json"
    atomic_write_json(str(out), payload)
    loaded = json.loads(out.read_text())
    assert loaded["bench"] == "fusion"
    (rec,) = loaded["results"]
    assert rec["design"] == "counter"
    assert rec["batch_fused_seconds"] > 0
    assert rec["fused_speedup"] > 0
    assert rec["bit_identical_outputs"]
    assert rec["verifier_off_seconds"] > 0
    assert rec["verifier_on_seconds"] > 0
    assert rec["batch_sanitized_seconds"] > 0


def test_verifier_does_not_slow_default_path():
    # run_verify_guard asserts t_on <= t_off * 1.02 + 2ms internally.
    prep = load_design("counter")
    model = prep.flow.compile()
    n = 1024
    stim = _uniform_stim(n, 100, 1.0)
    t_off, t_on, verify_s, t_san, n_s = run_verify_guard(model, n, stim, 3)
    assert verify_s > 0 and t_san > 0 and n_s <= n


@pytest.mark.parametrize("name", DESIGNS)
def test_fused_bit_identical_outputs(name):
    prep = load_design(name)
    model = prep.flow.compile()
    stim = _design_stim(prep, 67, 25, seed=5)
    assert check_bit_identity(model, 67, stim)


def test_fused_faster_than_full_on_counter():
    prep = load_design("counter")
    model = prep.flow.compile()
    n = 4096
    stim = _uniform_stim(n, 200, 1.0)
    timed = _batch_times(model, n, stim, EXECUTORS, 3)
    t_full, _ = timed["graph"]
    t_fused, _ = timed["graph-fused"]
    # Acceptance criterion is 3x at n=8192; at this reduced size require a
    # conservative win so the test stays robust on noisy shared runners.
    assert t_fused < t_full, (t_fused, t_full)


if __name__ == "__main__":
    raise SystemExit(main())
