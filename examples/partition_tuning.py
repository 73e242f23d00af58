"""GPU-aware partition tuning with MCMC (Algorithm 1) on the SoC design.

Shows the estimator/optimizer loop of Fig. 8: each sampling iteration
proposes a weight vector, re-partitions the RTL graph, *compiles and runs*
the candidate, and accepts/rejects by the Metropolis–Hastings rule.

Run:  python examples/partition_tuning.py
"""

from repro import BatchSimulator, RTLFlow
from repro.designs import get_design
from repro.partition.merge import partition


def main() -> None:
    bundle = get_design("spinal", taps=8)
    flow = RTLFlow.from_source(bundle.source, bundle.top)

    default_tg = partition(flow.graph)
    print("default (hard-coded weights) partition:", default_tg.stats())

    result = flow.optimize_partition(
        n_stimulus=64, cycles=8, max_iter=30, max_unimproved=10, seed=1
    )
    mcmc_tg = partition(flow.graph, weights=result.weights)

    print("MCMC partition:", mcmc_tg.stats())
    print(f"\nsampling: {result.iterations} iterations, "
          f"{result.accepted} accepted, "
          f"cost {result.initial_cost * 1e3:.3f} ms -> "
          f"{result.best_cost * 1e3:.3f} ms per estimated cycle "
          f"({result.improvement:.0%} better)")

    # Cost trace (the Markov chain walking downhill, mostly).
    history = result.cost_history
    lo, hi = min(history), max(history)
    print("\ncost history (each row one iteration):")
    for i, c in enumerate(history):
        bar = "#" * int(1 + 40 * (c - lo) / (hi - lo + 1e-12))
        print(f"  {i:3d} {c * 1e3:8.3f} ms {bar}")

    # The tuned partition drives a per-task engine (the fused default
    # engine does not partition, so it has nothing to tune).
    sim = BatchSimulator(flow.compile(use_mcmc=True), 256, executor="graph")
    stim = bundle.make_stimulus(256, 50, seed=2)
    outs = sim.run(stim)
    print(f"\nsimulated 256 stimulus with the tuned partition; "
          f"checksum[0..4] = {outs['checksum'][:4]}")


if __name__ == "__main__":
    main()
