"""GPU-aware partitioning via MCMC sampling (§3.2.1, Algorithm 1).

The optimizer explores weight vectors for the merge function; the
estimator evaluates each proposed task graph *in real operating
conditions* — it transpiles, compiles and runs the candidate on a small
number of stimulus and cycles, exactly as the paper's estimator does
(Fig. 8's "Compile & Run").

Cost model
----------
The estimator reports *simulated device time*: per comb level, one launch
overhead (graph launch) plus the maximum of the level's kernel busy times
— kernels within a level are independent and run concurrently on the
device (the property Fig. 14 credits for the GPU-aware partition's win).
Oversized tasks serialize work that could overlap; over-fragmented tasks
drown in launch overhead and per-kernel inefficiency.  The MCMC walk
balances the two, and because kernel busy times are *measured*, the
estimate reflects real compiler/runtime behaviour rather than hard-coded
instruction counts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.gpu.device import SimulatedDevice
from repro.gpu.executor import Executor
from repro.obs import get_metrics, get_tracer
from repro.partition.merge import DEFAULT_TARGET_WEIGHT, partition
from repro.partition.taskgraph import TaskGraph
from repro.partition.weights import WeightVector
from repro.resilience.retry import RetryPolicy, call_with_retry
from repro.rtlir.graph import RtlGraph
from repro.utils.errors import RetryExhausted, WatchdogTimeout

DEFAULT_MAX_ITER = 150  # the paper's sampling budget
DEFAULT_MAX_UNIMPROVED = 30
DEFAULT_BETA = 25.0


class Estimator:
    """Compile-and-run cost estimator for a candidate partition."""

    def __init__(
        self,
        graph: RtlGraph,
        n_stimulus: int = 256,
        cycles: int = 64,
        seed: int = 0,
        device: Optional[SimulatedDevice] = None,
        repeats: int = 1,
    ):
        self.graph = graph
        self.n = n_stimulus
        self.cycles = cycles
        self.repeats = max(1, repeats)
        self.device = device or SimulatedDevice()
        self._rng = np.random.default_rng(seed)
        self.evaluations = 0
        # Random input data shared by every estimate so costs compare.
        self._input_data = {
            s.name: self._rng.integers(0, 1 << 32, size=n_stimulus, dtype=np.uint64)
            for s in graph.design.inputs
        }

    def estimate_cost(self, taskgraph: TaskGraph) -> float:
        """Simulated device seconds for one full evaluation cycle."""
        with get_tracer().span("estimate_cost", resource="mcmc"):
            cost = self._estimate_cost(taskgraph)
        get_metrics().observe("mcmc.estimate_cost_seconds", cost)
        return cost

    def _estimate_cost(self, taskgraph: TaskGraph) -> float:
        # Imported lazily: codegen depends on the partition package.
        from repro.core.codegen import KernelCodegen
        from repro.core.memory import DeviceArrays

        self.evaluations += 1
        with get_tracer().span("compile_candidate", resource="mcmc"):
            model = KernelCodegen(taskgraph).compile()
        arrays = DeviceArrays(model.layout, self.n)
        for name, vals in self._input_data.items():
            arrays.write(name, vals)
        args = Executor(model, self.device)._args(arrays)

        # Warm up (first call pays numpy allocation effects).
        for t in taskgraph.tasks:
            model.task_fns[t.tid](*args)

        # Measure per-task kernel time; take the minimum over repeats (the
        # standard noise-robust timing estimator).
        task_time: Dict[int, float] = {}
        for t in taskgraph.tasks:
            fn = model.task_fns[t.tid]
            best = math.inf
            for _ in range(self.repeats):
                t0 = time.perf_counter()
                fn(*args)
                best = min(best, time.perf_counter() - t0)
            task_time[t.tid] = best

        launch = self.device.graph_launch_s
        klaunch = self.device.kernel_launch_s

        # Concurrency-aware device time: per level, kernels overlap.
        per_cycle = 0.0
        for level in taskgraph.comb_levels:
            per_cycle += launch / max(1, len(taskgraph.comb_levels))
            per_cycle += max(task_time[t] for t in level)
            # Each extra kernel in flight still costs a (pipelined) fraction
            # of a launch: concurrency is not free on a real device.
            per_cycle += 0.15 * klaunch * len(level)
        for tid in taskgraph.seq_tasks:
            per_cycle += 0.15 * klaunch
        if taskgraph.seq_tasks:
            per_cycle += launch
            per_cycle += max(task_time[t] for t in taskgraph.seq_tasks)

        return per_cycle * self.cycles


@dataclass
class MCMCResult:
    weights: WeightVector
    best_cost: float
    initial_cost: float
    cost_history: List[float] = field(default_factory=list)
    accepted: int = 0
    iterations: int = 0
    evaluations: int = 0
    # Resilience bookkeeping: trials whose every attempt crashed, hung, or
    # timed out are scored ``inf`` (Metropolis rejects them) instead of
    # aborting the optimization.
    failed_trials: int = 0
    trial_retries: int = 0
    trial_timeouts: int = 0

    @property
    def improvement(self) -> float:
        if (self.initial_cost <= 0
                or not math.isfinite(self.initial_cost)
                or not math.isfinite(self.best_cost)):
            return 0.0
        return (self.initial_cost - self.best_cost) / self.initial_cost


class MCMCPartitioner:
    """Algorithm 1: Metropolis–Hastings over partition weight vectors."""

    def __init__(
        self,
        graph: RtlGraph,
        estimator: Optional[Estimator] = None,
        target_weight: float = DEFAULT_TARGET_WEIGHT,
        beta: float = DEFAULT_BETA,
        seed: int = 0,
        max_iter: int = DEFAULT_MAX_ITER,
        max_unimproved: int = DEFAULT_MAX_UNIMPROVED,
        strategy: str = "levelpack",
        top_k: int = 30,
        retry: Optional[RetryPolicy] = None,
        fault_plan=None,
    ):
        self.graph = graph
        self.estimator = estimator or Estimator(graph)
        self.target_weight = target_weight
        self.beta = beta
        self.rng = np.random.default_rng(seed)
        self.max_iter = max_iter
        self.max_unimproved = max_unimproved
        self.strategy = strategy
        self.top_k = top_k
        # Watchdog + bounded retry around the compile-and-run trials: a
        # crashed or hung candidate scores ``inf`` (rejected) instead of
        # killing the whole optimization.  ``fault_plan`` injects scripted
        # trial failures (see repro.resilience.inject) for testing.
        #
        # Contract when ``fault_plan`` is set but ``retry`` is None: the
        # trials run under ``RetryPolicy()`` defaults (max_attempts=2, no
        # timeout), so a persistent injected fault is retried once before
        # scoring ``inf`` — pass an explicit ``RetryPolicy(max_attempts=1)``
        # to observe each injected fault exactly once.  Hang injections are
        # only bounded when the effective policy sets ``timeout_s``; with
        # no timeout a hang simply sleeps its scripted duration and the
        # trial returns a normal (untimed-out) cost.
        self.retry = retry
        self.fault_plan = fault_plan
        self._failed_trials = 0
        self._trial_retries = 0
        self._trial_timeouts = 0

    def propose(self, weights: WeightVector) -> TaskGraph:
        return partition(
            self.graph,
            weights=weights,
            target_weight=self.target_weight,
            strategy=self.strategy,
        )

    def accept_rate(self, new_cost: float, cur_cost: float) -> float:
        """Eq. 3: min(1, exp(beta * (cost(G) - cost(G*))))."""
        if math.isinf(cur_cost):
            return 1.0
        rel = (cur_cost - new_cost) / max(cur_cost, 1e-12)
        return min(1.0, math.exp(self.beta * rel))

    def optimize(self) -> MCMCResult:
        with get_tracer().span("mcmc.optimize", resource="mcmc"):
            result = self._optimize()
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("mcmc.runs")
            metrics.inc("mcmc.iterations", result.iterations)
            metrics.inc("mcmc.evaluations", result.evaluations)
            metrics.inc("mcmc.accepted", result.accepted)
            metrics.set_gauge(
                "mcmc.acceptance_rate",
                result.accepted / result.iterations if result.iterations else 0.0,
            )
            # Failed trials score inf; keep non-finite values out of the
            # gauges and the trajectory (JSON export chokes on Infinity).
            if math.isfinite(result.initial_cost):
                metrics.set_gauge("mcmc.initial_cost", result.initial_cost)
            if math.isfinite(result.best_cost):
                metrics.set_gauge("mcmc.best_cost", result.best_cost)
            metrics.set_gauge("mcmc.improvement", result.improvement)
            if result.failed_trials:
                metrics.inc("mcmc.trials_failed", result.failed_trials)
            if result.trial_retries:
                metrics.inc("mcmc.trial_retries", result.trial_retries)
            if result.trial_timeouts:
                metrics.inc("mcmc.trial_timeouts", result.trial_timeouts)
            for cost in result.cost_history:
                if math.isfinite(cost):
                    metrics.observe("mcmc.cost_trajectory", cost)
        return result

    def _trial_cost(self, taskgraph: TaskGraph, iteration: int) -> float:
        """One guarded compile-and-run trial (Algorithm 1 line 9).

        Without a retry policy or fault plan this is a plain estimate
        (zero overhead).  Otherwise the trial runs under the watchdog +
        bounded-retry harness; exhaustion scores ``inf``, which the
        Metropolis step always rejects.

        A ``fault_plan`` with no explicit ``retry`` policy uses
        ``RetryPolicy()`` defaults (max_attempts=2, no timeout) — see the
        constructor notes for how that interacts with persistent-fault
        and hang injections.
        """
        if self.retry is None and self.fault_plan is None:
            return self.estimator.estimate_cost(taskgraph)

        def attempt() -> float:
            if self.fault_plan is not None:
                self.fault_plan.maybe_fail_trial(iteration)
            return self.estimator.estimate_cost(taskgraph)

        def on_failure(_attempt: int, exc: BaseException) -> None:
            self._trial_retries += 1
            if isinstance(exc, WatchdogTimeout):
                self._trial_timeouts += 1

        policy = self.retry if self.retry is not None else RetryPolicy()
        try:
            return call_with_retry(
                attempt, policy, label=f"mcmc trial {iteration}",
                on_failure=on_failure,
            )
        except RetryExhausted:
            self._failed_trials += 1
            return math.inf

    def _optimize(self) -> MCMCResult:
        weights = WeightVector.ones(self.graph, self.top_k)  # line 5
        cur_cost = math.inf  # line 1
        best = weights.copy()
        best_cost = math.inf
        self._failed_trials = self._trial_retries = self._trial_timeouts = 0
        initial_cost = self._trial_cost(self.propose(weights), 0)
        cur_cost = initial_cost
        best_cost = initial_cost
        history = [initial_cost]
        accepted = 0
        cnt = 0
        it = 0
        while cnt < self.max_unimproved and it < self.max_iter:  # line 6
            it += 1
            candidate = weights.copy()
            candidate.random_increase(self.rng)  # line 7
            graph = self.propose(candidate)  # line 8
            cost = self._trial_cost(graph, it)  # line 9
            history.append(cost)
            if cur_cost > cost:  # lines 10-14
                weights = candidate
                cur_cost = cost
                accepted += 1
                cnt = 0
            else:  # lines 15-21
                rand = self.rng.uniform(0.0, 1.0)
                if self.accept_rate(cost, cur_cost) > rand:
                    weights = candidate
                    cur_cost = cost
                    accepted += 1
                cnt += 1
            if cur_cost < best_cost:
                best = weights.copy()
                best_cost = cur_cost
        return MCMCResult(
            weights=best,
            best_cost=best_cost,
            initial_cost=initial_cost,
            cost_history=history,
            accepted=accepted,
            iterations=it,
            evaluations=self.estimator.evaluations,
            failed_trials=self._failed_trials,
            trial_retries=self._trial_retries,
            trial_timeouts=self._trial_timeouts,
        )
