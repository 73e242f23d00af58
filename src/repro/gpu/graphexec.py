"""CUDA-Graph-style execution (§3.2.2, Fig. 9b).

The task graph is *instantiated once* into an executable plan — a flat,
dependency-respecting kernel order, or (the product engine) one fused
straight-line program per phase, the strongest form of the "whole-graph
optimizations the CUDA runtime can perform".  Each evaluation then
replays the plan with a single launch call, eliminating the per-kernel
stream/event bookkeeping the stream executor re-pays every cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.gpu.device import SimulatedDevice
from repro.gpu.executor import Executor
from repro.obs import get_metrics, get_tracer
from repro.utils.errors import SimulationError

if TYPE_CHECKING:  # type-only: avoids a core <-> gpu import cycle
    from repro.core.codegen import CompiledModel
    from repro.core.memory import DeviceArrays


class CudaGraphExecutor(Executor):
    """Define-once-run-repeatedly replay of the per-task kernels (the
    paper's Table 4 ``graph`` row; the product runs ``graph-fused``)."""

    name = "graph"

    def __init__(self, model: CompiledModel, device: SimulatedDevice):
        super().__init__(model, device)
        # --- cudaGraphInstantiate analog: done exactly once -------------
        self._comb_plan: List[Callable] = [
            model.task_fns[t] for t in model.comb_schedule()
        ]
        self._seq_plans: Dict[Tuple[str, str], List[Callable]] = {
            dom: [model.task_fns[t] for t in model.seq_schedule(*dom)]
            for dom in model.clock_domains()
        }

    def run_comb(self, arrays: DeviceArrays) -> None:
        if self._comb_plan:
            self.device.launch_graph(self._comb_plan, self._args(arrays))

    def run_seq(self, arrays: DeviceArrays, clock: str, edge: str) -> None:
        plan = self._seq_plans.get((clock, edge))
        if plan:
            self.device.launch_graph(plan, self._args(arrays))


class FusedProgramExecutor(Executor):
    """Flat-program replay (§3.2.2, strongest).

    Executes the :class:`~repro.core.codegen.FusedPrograms` lowering of
    the model: one straight-line compiled program for the whole comb
    phase and one per sequential clock domain — no per-task Python
    dispatch survives on the replay path (and the per-task module is
    never built).
    """

    name = "graph-fused"

    def __init__(self, model: CompiledModel, device: SimulatedDevice):
        super().__init__(model, device)
        self.programs = programs = model.fused()
        # cudaGraphInstantiate analog: plans are fixed at construction.
        self._comb_plan: List[Callable] = [programs.comb.fn]
        self._seq_plans: Dict[Tuple[str, str], List[Callable]] = {
            dom: [p.fn] for dom, p in programs.seq.items()
        }
        self._eval_plans: Dict[tuple, List[Callable]] = {}
        self._eval_commit: Optional[Callable] = None

    def run_comb(self, arrays: DeviceArrays) -> None:
        self.device.launch_graph(self._comb_plan, self._args(arrays))

    def run_seq(self, arrays: DeviceArrays, clock: str, edge: str) -> None:
        plan = self._seq_plans.get((clock, edge))
        if plan:
            self.device.launch_graph(plan, self._args(arrays))

    def run_eval(
        self,
        arrays: DeviceArrays,
        triggered: List[Tuple[str, str]],
        commit: Callable[[Tuple[str, str]], None],
    ) -> None:
        """A whole evaluation as ONE graph launch.

        The plan is: sequential programs of every triggered domain (all
        reading pre-edge state through shadow slots), then the per-domain
        register/memory commits — modeled as the graph's device-side copy
        nodes — then the comb settle.  Identical ordering to the generic
        ``run_seq``/commit/``run_comb`` sequence in the simulator, minus
        two launch calls and the Python in between.  ``commit`` must be
        the owning simulator's domain-commit callable.  Every per-cycle
        evaluation of the simulator comes here, quarantined lanes or
        not: the commit node is the simulator's ``_commit``, which masks
        dead lanes out of the register and memory commits.
        """
        if commit is not self._eval_commit:
            # A different simulator took over this executor: cached plans
            # hold the previous owner's commit nodes.
            self._eval_plans.clear()
            self._eval_commit = commit
        key = tuple(triggered)
        plan = self._eval_plans.get(key)
        if plan is None:
            plan = []
            for dom in triggered:
                plan.extend(self._seq_plans.get(dom, ()))
            for dom in triggered:
                def commit_node(*_a, _dom=dom):
                    commit(_dom)
                commit_node.__name__ = f"commit_{dom[0]}_{dom[1]}"
                plan.append(commit_node)
            plan.extend(self._comb_plan)
            self._eval_plans[key] = plan
        self.device.launch_graph(plan, self._args(arrays))


class ConditionalGraphExecutor(Executor):
    """Activity-aware variant of the CUDA-Graph executor (dirty-set replay).

    The unconditional executor replays every macro task each cycle — work
    proportional to design size regardless of stimulus activity (the §2.3
    trade-off the event-driven baseline exploits).  This executor keeps
    the define-once plan but, before each replay, intersects every task's
    read footprint (:meth:`CompiledModel.task_accesses`) with the per-
    offset write epochs maintained by :class:`DeviceArrays`:

    * a task is *dirty* when any offset it reads was written after the
      task's last execution (host input writes, register commits, memory
      commits, or an upstream task in this very replay);
    * dirtiness propagates through the task DAG in topological order —
      a dirty task marks its write offsets *before* downstream tasks are
      examined, so transitive wake-up costs one pass, no fixpoint;
    * clean tasks are skipped entirely: their outputs still hold exactly
      the value a re-execution would recompute (their inputs have not
      changed), which is what keeps conditional replay bit-identical to
      the unconditional executor.

    Requires a ``DeviceArrays`` built with ``track_epochs=True`` (the
    simulator arranges this via ``wants_epochs``).  Skip-rate
    telemetry: ``tasks_run``/``tasks_skipped`` attributes, the
    ``executor.tasks_run``/``executor.tasks_skipped`` counters in
    :mod:`repro.obs` metrics, and a ``dirty_check`` tracer span per
    replay.
    """

    name = "graph-conditional"
    wants_epochs = True

    def __init__(
        self,
        model: CompiledModel,
        device: SimulatedDevice,
        tracer=None,
        metrics=None,
    ):
        super().__init__(model, device)
        self.tracer = tracer if tracer is not None else get_tracer()
        self.metrics = metrics if metrics is not None else get_metrics()
        self._fns = model.task_fns
        self._access = model.task_accesses()
        # Hot-path representation of the footprints: scattered offset sets
        # are almost always tiny (a task reads a handful of signals), and
        # plain-Python scalar indexing beats a numpy fancy-index + .max()
        # by an order of magnitude at that size.  Large sets and memory
        # ranges stay vectorized.
        self._reads_small: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
        self._reads_big: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        self._read_ranges: Dict[int, List[Tuple[int, int, int]]] = {}
        self._writes_small: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
        self._writes_big: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        for tid, acc in self._access.items():
            self._reads_small[tid] = [
                (p, tuple(int(o) for o in offs))
                for p, offs in acc.read_offsets if offs.size <= 16
            ]
            self._reads_big[tid] = [
                (p, offs) for p, offs in acc.read_offsets if offs.size > 16
            ]
            self._read_ranges[tid] = [
                (p, lo, hi) for p, lo, hi in acc.read_ranges if hi > lo
            ]
            self._writes_small[tid] = [
                (p, tuple(int(o) for o in offs))
                for p, offs in acc.write_offsets if offs.size <= 16
            ]
            self._writes_big[tid] = [
                (p, offs) for p, offs in acc.write_offsets if offs.size > 16
            ]
        self._comb_order: List[int] = model.comb_schedule()
        self._comb_preds = model.taskgraph.preds
        self._seq_plans: Dict[Tuple[str, str], List[int]] = {
            dom: model.seq_schedule(*dom) for dom in model.clock_domains()
        }
        self.tasks_run = 0
        self.tasks_skipped = 0
        # Per-task epoch of last execution, valid for one DeviceArrays
        # instance at a time (a simulator binds 1:1; rebinding resets).
        self._last_run: Dict[int, int] = {}
        self._bound: Optional[DeviceArrays] = None

    # -- bookkeeping ----------------------------------------------------------

    def _bind(self, arrays: DeviceArrays) -> None:
        if arrays is self._bound:
            return
        if not arrays.track_epochs:
            raise SimulationError(
                "the graph-conditional executor needs DeviceArrays built "
                "with track_epochs=True (BatchSimulator does this when the "
                "executor advertises wants_epochs)"
            )
        self._bound = arrays
        self._last_run = {}

    def reset_activity(self) -> None:
        """Forget every task's last-run epoch (all tasks dirty once).

        Checkpoint restore rewinds the arrays' write epochs; stale
        last-run epochs from beyond the restore point would then make
        tasks look clean when their inputs are about to change.  The
        simulator calls this after every restore so the first replay
        re-executes everything against the restored state.
        """
        self._last_run = {}

    def _dirty(self, arrays: DeviceArrays, tid: int, last: int) -> bool:
        if last < 0:
            return True
        ep = arrays.write_epochs
        for pool, offs in self._reads_small[tid]:
            col = ep[pool]
            for o in offs:
                if col[o] > last:
                    return True
        for pool, offs in self._reads_big[tid]:
            if int(ep[pool][offs].max()) > last:
                return True
        for pool, lo, hi in self._read_ranges[tid]:
            if int(ep[pool][lo:hi].max()) > last:
                return True
        return False

    def _select(
        self,
        arrays: DeviceArrays,
        tids: List[int],
        preds: Optional[Dict[int, Set[int]]],
    ) -> List[Callable]:
        """One topo pass: pick dirty tasks, marking writes as we go."""
        plan: List[Callable] = []
        ran: Set[int] = set()
        epoch = 0
        last_run = self._last_run
        ep = arrays.write_epochs
        for tid in tids:
            last = last_run.get(tid, -1)
            woken = preds is not None and not ran.isdisjoint(
                preds.get(tid, ())
            )
            if not (woken or self._dirty(arrays, tid, last)):
                continue
            if not plan:
                epoch = arrays.bump_epoch()
            for pool, offs in self._writes_small[tid]:
                col = ep[pool]
                for o in offs:
                    col[o] = epoch
            for pool, offs in self._writes_big[tid]:
                ep[pool][offs] = epoch
            last_run[tid] = epoch
            ran.add(tid)
            plan.append(self._fns[tid])
        n_run, n_skip = len(plan), len(tids) - len(plan)
        self.tasks_run += n_run
        self.tasks_skipped += n_skip
        if self.metrics.enabled:
            if n_run:
                self.metrics.inc("executor.tasks_run", n_run)
            if n_skip:
                self.metrics.inc("executor.tasks_skipped", n_skip)
        return plan

    @property
    def skip_rate(self) -> float:
        total = self.tasks_run + self.tasks_skipped
        return self.tasks_skipped / total if total else 0.0

    # -- executor interface ----------------------------------------------------

    def run_comb(self, arrays: DeviceArrays) -> None:
        self._bind(arrays)
        if not self._comb_order:
            return
        if self.tracer.enabled:
            with self.tracer.span("dirty_check", resource="sim"):
                plan = self._select(arrays, self._comb_order, self._comb_preds)
        else:
            plan = self._select(arrays, self._comb_order, self._comb_preds)
        if plan:
            self.device.launch_graph(plan, self._args(arrays))

    def run_seq(self, arrays: DeviceArrays, clock: str, edge: str) -> None:
        self._bind(arrays)
        tids = self._seq_plans.get((clock, edge))
        if not tids:
            return
        # Sequential tasks are mutually independent (they all read
        # pre-edge state), so no wake-up propagation is needed.
        if self.tracer.enabled:
            with self.tracer.span("dirty_check", resource="sim"):
                plan = self._select(arrays, tids, None)
        else:
            plan = self._select(arrays, tids, None)
        if plan:
            self.device.launch_graph(plan, self._args(arrays))
