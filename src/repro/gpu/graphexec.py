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
    read footprint (:meth:`CompiledModel.task_accesses`) with per-offset
    *write epochs* it keeps itself (one int64 per pool offset, shared by
    the batch axis, and a monotone counter):

    * external state — every offset some task reads and no task writes:
      inputs (clocks included) and registers' current slots — is
      compared by value against a saved copy, inputs when an evaluation
      starts and a domain's registers after its commit, so only offsets
      whose values changed are marked (an identical rewrite stays quiet);
    * a memory is marked whole after the sequential phase when any lane's
      write to it is enabled and in range (a dynamic ``mem[idx]`` read
      may touch any word);
    * a task is *dirty* when any offset it reads was marked after the
      task's last execution; dirtiness propagates through the task DAG in
      topological order — a dirty task marks its write offsets *before*
      downstream tasks are examined, so transitive wake-up costs one
      pass, no fixpoint;
    * clean tasks are skipped entirely: their outputs still hold exactly
      the value a re-execution would recompute (their inputs have not
      changed), which is what keeps conditional replay bit-identical to
      the unconditional executor.

    Any other host write (a memory load, a non-input write, a restore)
    must reach :meth:`reset_activity`; the simulator routes its write
    hook there.  Skip-rate telemetry: ``tasks_run``/``tasks_skipped``
    attributes, the ``executor.tasks_run``/``executor.tasks_skipped``
    counters in :mod:`repro.obs` metrics, and a ``dirty_check`` tracer
    span per replay.
    """

    name = "graph-conditional"

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
        layout = self.layout
        # External state is watched in contiguous (pool, lo, count)
        # ranges: registers per clock domain (layout.reg_ranges), every
        # other offset some task reads and no task writes (inputs, clocks
        # included) in runs per pool.
        regs = {(p, o) for ranges in layout.reg_ranges.values()
                for p, lo, count in ranges for o in range(lo, lo + count)}
        accs = self._access.values()
        reads = {(p, int(o)) for acc in accs
                 for p, offs in acc.read_offsets for o in offs}
        writes = {(p, int(o)) for acc in accs
                  for p, offs in acc.write_offsets for o in offs}
        self._input_ranges: List[List[int]] = []
        for p, o in sorted(reads - writes - regs):
            last = self._input_ranges[-1] if self._input_ranges else None
            if last is not None and last[0] == p and last[1] + last[2] == o:
                last[2] += 1
            else:
                self._input_ranges.append([p, o, 1])
        self._epochs: List[np.ndarray] = [
            np.zeros(max(1, size), dtype=np.int64)
            for size in layout.pool_sizes + [layout.packed_size]
        ]
        self._epoch = 0
        self.tasks_run = 0
        self.tasks_skipped = 0
        # Per-task epoch of last execution, valid for one DeviceArrays
        # instance at a time (a simulator binds 1:1; rebinding resets).
        self._last_run: Dict[int, int] = {}
        self._synced = False
        self._bound: Optional[DeviceArrays] = None

    # -- bookkeeping ----------------------------------------------------------

    def _bind(self, arrays: DeviceArrays) -> None:
        """Build the watched ranges ``[pool, lo, (rows, unit) view, saved
        bytes]`` and the memory write ports' (cond, addr) views over
        ``arrays``."""
        if arrays is self._bound:
            return
        from repro.core.memory import PACKED_POOL  # repro.core imports us

        self._bound = arrays
        pools, n = arrays.pools, arrays.n

        def watch(pool: int, lo: int, count: int):
            unit = arrays.words if pool == PACKED_POOL else n
            view = pools[pool][lo * unit : (lo + count) * unit]
            return [pool, lo, view.reshape(count, unit), view.tobytes()]

        self._inputs = [watch(*r) for r in self._input_ranges]
        self._regs = {dom: [watch(*r) for r in ranges]
                      for dom, ranges in self.layout.reg_ranges.items()}
        self._ports: Dict[Tuple[str, str], list] = {}
        for b in self.mem_writes:
            self._ports.setdefault((b.clock, b.edge), []).append((
                pools[b.cond_pool][b.cond_off * n : (b.cond_off + 1) * n],
                pools[b.addr_pool][b.addr_off * n : (b.addr_off + 1) * n],
                np.uint64(b.mem_depth),
                (b.mem_pool, b.mem_base, b.mem_base + b.mem_depth),
            ))
        self.reset_activity()

    def reset_activity(self) -> None:
        """Forget every task's last run (all tasks dirty once).

        Called after any host write the value comparisons do not see (a
        memory load, a non-input write, a checkpoint restore): the next
        evaluation re-executes everything against the new state and
        re-reads the saved copies of external state.
        """
        self._last_run = {}
        self._synced = False

    def _bump(self) -> int:
        self._epoch += 1
        return self._epoch

    def _observe(self, watched) -> None:
        """Mark the watched offsets whose values changed since the last
        look, and save the new values; after a reset, only save.  A
        byte compare of the whole range is the cheap common case."""
        if not self._synced:
            for ranges in (self._inputs, *self._regs.values()):
                for w in ranges:
                    w[3] = w[2].tobytes()
            self._synced = True
            return
        epoch = 0
        for w in watched:
            pool, lo, view, seen = w
            now = view.tobytes()
            if now == seen:
                continue
            old = np.frombuffer(seen, dtype=view.dtype).reshape(view.shape)
            rows = np.nonzero((view != old).any(axis=1))[0]
            if not epoch:
                epoch = self._bump()
            self._epochs[pool][lo + rows] = epoch
            w[3] = now

    def _mark_memories(self, domain: Tuple[str, str]) -> None:
        """Mark every memory with an enabled, in-range write this edge."""
        for cond, addr, depth, (pool, lo, hi) in self._ports.get(domain, ()):
            if ((cond != 0) & (addr < depth)).any():
                self._epochs[pool][lo:hi] = self._bump()

    def _dirty(self, tid: int, last: int) -> bool:
        if last < 0:
            return True
        ep = self._epochs
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
        self, tids: List[int], preds: Optional[Dict[int, Set[int]]],
    ) -> List[Callable]:
        """One topo pass: pick dirty tasks, marking writes as we go."""
        plan: List[Callable] = []
        ran: Set[int] = set()
        epoch = 0
        last_run = self._last_run
        ep = self._epochs
        for tid in tids:
            last = last_run.get(tid, -1)
            woken = preds is not None and not ran.isdisjoint(
                preds.get(tid, ())
            )
            if not (woken or self._dirty(tid, last)):
                continue
            if not plan:
                epoch = self._bump()
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

    def _replay(
        self, arrays: DeviceArrays, tids: List[int],
        preds: Optional[Dict[int, Set[int]]],
    ) -> None:
        if not tids:
            return
        if self.tracer.enabled:
            with self.tracer.span("dirty_check", resource="sim"):
                plan = self._select(tids, preds)
        else:
            plan = self._select(tids, preds)
        if plan:
            self.device.launch_graph(plan, self._args(arrays))

    def run_eval(
        self,
        arrays: DeviceArrays,
        triggered: List[Tuple[str, str]],
        commit: Callable[[Tuple[str, str]], None],
    ) -> None:
        """:meth:`Executor.run_eval` with the activity bookkeeping: inputs
        are compared first, memories marked after every triggered
        domain's sequential tasks (they all read pre-edge state, so no
        wake-up propagation among them), registers compared after the
        commits, then the comb settle.  The only entry point: a lone
        ``run_seq`` or ``run_comb`` would miss those observations."""
        self._bind(arrays)
        self._observe(self._inputs)
        for dom in triggered:
            self._replay(arrays, self._seq_plans.get(dom, ()), None)
        for dom in triggered:
            self._mark_memories(dom)
        for dom in triggered:
            commit(dom)
        for dom in triggered:
            self._observe(self._regs.get(dom, ()))
        self._replay(arrays, self._comb_order, self._comb_preds)
