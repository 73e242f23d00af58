"""CUDA-Graph-style execution (§3.2.2, Fig. 9b).

The task graph is *instantiated once* into an executable plan — a flat,
dependency-respecting kernel order, or (the product engine) one fused
straight-line program per phase, the strongest form of the "whole-graph
optimizations the CUDA runtime can perform".  Each evaluation then
replays the plan with a single launch call, eliminating the per-kernel
stream/event bookkeeping the stream executor re-pays every cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from repro.gpu.device import SimulatedDevice
from repro.gpu.executor import Executor

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
        self.programs = model.fused()

    def run_eval(
        self,
        arrays: DeviceArrays,
        triggered: List[Tuple[str, str]],
        commit: Callable[[Tuple[str, str]], None],
    ) -> None:
        """A whole evaluation as ONE graph launch.

        The launch list is built per evaluation: the sequential programs
        of every triggered domain (all reading pre-edge state through
        shadow slots), then one commit node per domain — the graph's
        device-side copy node, named ``commit_<clock>_<edge>`` in trace
        spans — then the comb settle.  That is :meth:`Executor.run_eval`'s
        order in one launch instead of one per phase.  ``commit`` is the
        owning simulator's ``_commit``, which masks quarantined lanes out
        of the register and memory commits, so quarantined batches take
        the same single launch.
        """
        seq = self.programs.seq
        plan: List[Callable] = [seq[dom].fn for dom in triggered if dom in seq]
        for dom in triggered:
            def commit_node(*_a, _dom=dom):
                commit(_dom)
            commit_node.__name__ = f"commit_{dom[0]}_{dom[1]}"
            plan.append(commit_node)
        plan.append(self.programs.comb.fn)
        self.device.launch_graph(plan, self._args(arrays))
