"""The one protocol :class:`~repro.core.simulator.BatchSimulator` speaks.

Every evaluation is the same three steps in the same order (CCSS's
sequential-compute → synchronise → combinational-settle): the sequential
programs of every triggered clock domain, all reading pre-edge state;
the per-domain register/memory commits; the comb settle.  That order is
:meth:`Executor.run_eval`, and it is the only call the simulator makes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.gpu.device import SimulatedDevice

if TYPE_CHECKING:  # type-only: avoids a core <-> gpu import cycle
    from repro.core.codegen import CompiledModel
    from repro.core.memory import DeviceArrays

Domain = Tuple[str, str]  # (clock, edge)


class Executor:
    """Base of every replay engine.

    The simulator reads ``layout`` (the memory layout to allocate
    :class:`DeviceArrays` for) and ``mem_writes`` (commit bindings for
    that layout), calls :meth:`reset_activity` after a host write the
    engine cannot observe itself (a memory load, a non-input write, a
    checkpoint restore), and otherwise only :meth:`run_eval`.

    ``layout`` and ``mem_writes`` are the model's own: every engine runs
    on the one layout, so a checkpoint taken on one engine restores on
    any other.
    """

    name = ""

    def __init__(self, model: "CompiledModel", device: SimulatedDevice):
        self.model = model
        self.device = device
        self.layout = model.layout
        self.mem_writes = model.mem_writes
        self._args_cache: Optional[Tuple[object, tuple]] = None

    def reset_activity(self) -> None:
        """Forget activity state (only ``graph-conditional`` keeps any)."""

    def run_seq(self, arrays: "DeviceArrays", clock: str, edge: str) -> None:
        raise NotImplementedError

    def run_comb(self, arrays: "DeviceArrays") -> None:
        raise NotImplementedError

    def run_eval(
        self,
        arrays: "DeviceArrays",
        triggered: List[Domain],
        commit: Callable[[Domain], None],
    ) -> None:
        """One evaluation.  Non-blocking semantics across domains: when
        several clocks edge together, every domain's next state computes
        from the pre-edge state before any domain commits.  ``commit`` is
        the owning simulator's domain commit (it masks quarantined
        lanes)."""
        for domain in triggered:
            self.run_seq(arrays, *domain)
        for domain in triggered:
            commit(domain)
        self.run_comb(arrays)

    def _args(self, arrays: "DeviceArrays") -> tuple:
        """The arguments of every generated program:
        ``(P8, P16, P32, P64, P1, N, W, LANE)``."""
        # One simulator binds one DeviceArrays; restore() copies into the
        # pools in place, so the cached tuple stays valid across
        # checkpoint restores.
        cached = self._args_cache
        if cached is not None and cached[0] is arrays:
            return cached[1]
        p = arrays.pools
        args = (p[0], p[1], p[2], p[3], p[4], arrays.n, arrays.words,
                arrays.lane)
        self._args_cache = (arrays, args)
        return args
