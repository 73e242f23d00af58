"""The executor-backend contract.

A backend is a *lowering strategy*: it turns a compiled model's task
graph into a :class:`~repro.core.codegen.FusedPrograms` bundle whose
programs all share one call signature::

    fn(P8, P16, P32, P64, P1, N, W, LANE)

over the same ``pack_bits=True`` pooled memory layout.  Everything
downstream — :class:`~repro.gpu.graphexec.FusedProgramExecutor`, the
commit bindings, checkpoints, quarantine, stimulus pre-packing — is
backend-agnostic: it only sees the bundle.  That is the whole trick
that lets ``--backend`` select a lowering without forking the flow.

Contract (see ``docs/backends.md`` for the long form):

* ``name`` — the registry key users pass to ``--backend``.
* ``compile(model)`` — lower ``model`` to a bundle.  The bundle MUST be
  bit-identical to the numpy lowering at every store boundary: pool
  state after each program call must match byte for byte.  The
  translation validator and the cross-backend differential matrix in
  ``tests/test_backends.py`` enforce this.
* ``describe()`` — one line for ``repro stats``/docs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.codegen import CompiledModel, FusedPrograms

__all__ = ["Backend"]


class Backend:
    """Base class for executor backends (see module docstring)."""

    #: Registry key (the ``--backend`` value).
    name: str = ""
    #: Short human description for ``repro stats`` and docs.
    summary: str = ""

    def compile(self, model: "CompiledModel") -> "FusedPrograms":
        raise NotImplementedError

    def describe(self) -> str:
        return self.summary or self.name
