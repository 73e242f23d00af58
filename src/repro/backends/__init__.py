"""Pluggable executor backends over the backend-neutral kernel IR.

``--backend`` (CLI) / ``backend=`` (API) selects how task-graph
partitions are lowered to the fused-program bundle the simulator
executes:

* ``numpy`` — the default three-tier fused source emission (the
  performance baseline; byte-identical to the pre-backend flow);
* ``tensor`` — kernel-IR interpretation with einsum/matmul-style
  packing and memory gather (the reference consumer of
  :mod:`repro.backends.ir`).

Both backends produce :class:`~repro.core.codegen.FusedPrograms`
bundles that are bit-identical at every store boundary, so executors,
checkpoints and cluster shard merges compose across backends.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.backends.base import Backend
from repro.backends.ir import KernelIR, build_kernel_ir, validate_ir
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.tensor_backend import TensorBackend
from repro.utils.errors import SimulationError

__all__ = [
    "Backend",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "backend_report",
    "get_backend",
    "KernelIR",
    "build_kernel_ir",
    "validate_ir",
]

DEFAULT_BACKEND = "numpy"

#: Registry, in documentation order (default first).
BACKENDS: Dict[str, Type[Backend]] = {
    cls.name: cls for cls in (NumpyBackend, TensorBackend)
}


def get_backend(name: str) -> Backend:
    """Instantiate backend ``name``, or raise a helpful error."""
    cls = BACKENDS.get(name)
    if cls is None:
        raise SimulationError(
            f"unknown backend {name!r}; known backends: "
            + ", ".join(sorted(BACKENDS))
        )
    return cls()


def backend_report() -> List[Dict[str, object]]:
    """Plain-data registry listing (``repro stats --json``)."""
    return [
        {"name": name, "summary": cls.summary}
        for name, cls in BACKENDS.items()
    ]
