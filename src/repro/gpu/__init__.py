"""Simulated GPU execution model (§3.2.2).

No physical GPU exists in this environment, so this package provides the
substitute documented in DESIGN.md: a :class:`~repro.gpu.device.
SimulatedDevice` that executes kernels (vectorized numpy callables),
charges a modeled per-launch overhead, and accounts busy time for
utilization reporting; plus the two execution strategies the paper
compares, behind the one :class:`~repro.gpu.executor.Executor` protocol:

* :class:`~repro.gpu.stream.StreamExecutor` — re-creates stream/event
  scheduling every cycle (the conventional approach of Fig. 9a),
* :class:`~repro.gpu.graphexec.CudaGraphExecutor` — instantiates the task
  graph once and replays it per cycle with a single launch (Fig. 9b);
  :class:`~repro.gpu.graphexec.FusedProgramExecutor` is its whole-graph
  fused form and the product default.
"""

from repro.gpu.device import SimulatedDevice, DeviceStats
from repro.gpu.executor import Executor
from repro.gpu.stream import StreamExecutor
from repro.gpu.graphexec import CudaGraphExecutor
from repro.gpu.timeline import Tracer, TimelineSpan, render_timeline

__all__ = [
    "SimulatedDevice",
    "DeviceStats",
    "Executor",
    "StreamExecutor",
    "CudaGraphExecutor",
    "Tracer",
    "TimelineSpan",
    "render_timeline",
]
