"""The simulated GPU device.

Stands in for the A6000 of the paper's experiments (see the substitution
table in DESIGN.md).  Kernels are vectorized numpy callables; the device

* executes them while accounting *busy time* (for the GPU-utilization
  figures 2 and 15),
* charges a modeled per-CUDA-call overhead in *virtual time* (the Fig. 9
  cost the stream-based executor accumulates and CUDA Graph removes), and
* counts launches, event operations and synchronizations so experiments
  can report exactly which overheads the execution strategy removed.

The per-launch Python dispatch cost is itself real, so wall-clock
comparisons between the stream and graph executors show the same *shape*
as the paper's Table 4 even before virtual-time accounting is added.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.obs import get_tracer
from repro.obs.trace import Tracer

# Defaults are in the ballpark of measured CUDA driver costs: a few
# microseconds per kernel launch / event op, slightly more for a whole
# cudaGraphLaunch.
DEFAULT_KERNEL_LAUNCH_US = 4.0
DEFAULT_EVENT_OP_US = 1.5
DEFAULT_GRAPH_LAUNCH_US = 6.0
DEFAULT_SYNC_US = 3.0


@dataclass
class DeviceStats:
    kernel_launches: int = 0
    graph_launches: int = 0
    event_ops: int = 0
    sync_calls: int = 0
    busy_seconds: float = 0.0  # time spent inside kernel bodies
    overhead_seconds: float = 0.0  # modeled CUDA-call overhead (virtual)

    def reset(self) -> None:
        self.kernel_launches = 0
        self.graph_launches = 0
        self.event_ops = 0
        self.sync_calls = 0
        self.busy_seconds = 0.0
        self.overhead_seconds = 0.0

    def clone(self) -> "DeviceStats":
        """An independent copy (for rollback of partial accounting)."""
        return DeviceStats(
            kernel_launches=self.kernel_launches,
            graph_launches=self.graph_launches,
            event_ops=self.event_ops,
            sync_calls=self.sync_calls,
            busy_seconds=self.busy_seconds,
            overhead_seconds=self.overhead_seconds,
        )

    def load(self, other: "DeviceStats") -> None:
        """Overwrite this instance's counters with ``other``'s, in place
        (callers hold references to ``device.stats``, so rollback must
        not swap the object)."""
        self.kernel_launches = other.kernel_launches
        self.graph_launches = other.graph_launches
        self.event_ops = other.event_ops
        self.sync_calls = other.sync_calls
        self.busy_seconds = other.busy_seconds
        self.overhead_seconds = other.overhead_seconds


class SimulatedDevice:
    """Executes kernels and accounts for launch overheads and busy time."""

    def __init__(
        self,
        kernel_launch_us: float = DEFAULT_KERNEL_LAUNCH_US,
        event_op_us: float = DEFAULT_EVENT_OP_US,
        graph_launch_us: float = DEFAULT_GRAPH_LAUNCH_US,
        sync_us: float = DEFAULT_SYNC_US,
        tracer: Optional[Tracer] = None,
    ):
        self.kernel_launch_s = kernel_launch_us * 1e-6
        self.event_op_s = event_op_us * 1e-6
        self.graph_launch_s = graph_launch_us * 1e-6
        self.sync_s = sync_us * 1e-6
        self.stats = DeviceStats()
        self.tracer = tracer if tracer is not None else get_tracer()
        self._lock = threading.RLock()

    # -- primitive operations ---------------------------------------------------

    def launch(self, kernel: Callable, args: tuple, stream: str = "s0") -> None:
        """Launch one kernel through a stream (one CUDA call).

        A kernel that raises rolls the stats back to their pre-launch
        values: a failed launch never happened as far as accounting is
        concerned, so a caller that retries (fault isolation) does not
        double-count launches or device seconds.
        """
        with self._lock:
            snap = self.stats.clone()
            try:
                self.stats.kernel_launches += 1
                self.stats.overhead_seconds += self.kernel_launch_s
                t0 = time.perf_counter()
                with self.tracer.span(getattr(kernel, "__name__", "k"),
                                      resource=f"GPU:{stream}"):
                    kernel(*args)
                self.stats.busy_seconds += time.perf_counter() - t0
            except BaseException:
                self.stats.load(snap)
                raise

    def launch_graph(self, kernels: Sequence[Callable], args: tuple) -> None:
        """Replay an instantiated graph: one CUDA call for all kernels.

        If any kernel in the sequence raises, the partial accounting
        (the launch count, the modeled overhead, and the busy time of
        the kernels that did run) is rolled back, mirroring ``launch``:
        metrics and utilization only ever see completed launches.
        """
        with self._lock:
            snap = self.stats.clone()
            try:
                self.stats.graph_launches += 1
                self.stats.overhead_seconds += self.graph_launch_s
                t0 = time.perf_counter()
                tracer = self.tracer
                if tracer.enabled:
                    # Per-task kernel spans nest under the graph-launch
                    # span, giving the per-kernel timing the MCMC
                    # estimator and the profile report read back from
                    # the aggregates.
                    with tracer.span("cudaGraphLaunch", resource="GPU"):
                        for k in kernels:
                            with tracer.span(getattr(k, "__name__", "k"),
                                             resource="GPU"):
                                k(*args)
                else:
                    for k in kernels:
                        k(*args)
                self.stats.busy_seconds += time.perf_counter() - t0
            except BaseException:
                self.stats.load(snap)
                raise

    def record_event(self) -> "DeviceEvent":
        with self._lock:
            self.stats.event_ops += 1
            self.stats.overhead_seconds += self.event_op_s
        return DeviceEvent()

    def wait_event(self, event: "DeviceEvent") -> None:
        with self._lock:
            self.stats.event_ops += 1
            self.stats.overhead_seconds += self.event_op_s
        event.synchronize()

    def synchronize(self) -> None:
        with self._lock:
            self.stats.sync_calls += 1
            self.stats.overhead_seconds += self.sync_s

    # -- reporting ---------------------------------------------------------------

    def utilization(self, wall_seconds: float) -> float:
        """Busy fraction of a wall-clock window (nvidia-smi style)."""
        if wall_seconds <= 0:
            return 0.0
        return min(1.0, self.stats.busy_seconds / wall_seconds)

    def publish_metrics(self, registry, prefix: str = "device.") -> None:
        """Publish launch/overhead/busy stats as gauges on ``registry``."""
        s = self.stats
        registry.set_gauge(prefix + "kernel_launches", s.kernel_launches)
        registry.set_gauge(prefix + "graph_launches", s.graph_launches)
        registry.set_gauge(prefix + "event_ops", s.event_ops)
        registry.set_gauge(prefix + "sync_calls", s.sync_calls)
        registry.set_gauge(prefix + "busy_seconds", s.busy_seconds)
        registry.set_gauge(prefix + "overhead_seconds", s.overhead_seconds)

    def reset(self) -> None:
        self.stats.reset()


# The paper's target device; the simulated device stands in for it
# everywhere, so the names alias (tests and docs use either).
GpuDevice = SimulatedDevice


class DeviceEvent:
    """A CUDA-event stand-in: pure bookkeeping (dependencies are enforced
    by the executor's serial schedule; the cost of creating/waiting on the
    event is what the stream executor pays repeatedly)."""

    __slots__ = ("completed",)

    def __init__(self) -> None:
        self.completed = False

    def complete(self) -> None:
        self.completed = True

    def synchronize(self) -> None:
        # The simulated device executes kernels synchronously, so by the
        # time anything waits the producer already ran.
        self.completed = True
