"""Stream/event-based task-graph execution (the Fig. 9a baseline).

Implements the state-of-the-art stream-capture transformation the paper
benchmarks against in Table 4 ([23, 24]: assign kernels of each level
round-robin to a fixed set of streams to maximize concurrency, insert
events for cross-stream dependencies) — and, crucially, *re-does this
scheduling every cycle*, which is exactly the repetitive CUDA-call
overhead CUDA Graph removes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.gpu.device import DeviceEvent, SimulatedDevice
from repro.gpu.executor import Executor

if TYPE_CHECKING:  # type-only: avoids a core <-> gpu import cycle
    from repro.core.codegen import CompiledModel
    from repro.core.memory import DeviceArrays

DEFAULT_NUM_STREAMS = 4  # "four streams ... achieves the best performance"


class StreamExecutor(Executor):
    """Executes one evaluation by scheduling kernels onto streams."""

    name = "stream"

    def __init__(
        self,
        model: CompiledModel,
        device: SimulatedDevice,
        num_streams: int = DEFAULT_NUM_STREAMS,
    ):
        super().__init__(model, device)
        self.num_streams = max(1, num_streams)

    # NOTE: no state is cached between cycles on purpose — rebuilding the
    # stream/event schedule per evaluation is the baseline's defining cost.

    def run_comb(self, arrays: DeviceArrays) -> None:
        model = self.model
        device = self.device
        args = self._args(arrays)
        streams = [f"s{i}" for i in range(self.num_streams)]
        last_event: Dict[int, DeviceEvent] = {}
        stream_of: Dict[int, str] = {}
        rr = 0
        for level in model.taskgraph.comb_levels:
            for tid in level:
                stream = streams[rr % self.num_streams]
                rr += 1
                stream_of[tid] = stream
                # Wait on producer events that live on other streams.
                for pred in model.taskgraph.preds.get(tid, ()):
                    if stream_of.get(pred) != stream:
                        device.wait_event(last_event[pred])
                device.launch(model.task_fns[tid], args, stream=stream)
                ev = device.record_event()
                ev.complete()
                last_event[tid] = ev
        device.synchronize()

    def run_seq(self, arrays: DeviceArrays, clock: str, edge: str) -> None:
        args = self._args(arrays)
        streams = [f"s{i}" for i in range(self.num_streams)]
        for i, tid in enumerate(self.model.seq_schedule(clock, edge)):
            self.device.launch(
                self.model.task_fns[tid], args, stream=streams[i % self.num_streams]
            )
            self.device.record_event().complete()
        self.device.synchronize()
