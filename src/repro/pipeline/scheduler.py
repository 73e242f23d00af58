"""The pipeline scheduling algorithm (§3.2.3, Fig. 11), as a measured model.

Batch stimulus is partitioned into *groups*; each group advances through
its own (set_inputs → evaluate) chain cycle by cycle.  Groups share no
state, so while the device evaluates group G1's cycle, CPU workers can
already be decoding and setting inputs for G2's — the inter-stimulus
parallelism that keeps the GPU from idling on the Fig. 2 bottleneck.

The simulated device runs on the host CPU, so there is nothing to
overlap with (DESIGN.md §2): :meth:`PipelineSimulator.run_virtual`
executes every (group, cycle) stage for real, times it, and computes the
makespans of both the pipelined schedule and the RTLflow^-p baseline of
Table 5 (per cycle, set inputs for *all* groups, then evaluate all
groups) with the discrete-event model in :mod:`repro.pipeline.virtualtime`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.codegen import CompiledModel
from repro.core.simulator import DEFAULT_EXECUTOR, BatchSimulator
from repro.gpu.device import SimulatedDevice
from repro.obs import get_metrics, get_tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.pipeline.virtualtime import makespan_pipelined, makespan_sequential
from repro.utils.errors import SimulationError


@dataclass
class PipelineReport:
    """What one run measured (feeds Tables 5 and Figs. 2/15/16)."""

    set_inputs_seconds: float = 0.0  # summed over all (group, cycle) stages
    evaluate_seconds: float = 0.0  # device busy time plus launch overhead
    groups: int = 0
    cycles: int = 0
    n: int = 0
    # Virtual-time makespans of both schedules computed from the measured
    # stage durations (see pipeline.virtualtime).
    pipelined_makespan: float = 0.0
    sequential_makespan: float = 0.0
    pipelined_utilization: float = 0.0
    sequential_utilization: float = 0.0
    # Measured per-(group, cycle) stage durations; used to re-render the
    # Fig. 16 timelines from real data.
    cpu_stage_seconds: Optional[np.ndarray] = None
    gpu_stage_seconds: Optional[np.ndarray] = None


class PipelineSimulator:
    """Multi-group batch simulation timed for the CPU/GPU pipeline model.

    ``executor`` selects each group's replay engine (same choices as
    :func:`repro.core.simulator.make_executor`); each group's
    :class:`BatchSimulator` builds its own executor, which binds the
    generated programs' arguments to that group's pools.
    """

    def __init__(
        self,
        model: CompiledModel,
        n: int,
        groups: int = 4,
        cpu_workers: int = 4,
        executor: str = DEFAULT_EXECUTOR,
        device: Optional[SimulatedDevice] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if groups <= 0 or n % groups != 0:
            raise SimulationError(
                f"group count {groups} must divide the batch size {n}"
            )
        self.model = model
        self.n = n
        self.groups = groups
        self.group_size = n // groups
        self.cpu_workers = max(1, cpu_workers)
        self.tracer = tracer if tracer is not None else get_tracer()
        self.metrics = metrics if metrics is not None else get_metrics()
        self.device = device or SimulatedDevice(tracer=self.tracer)
        self.sims: List[BatchSimulator] = [
            BatchSimulator(model, self.group_size, executor=executor,
                           device=self.device, tracer=self.tracer,
                           metrics=self.metrics)
            for _ in range(groups)
        ]
        self.report = PipelineReport(groups=groups, n=n)

    # -- state helpers ------------------------------------------------------------

    def load_memory(self, name: str, values, lane: Optional[int] = None) -> None:
        if lane is None:
            for sim in self.sims:
                sim.load_memory(name, values)
            return
        g, off = divmod(lane, self.group_size)
        self.sims[g].load_memory(name, values, lane=off)

    def get(self, name: str) -> np.ndarray:
        """Gathered batch values of a signal across all groups."""
        return np.concatenate([sim.get(name) for sim in self.sims])

    def read_memory(self, name: str, lane: int) -> np.ndarray:
        g, off = divmod(lane, self.group_size)
        return self.sims[g].read_memory(name, lane=off)

    # -- the measured run -----------------------------------------------------------

    def run_virtual(
        self,
        stim,
        cycles: Optional[int] = None,
        watch: Optional[Sequence[str]] = None,
    ) -> Dict[str, np.ndarray]:
        """Measure every stage, then model the schedule in virtual time.

        ``stim`` needs ``inputs_at_range(cycle, lo, hi)`` — both
        :class:`StimulusBatch` and :class:`TextStimulusBatch` qualify.
        Executes the whole batch group by group (results are exact),
        records each (group, cycle) set_inputs and evaluate duration, and
        computes the makespans of both the pipelined and the RTLflow^-p
        schedule.  Returns the final values of ``watch`` (default: the
        design outputs).
        """
        total = cycles if cycles is not None else len(stim)
        names = list(watch) if watch is not None else [
            s.name for s in self.model.design.outputs
        ]
        self.device.reset()
        stats = self.device.stats
        cpu_t = np.zeros((self.groups, total))
        gpu_t = np.zeros((self.groups, total))
        for c in range(total):
            for g, sim in enumerate(self.sims):
                if c < len(stim):
                    lo = g * self.group_size
                    t0 = time.perf_counter()
                    sim.set_inputs(
                        stim.inputs_at_range(c, lo, lo + self.group_size))
                    cpu_t[g, c] = time.perf_counter() - t0
                # Device time for this cycle: kernel busy time plus the
                # modeled launch overhead it incurred.
                dev0 = stats.busy_seconds + stats.overhead_seconds
                sim.cycle()
                gpu_t[g, c] = stats.busy_seconds + stats.overhead_seconds - dev0
        pipe = makespan_pipelined(cpu_t, gpu_t, self.cpu_workers)
        seq = makespan_sequential(cpu_t, gpu_t, self.cpu_workers)
        r = self.report
        r.cycles = total
        r.cpu_stage_seconds = cpu_t
        r.gpu_stage_seconds = gpu_t
        r.set_inputs_seconds = float(cpu_t.sum())
        r.evaluate_seconds = float(gpu_t.sum())
        r.pipelined_makespan = pipe.makespan
        r.sequential_makespan = seq.makespan
        r.pipelined_utilization = pipe.gpu_utilization
        r.sequential_utilization = seq.gpu_utilization
        self._publish_metrics(r)
        return {name: self.get(name) for name in names}

    def _publish_metrics(self, r: PipelineReport) -> None:
        """Pipeline-stage metrics of the pipelined schedule: overlap ratio
        = how much CPU input setting it hides behind device evaluation."""
        if not self.metrics.enabled:
            return
        m = self.metrics
        m.set_gauge("pipeline.groups", r.groups)
        m.set_gauge("pipeline.cycles", r.cycles)
        m.set_gauge("pipeline.set_inputs_seconds", r.set_inputs_seconds)
        m.set_gauge("pipeline.evaluate_seconds", r.evaluate_seconds)
        m.set_gauge("pipeline.gpu_utilization", r.pipelined_utilization)
        stage_sum = r.set_inputs_seconds + r.evaluate_seconds
        overlap = max(0.0, stage_sum - r.pipelined_makespan)
        denom = min(r.set_inputs_seconds, r.evaluate_seconds)
        m.set_gauge("pipeline.overlap_ratio",
                    overlap / denom if denom > 0 else 0.0)
