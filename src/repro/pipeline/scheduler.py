"""The pipeline scheduling algorithm (§3.2.3, Fig. 11).

Batch stimulus is partitioned into *groups*; each group advances through
its own (set_inputs → evaluate) chain cycle by cycle.  Groups share no
state, so while the device evaluates group G1's cycle, CPU workers can
already be decoding and setting inputs for G2's — the inter-stimulus
parallelism that keeps the GPU from idling on the Fig. 2 bottleneck.

Concretely, one worker thread per group runs the group's chain; the
CPU-side stage is bounded by a semaphore of ``cpu_workers`` slots and the
device serializes evaluations internally (one GPU).  With ``pipeline=
False`` the scheduler degrades to the RTLflow^-p baseline of Table 5: per
cycle, set inputs for *all* groups (optionally with a thread pool — the
paper's "use OpenMP to parallelize set_inputs" fairness note), then
evaluate all groups.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.codegen import CompiledModel
from repro.core.simulator import DEFAULT_EXECUTOR, BatchSimulator
from repro.gpu.device import SimulatedDevice
from repro.obs import get_metrics, get_tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.resilience.faults import LaneFault, LaneQuarantine
from repro.utils.errors import CheckpointError, SimulationError


@dataclass
class PipelineReport:
    """What one run measured (feeds Tables 5 and Figs. 2/15/16)."""

    wall_seconds: float = 0.0
    set_inputs_seconds: float = 0.0  # summed over CPU workers
    evaluate_seconds: float = 0.0  # device busy time
    gpu_utilization: float = 0.0
    groups: int = 0
    cycles: int = 0
    n: int = 0
    pipelined: bool = True
    # Resilience: True when a pipelined chunk crashed and was re-executed
    # sequentially; count of lanes quarantined across all groups.
    fallback_used: bool = False
    faulted_lanes: int = 0
    # Filled by run_virtual(): virtual-time makespans of both schedules
    # computed from measured stage durations (see pipeline.virtualtime).
    virtual: bool = False
    pipelined_makespan: float = 0.0
    sequential_makespan: float = 0.0
    pipelined_utilization: float = 0.0
    sequential_utilization: float = 0.0
    # Measured per-(group, cycle) stage durations (set by run_virtual);
    # used to re-render the Fig. 16 timelines from real data.
    cpu_stage_seconds: Optional[np.ndarray] = None
    gpu_stage_seconds: Optional[np.ndarray] = None


class PipelineSimulator:
    """Multi-group batch simulation with optional CPU/GPU pipelining.

    ``executor`` selects each group's replay engine (same choices as
    :func:`repro.core.simulator.make_executor`, including the
    activity-aware ``"graph-conditional"``); each group gets its own
    executor instance so dirty-set state never crosses group boundaries.
    """

    def __init__(
        self,
        model: CompiledModel,
        n: int,
        groups: int = 4,
        cpu_workers: int = 4,
        executor: str = DEFAULT_EXECUTOR,
        device: Optional[SimulatedDevice] = None,
        pipeline: bool = True,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        fault_isolation: bool = False,
        fallback_sequential: bool = True,
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
        self.pipeline = pipeline
        # A crashed pipelined chunk is rolled back and re-executed
        # sequentially (one group at a time); only a failure that
        # reproduces there propagates.
        self.fallback_sequential = fallback_sequential
        self.tracer = tracer if tracer is not None else get_tracer()
        self.metrics = metrics if metrics is not None else get_metrics()
        self.device = device or SimulatedDevice(tracer=self.tracer)
        self.sims: List[BatchSimulator] = [
            BatchSimulator(model, self.group_size, executor=executor,
                           device=self.device, tracer=self.tracer,
                           metrics=self.metrics,
                           fault_isolation=fault_isolation)
            for _ in range(groups)
        ]
        self.report = PipelineReport(groups=groups, n=n, pipelined=pipeline)
        self._fault_plan = None

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

    # -- resilience: faults + checkpoints --------------------------------------------

    @property
    def cycles_run(self) -> int:
        """Cycles completed by every group (groups advance in lockstep at
        chunk granularity; between chunk boundaries this is the floor)."""
        return min(sim.cycles_run for sim in self.sims)

    def faults(self) -> List[LaneFault]:
        """All lane faults across groups, with lanes in *global* numbering."""
        out: List[LaneFault] = []
        for g, sim in enumerate(self.sims):
            if sim.quarantine is None:
                continue
            base = g * self.group_size
            for f in sim.quarantine.faults:
                out.append(LaneFault(lane=base + f.lane, cycle=f.cycle,
                                     reason=f.reason, task=f.task,
                                     detail=f.detail))
        out.sort(key=lambda f: (f.cycle, f.lane))
        return out

    def fault_report(self) -> dict:
        """JSON-ready quarantine summary over the whole batch."""
        faults = self.faults()
        return {
            "n": self.n,
            "active_lanes": self.n - len(faults),
            "faulted_lanes": [f.lane for f in faults],
            "faults": [f.to_dict() for f in faults],
        }

    def save_checkpoint(self) -> dict:
        """Snapshot all groups (only valid at a consistent cycle boundary).

        The pipelined scheduler only checkpoints between chunks, when the
        worker threads have joined and every group sits at the same cycle;
        a desynchronized snapshot request is a bug and is rejected.
        """
        cycles = {sim.cycles_run for sim in self.sims}
        if len(cycles) != 1:
            raise CheckpointError(
                f"pipeline groups are desynchronized (cycle counts "
                f"{sorted(cycles)}); checkpoints are only valid at chunk "
                f"boundaries"
            )
        return {
            "pipeline": {"groups": self.groups, "n": self.n},
            "cycles_run": cycles.pop(),
            "group_checkpoints": [sim.save_checkpoint() for sim in self.sims],
        }

    def restore_checkpoint(self, ckpt: dict) -> None:
        """Restore a :meth:`save_checkpoint` snapshot into every group.

        Validates shape *before* touching any group so a mismatched
        checkpoint can never leave the simulator half-restored.
        """
        meta = ckpt.get("pipeline")
        if meta is None:
            raise CheckpointError(
                "not a pipeline checkpoint (single-simulator checkpoints "
                "restore via BatchSimulator.restore_checkpoint)"
            )
        if meta.get("groups") != self.groups or meta.get("n") != self.n:
            raise CheckpointError(
                f"checkpoint is for {meta.get('groups')} groups of batch "
                f"size {meta.get('n')}, not {self.groups} groups of {self.n}"
            )
        group_ckpts = ckpt.get("group_checkpoints", ())
        if len(group_ckpts) != self.groups:
            raise CheckpointError(
                f"checkpoint holds {len(group_ckpts)} group snapshots, "
                f"expected {self.groups}"
            )
        cycles = {c.get("cycles_run") for c in group_ckpts}
        if len(cycles) != 1 or cycles != {ckpt.get("cycles_run")}:
            raise CheckpointError(
                f"checkpoint group progress is inconsistent "
                f"({sorted(cycles)} vs {ckpt.get('cycles_run')}); refusing "
                f"to restore a torn snapshot"
            )
        for sim, c in zip(self.sims, group_ckpts):
            sim.restore_checkpoint(c)

    # -- the run loop ----------------------------------------------------------------

    def run(
        self,
        stim,
        cycles: Optional[int] = None,
        watch: Optional[Sequence[str]] = None,
        checkpoint=None,
        fault_plan=None,
        start_cycle: int = 0,
    ) -> Dict[str, np.ndarray]:
        """Simulate ``cycles`` of the batch stimulus; returns final values.

        ``stim`` needs ``inputs_at_range(cycle, lo, hi)`` — both
        :class:`StimulusBatch` and :class:`TextStimulusBatch` qualify.

        Resilience hooks mirror :meth:`BatchSimulator.run`: ``checkpoint``
        (a :class:`repro.resilience.CheckpointManager`) makes the run
        execute in chunks of the policy's cycle interval — worker threads
        join at each chunk boundary, where every group sits at the same
        cycle and a consistent snapshot can be written.  ``fault_plan``
        injects scripted lane faults (global lane numbering) and group
        crashes; ``start_cycle`` resumes a restored checkpoint.

        A crashed pipelined chunk rolls back to the chunk's start state
        and re-executes sequentially when ``fallback_sequential`` is on;
        only errors that reproduce there propagate.
        """
        total = cycles if cycles is not None else len(stim)
        names = list(watch) if watch is not None else [
            s.name for s in self.model.design.outputs
        ]
        self.device.reset()
        self._fault_plan = fault_plan
        if fault_plan is not None and fault_plan.lane_faults:
            for sim in self.sims:
                if sim.quarantine is None:
                    sim.quarantine = LaneQuarantine(sim.n)
        set_inputs_time = [0.0] * self.groups
        if checkpoint is not None:
            checkpoint.begin(self.cycles_run)
        # Chunk size: the checkpoint cadence when given, else one chunk.
        chunk = total - start_cycle
        if checkpoint is not None and checkpoint.policy is not None:
            chunk = checkpoint.policy.every_cycles or 16

        t0 = time.perf_counter()
        degraded = False  # stay sequential once a pipelined chunk crashed
        c0 = start_cycle
        while c0 < total:
            c1 = min(total, c0 + max(1, chunk))
            if self.pipeline and not degraded:
                snap = (
                    [sim.save_checkpoint() for sim in self.sims]
                    if self.fallback_sequential else None
                )
                # Timing bookkeeping snapshots ride along with the state
                # snapshot: the crashed chunk's partial set_inputs time
                # and device busy/overhead must not survive the rollback,
                # or the sequential replay double-counts the cycles and
                # skews set_inputs_seconds / evaluate_seconds /
                # gpu_utilization in the report.
                acc_snap = list(set_inputs_time) if snap is not None else None
                dev_snap = (
                    self.device.stats.clone() if snap is not None else None
                )
                try:
                    self._run_pipelined(stim, c0, c1, set_inputs_time)
                except Exception:
                    if snap is None:
                        raise
                    # Roll the groups back to the chunk's start state and
                    # replay it one group at a time; a transient failure
                    # (scheduling, injection) is absorbed, a persistent
                    # one re-raises from the sequential path below.
                    for sim, s in zip(self.sims, snap):
                        sim.restore_checkpoint(s)
                    set_inputs_time[:] = acc_snap
                    self.device.stats.load(dev_snap)
                    degraded = True
                    self.report.fallback_used = True
                    if self.metrics.enabled:
                        self.metrics.inc("pipeline.fallbacks")
                    self._run_sequential(stim, c0, c1, set_inputs_time)
            else:
                self._run_sequential(stim, c0, c1, set_inputs_time)
            c0 = c1
            if checkpoint is not None:
                checkpoint.maybe_save(self)
        wall = time.perf_counter() - t0

        r = self.report
        r.wall_seconds = wall
        r.set_inputs_seconds = sum(set_inputs_time)
        r.evaluate_seconds = self.device.stats.busy_seconds
        r.gpu_utilization = self.device.utilization(wall)
        r.cycles = total
        r.faulted_lanes = sum(
            sim.quarantine.fault_count
            for sim in self.sims if sim.quarantine is not None
        )
        self._publish_metrics(r)
        return {name: self.get(name) for name in names}

    def _publish_metrics(self, r: PipelineReport) -> None:
        """Pipeline-stage metrics: overlap ratio = how much CPU input
        setting was hidden behind device evaluation this run."""
        if not self.metrics.enabled:
            return
        m = self.metrics
        m.set_gauge("pipeline.groups", r.groups)
        m.set_gauge("pipeline.cycles", r.cycles)
        m.set_gauge("pipeline.set_inputs_seconds", r.set_inputs_seconds)
        m.set_gauge("pipeline.evaluate_seconds", r.evaluate_seconds)
        m.set_gauge("pipeline.gpu_utilization", r.gpu_utilization)
        if r.wall_seconds > 0:
            stage_sum = r.set_inputs_seconds + r.evaluate_seconds
            overlap = max(0.0, stage_sum - r.wall_seconds)
            denom = min(r.set_inputs_seconds, r.evaluate_seconds)
            m.set_gauge(
                "pipeline.overlap_ratio",
                overlap / denom if denom > 0 else 0.0,
            )

    def _set_inputs_group(self, g: int, stim, cycle: int, acc: List[float]) -> None:
        lo = g * self.group_size
        hi = lo + self.group_size
        t0 = time.perf_counter()
        with self.tracer.span(f"set_inputs g{g} c{cycle}",
                              resource=f"CPU{g % self.cpu_workers}"):
            values = stim.inputs_at_range(cycle, lo, hi)
            self.sims[g].set_inputs(values)
        acc[g] += time.perf_counter() - t0

    def _evaluate_group(self, g: int, cycle: int) -> None:
        sim = self.sims[g]
        if self._fault_plan is not None:
            self._inject_faults(g, cycle)
        sim.set_clock(0)
        sim.evaluate()
        sim.set_clock(1)
        sim.evaluate()
        sim.cycles_run += 1

    def _inject_faults(self, g: int, cycle: int) -> None:
        """Apply this (group, cycle)'s scripted faults from the plan."""
        plan = self._fault_plan
        plan.maybe_fail_group(g, cycle)
        for spec in plan.lane_faults_at(cycle):
            gg, off = divmod(spec.lane, self.group_size)
            if gg == g and self.sims[g].quarantine is not None:
                self.sims[g]._quarantine_lanes(
                    [off], reason=spec.reason, detail="injected by fault plan"
                )

    def _run_pipelined(
        self, stim, start: int, end: int, acc: List[float]
    ) -> None:
        cpu_slots = threading.Semaphore(self.cpu_workers)
        # First failure wins: the stop event cancels the sibling chains at
        # their next cycle boundary instead of letting them simulate the
        # whole stimulus, and the lock keeps the error list coherent
        # (list.append is atomic today, but the ordering between append
        # and stop.set() is what the raise below relies on).
        stop = threading.Event()
        err_lock = threading.Lock()
        errors: List[BaseException] = []

        def group_chain(g: int) -> None:
            try:
                for c in range(start, end):
                    if stop.is_set():
                        return
                    if c < len(stim):
                        with cpu_slots:
                            self._set_inputs_group(g, stim, c, acc)
                    # The device serializes internally: this models one GPU
                    # accepting work from whichever group is ready first.
                    self._evaluate_group(g, c)
            except BaseException as exc:  # noqa: BLE001 - propagate to caller
                with err_lock:
                    errors.append(exc)
                stop.set()

        threads = [
            threading.Thread(target=group_chain, args=(g,), name=f"group{g}")
            for g in range(self.groups)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]

    def run_virtual(
        self,
        stim,
        cycles: Optional[int] = None,
        watch: Optional[Sequence[str]] = None,
    ) -> Dict[str, np.ndarray]:
        """Measure every stage, then model the schedule in virtual time.

        Executes the whole batch sequentially (results are exact), records
        each (group, cycle) set_inputs and evaluate duration, and computes
        the makespans of both the pipelined and the RTLflow^-p schedule
        with the discrete-event model in :mod:`repro.pipeline.virtualtime`.
        Used on hosts without real parallelism (see DESIGN.md §2).
        """
        from repro.pipeline.virtualtime import (
            makespan_pipelined,
            makespan_sequential,
        )

        total = cycles if cycles is not None else len(stim)
        names = list(watch) if watch is not None else [
            s.name for s in self.model.design.outputs
        ]
        self.device.reset()
        self._fault_plan = None  # virtual runs never inject
        cpu_t = np.zeros((self.groups, total))
        gpu_t = np.zeros((self.groups, total))
        for c in range(total):
            for g in range(self.groups):
                if c < len(stim):
                    lo = g * self.group_size
                    t0 = time.perf_counter()
                    values = stim.inputs_at_range(c, lo, lo + self.group_size)
                    self.sims[g].set_inputs(values)
                    cpu_t[g, c] = time.perf_counter() - t0
                busy0 = self.device.stats.busy_seconds
                over0 = self.device.stats.overhead_seconds
                self._evaluate_group(g, c)
                # Device time for this evaluation: kernel busy time plus the
                # modeled launch overhead it incurred.
                gpu_t[g, c] = (
                    self.device.stats.busy_seconds - busy0
                ) + (self.device.stats.overhead_seconds - over0)
        pipe = makespan_pipelined(cpu_t, gpu_t, self.cpu_workers)
        seq = makespan_sequential(cpu_t, gpu_t, self.cpu_workers)
        r = self.report
        r.virtual = True
        r.cycles = total
        r.cpu_stage_seconds = cpu_t
        r.gpu_stage_seconds = gpu_t
        r.set_inputs_seconds = float(cpu_t.sum())
        r.evaluate_seconds = float(gpu_t.sum())
        r.pipelined_makespan = pipe.makespan
        r.sequential_makespan = seq.makespan
        r.pipelined_utilization = pipe.gpu_utilization
        r.sequential_utilization = seq.gpu_utilization
        if self.pipeline:
            r.wall_seconds = pipe.makespan
            r.gpu_utilization = pipe.gpu_utilization
        else:
            r.wall_seconds = seq.makespan
            r.gpu_utilization = seq.gpu_utilization
        self._publish_metrics(r)
        return {name: self.get(name) for name in names}

    def _run_sequential(
        self, stim, start: int, end: int, acc: List[float]
    ) -> None:
        # RTLflow^-p: the GPU waits for set_inputs of the whole batch each
        # cycle.  set_inputs itself may use a thread pool (fairness).
        pool = (
            ThreadPoolExecutor(max_workers=self.cpu_workers)
            if self.cpu_workers > 1
            else None
        )
        try:
            for c in range(start, end):
                if c < len(stim):
                    if pool is not None:
                        futures = [
                            pool.submit(self._set_inputs_group, g, stim, c, acc)
                            for g in range(self.groups)
                        ]
                        for f in futures:
                            f.result()
                    else:
                        for g in range(self.groups):
                            self._set_inputs_group(g, stim, c, acc)
                for g in range(self.groups):
                    self._evaluate_group(g, c)
        finally:
            if pool is not None:
                pool.shutdown()
