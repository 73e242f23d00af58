"""The shard worker loop (spawn-safe entry point).

One loop serves both front ends: ``repro campaign`` (the
:class:`~repro.cluster.coordinator.CampaignCoordinator`) and ``repro
serve`` (the :class:`~repro.serve.server.CampaignService`) both send it
job-tagged ``(job_id, spec, task)`` messages through a
:class:`~repro.cluster.pool.ShardPool`.  A worker keeps a small LRU of
compiled designs keyed by campaign signature: the first shard of a
campaign pays parse → elaborate → transpile → compile (no kernel objects
cross the process boundary), every later shard of it reuses the build
and its stimulus.

Per shard, the worker:

* slices its lane range out of the campaign stimulus, regenerated once
  per design from the spec's seed,
* runs a shard-sized :class:`~repro.core.simulator.BatchSimulator` under
  its own :class:`~repro.resilience.CheckpointManager` when a checkpoint
  directory is set, in ``<checkpoint_dir>/shard-<shard_signature>``:
  the directory is named by the shard's content, so a snapshot found
  there is always this shard's and the worker restores it without being
  told to (coverage and traced shards take no snapshots and rerun from
  cycle 0),
* reports ``progress`` from the simulator's per-cycle ``progress`` hook
  at the heartbeat interval (the pool's liveness signal and the
  service's job-status feed), and
* returns outputs, shard-local lane faults, toggle coverage, a metrics
  dump and trace spans as one plain-data payload.

Messages up the result queue, one shape for all of them::

    ("ready",    worker_id, None,   None,     pid)
    ("progress", worker_id, job_id, shard_id, cycles_done)
    ("result",   worker_id, job_id, shard_id, payload)
    ("error",    worker_id, job_id, shard_id, "shard N failed: Type: text")

Crash injection for tests/CI rides the same ``progress`` hook: a task
carrying ``crash_cycle`` SIGKILLs its own process after that cycle —
a real, unhandled worker death, not an exception.
"""

from __future__ import annotations

import os
import signal
import time
from collections import OrderedDict
from typing import Callable, Optional

from repro import obs
from repro.cluster.spec import CampaignSpec, ShardSpec
from repro.core.simulator import BatchSimulator
from repro.coverage.collector import CoverageCollector
from repro.resilience.checkpoint import CheckpointManager, CheckpointPolicy
from repro.resilience.inject import FaultPlan, LaneFaultSpec
from repro.utils.errors import CheckpointError

__all__ = ["WorkerLoop", "run_shard_inline", "run_worker",
           "shard_checkpoint_dir"]

PAYLOAD_SCHEMA = 1

#: Trace spans one shard payload carries; the rest are counted as dropped.
MAX_SPANS = 20_000

#: Compiled designs one worker keeps warm; evicting one only costs a
#: rebuild on that campaign's next shard.
CONTEXT_CACHE = 4

#: Longest gap between two ``progress`` messages of a busy worker.  The
#: pool shortens it to a quarter of its silence timeout when that is
#: tighter, so a worker that is simulating is never mistaken for a hung one.
HEARTBEAT_SECONDS = 0.25

#: Rate limit on the simulator's progress hook when nothing needs it
#: every cycle (coverage sampling and crash injection do).
PROGRESS_MIN_INTERVAL = 0.05


def shard_checkpoint_dir(root: str, shard_key: str) -> str:
    """A shard's snapshot directory, named by its ``shard_signature``."""
    return os.path.join(root, f"shard-{shard_key}")


class _Heartbeat:
    """Rate-limited ``progress`` reports through ``beat(cycles_done)``."""

    def __init__(self, beat: Callable[[int], None], every_s: float):
        self.beat = beat
        self.every_s = every_s
        self._last = time.monotonic()
        self.sent = 0

    def tick(self, cycles_done: int) -> None:
        now = time.monotonic()
        if now - self._last >= self.every_s:
            self._last = now
            self.sent += 1
            self.beat(cycles_done)


class _WorkerContext:
    """One compiled campaign design plus its cached stimulus."""

    def __init__(self, spec: CampaignSpec, cfg: dict):
        self.spec = spec
        self.cfg = cfg
        self.bundle = None
        # Lint already ran (or was waived) wherever the spec was built;
        # re-linting identical source in every worker is pure overhead.
        from repro.core.flow import RTLFlow

        if spec.design is not None:
            from repro.designs import get_design

            self.bundle = get_design(spec.design)
            self.flow = RTLFlow.from_source(
                self.bundle.source, self.bundle.top, lint=False
            )
        else:
            self.flow = RTLFlow.from_source(spec.source, spec.top, lint=False)
        self.model = self.flow.compile()
        if spec.verify:
            from repro.utils.errors import ClusterError
            from repro.verify import verify_model

            name = spec.design or spec.top or "<source>"
            report = verify_model(self.model, filename=f"<design:{name}>")
            if report.errors:
                raise ClusterError(
                    f"verifier rejected the rebuilt model for {name}: "
                    + "; ".join(d.message for d in report.errors[:3])
                    + (f" (+{len(report.errors) - 3} more)"
                       if len(report.errors) > 3 else "")
                )
        self._full_stimulus = None

    def full_stimulus(self):
        """The whole-campaign stimulus, regenerated from the spec's seed.

        Generated once per context and sliced per shard: generation is
        deterministic in the seed, so every worker (and a single-process
        run) sees lane-for-lane identical stimulus.
        """
        if self._full_stimulus is None:
            spec = self.spec
            if self.bundle is not None:
                self._full_stimulus = self.bundle.make_stimulus(
                    spec.n, spec.cycles, spec.seed
                )
            else:
                self._full_stimulus = self.flow.random_stimulus(
                    spec.n, spec.cycles, seed=spec.seed
                )
        return self._full_stimulus

    def _checkpoint_manager(self, shard: ShardSpec) -> Optional[CheckpointManager]:
        """``shard``'s snapshot manager, or None when it does not resume.

        The one resumability rule: a shard snapshots and restores
        mid-shard unless it collects coverage or traces.  Neither toggle
        state nor trace samples are checkpointed, so a restored partial
        rerun would undercount toggles or lose the samples taken before
        the restore point; such shards rerun from cycle 0 (same merged
        result, more recomputation).
        """
        spec = self.spec
        root = self.cfg.get("checkpoint_dir")
        if not root or spec.coverage or spec.trace_every:
            return None
        policy = None
        if spec.checkpoint_every or spec.checkpoint_every_seconds:
            policy = CheckpointPolicy(
                every_cycles=spec.checkpoint_every or None,
                every_seconds=spec.checkpoint_every_seconds or None,
            )
        return CheckpointManager(
            shard_checkpoint_dir(root, spec.shard_signature(shard)),
            policy=policy,
        )

    def run_shard(self, task: dict,
                  beat: Optional[Callable[[int], None]] = None) -> dict:
        """Run one shard; ``beat(cycles_done)`` receives the heartbeats."""
        spec = self.spec
        shard = ShardSpec(*task["shard"])
        t_start = time.monotonic()
        shard_faults = spec.shard_faults(shard)
        plan = (
            FaultPlan(lane_faults=[
                LaneFaultSpec(cycle=c, lane=l, reason=r)
                for c, l, r in shard_faults
            ])
            if shard_faults else None
        )
        every_s = self.cfg.get("heartbeat_seconds", HEARTBEAT_SECONDS)
        hb = _Heartbeat(beat, every_s) if beat is not None else None
        crash_cycle = task.get("crash_cycle")
        with obs.capture() as (tracer, metrics):
            sim = BatchSimulator(
                self.model, shard.n, executor=spec.executor,
                fault_isolation=spec.fault_isolation or plan is not None,
            )
            if self.bundle is not None:
                self.bundle.preload(sim)
            stim = self.full_stimulus().lanes(shard.lo, shard.hi)
            mgr = self._checkpoint_manager(shard)
            start = 0
            if mgr is not None:
                try:
                    ckpt = mgr.load_latest()
                except CheckpointError:
                    ckpt = None  # corrupt snapshot: recompute from scratch
                if ckpt is not None:
                    sim.restore_checkpoint(ckpt)
                    start = sim.cycles_run
            cov = (
                CoverageCollector(
                    sim, include_internal=not spec.coverage_ports_only
                )
                if spec.coverage else None
            )

            def progress(cycle: int) -> None:
                if cov is not None:
                    cov.sample()
                if hb is not None:
                    hb.tick(sim.cycles_run)
                if crash_cycle is not None and sim.cycles_run >= crash_cycle:
                    # A genuine worker death (no cleanup, no exception):
                    # the durable checkpoint written above is all that
                    # survives, exactly like a real OOM-kill.
                    os.kill(os.getpid(), signal.SIGKILL)

            # Coverage sampling and crash injection need every cycle;
            # heartbeats only need a few samples per interval.
            every_cycle = cov is not None or crash_cycle is not None
            outputs = sim.run(
                stim,
                watch=spec.watch,
                trace_every=spec.trace_every,
                stop=spec.stop,
                stop_mode=spec.stop_mode,
                stop_check_every=spec.stop_check_every,
                checkpoint=mgr,
                fault_plan=plan,
                start_cycle=start,
                progress=progress if every_cycle or hb is not None else None,
                progress_min_interval=(
                    0.0 if every_cycle else min(PROGRESS_MIN_INTERVAL, every_s)
                ),
            )
            if mgr is not None:
                # Terminal snapshot: a coordinator killed between this
                # shard's completion and its result reaching the store
                # restores here instead of recomputing the shard.
                mgr.save(sim, required=False)
        spans = tracer.spans
        return {
            "schema": PAYLOAD_SCHEMA,
            "signature": spec.signature(),
            "shard": (shard.id, shard.lo, shard.hi),
            "attempt": task.get("attempt", 0),
            "outputs": outputs,
            # Shard-local lane indices; the merge layer re-bases to the
            # campaign's global lane space.
            "faults": (
                sim.quarantine.report()["faults"]
                if sim.quarantine is not None else []
            ),
            "coverage": cov.report() if cov is not None else None,
            "metrics": metrics.dump(),
            "spans": [
                (s.name, s.resource, s.start, s.end, s.depth)
                for s in spans[:MAX_SPANS]
            ],
            "spans_dropped": max(0, len(spans) - MAX_SPANS),
            "epoch": getattr(tracer, "_t0", 0.0),
            "cycles_run": sim.cycles_run,
            "resumed_from": start,
            "heartbeats": hb.sent if hb is not None else 0,
            "wall_seconds": time.monotonic() - t_start,
            "pid": os.getpid(),
        }


def run_shard_inline(spec: CampaignSpec, task: dict, cfg: dict) -> dict:
    """Build ``spec``'s design and run one shard in the calling process,
    outside any pool (unit tests and the benchmark's hand-driven campaign).
    Task and ``cfg`` keys the worker does not read are ignored."""
    return _WorkerContext(spec, cfg).run_shard(task)


class WorkerLoop:
    """One worker: a signature-keyed LRU of compiled designs and ``emit``.

    Construction builds ``warm`` (when given) and then emits ``ready``,
    so a pool's silence clock never runs during a worker's boot.  A
    failed warm build is not reported here: the first shard that needs
    the design rebuilds it and reports the failure as that shard's
    ``error``.
    """

    def __init__(self, worker_id: int, emit: Callable[[tuple], None],
                 cfg: dict, warm: Optional[CampaignSpec] = None):
        self.worker_id = worker_id
        self.emit = emit
        self.cfg = cfg
        self._contexts: "OrderedDict[str, _WorkerContext]" = OrderedDict()
        if warm is not None:
            try:
                self._context(warm)
            except Exception:  # noqa: BLE001 - reported by the first shard
                pass
        emit(("ready", worker_id, None, None, os.getpid()))

    def _context(self, spec: CampaignSpec) -> _WorkerContext:
        sig = spec.signature()
        ctx = self._contexts.pop(sig, None)
        if ctx is None:
            ctx = _WorkerContext(spec, self.cfg)
        self._contexts[sig] = ctx
        while len(self._contexts) > CONTEXT_CACHE:
            self._contexts.popitem(last=False)
        return ctx

    def serve(self, msg: tuple) -> None:
        """Run one ``(job_id, spec, task)`` message to a result or error.

        A failure is that shard's ``error`` and the loop keeps serving:
        rerunning a deterministic failure would fail identically, and one
        tenant's broken design must not take the worker from everyone else.
        """
        job_id, spec, task = msg
        sid = task["shard"][0]

        def beat(cycles_done: int) -> None:
            self.emit(("progress", self.worker_id, job_id, sid, cycles_done))

        try:
            payload = self._context(spec).run_shard(task, beat)
        except Exception as exc:  # noqa: BLE001 - must cross the queue
            self.emit(("error", self.worker_id, job_id, sid,
                       f"shard {sid} failed: {type(exc).__name__}: {exc}"))
            return
        self.emit(("result", self.worker_id, job_id, sid, payload))


def run_worker(worker_id: int, task_q, result_q, cfg: dict,
               warm: Optional[CampaignSpec] = None) -> None:
    """Worker process entry: serve ``task_q`` until the ``None`` sentinel."""
    loop = WorkerLoop(worker_id, result_q.put, cfg, warm)
    for msg in iter(task_q.get, None):
        loop.serve(msg)
