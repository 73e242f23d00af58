"""The shard worker process (spawn-safe entry point).

Each worker rebuilds its compiled design **once** from the picklable
:class:`~repro.cluster.spec.CampaignSpec` (parse → elaborate → transpile
→ compile; no kernel objects cross the process boundary), then serves
shards from its task queue until it receives the ``None`` sentinel.

Per shard, the worker:

* slices its lane range out of the campaign stimulus (regenerated from
  the spec's seed, or shipped pre-sliced with the task for explicit
  stimulus),
* runs a shard-sized :class:`~repro.core.simulator.BatchSimulator` under
  its own :class:`~repro.resilience.CheckpointManager` (directory
  ``<checkpoint_dir>/shard-NNNN``) so a crashed shard resumes from its
  own durable snapshot,
* emits heartbeats through the shared result queue from the simulator's
  per-cycle ``progress`` hook (the coordinator's liveness signal), and
* returns outputs, shard-local lane faults, toggle coverage, a metrics
  dump and trace spans as one plain-data payload.

Crash injection for tests/CI rides the same ``progress`` hook: a task
carrying ``crash_cycle`` SIGKILLs its own process after that cycle —
a real, unhandled worker death, not an exception.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Optional

from repro import obs
from repro.cluster.spec import CampaignSpec, ShardSpec
from repro.core.simulator import BatchSimulator
from repro.coverage.collector import CoverageCollector
from repro.resilience.checkpoint import CheckpointManager, CheckpointPolicy
from repro.resilience.inject import FaultPlan, LaneFaultSpec
from repro.utils.errors import CheckpointError

__all__ = ["worker_main", "run_shard_inline"]

PAYLOAD_SCHEMA = 1


class _Heartbeat:
    """Rate-limited liveness pings through the shared result queue."""

    def __init__(self, result_q, worker_id: int, shard_id: int, every_s: float):
        self.result_q = result_q
        self.worker_id = worker_id
        self.shard_id = shard_id
        self.every_s = every_s
        self._last = time.monotonic()
        self.sent = 0

    def tick(self, cycles_done: int) -> None:
        now = time.monotonic()
        if now - self._last >= self.every_s:
            self._last = now
            self.sent += 1
            self.result_q.put(
                ("heartbeat", self.worker_id, self.shard_id, cycles_done, now)
            )


class _WorkerContext:
    """One worker's long-lived state: compiled model + cached stimulus."""

    def __init__(self, worker_id: int, spec: CampaignSpec, result_q, cfg: dict):
        self.worker_id = worker_id
        self.spec = spec
        self.result_q = result_q
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
                    f"worker {worker_id}: verifier rejected the rebuilt "
                    f"model for {name}: "
                    + "; ".join(d.message for d in report.errors[:3])
                    + (f" (+{len(report.errors) - 3} more)"
                       if len(report.errors) > 3 else "")
                )
        self._full_stimulus = None

    def full_stimulus(self):
        """The whole-campaign stimulus, regenerated from the spec's seed.

        Generated once per worker and sliced per shard: generation is
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

    def _checkpoint_manager(self, shard_id: int) -> Optional[CheckpointManager]:
        root = self.cfg.get("checkpoint_dir")
        if not root:
            return None
        policy = None
        spec = self.spec
        if spec.checkpoint_every or spec.checkpoint_every_seconds:
            policy = CheckpointPolicy(
                every_cycles=spec.checkpoint_every or None,
                every_seconds=spec.checkpoint_every_seconds or None,
            )
        return CheckpointManager(
            os.path.join(root, f"shard-{shard_id:04d}"), policy=policy
        )

    def run_shard(self, task: dict) -> dict:
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
        hb = _Heartbeat(
            self.result_q, self.worker_id, shard.id,
            self.cfg.get("heartbeat_seconds", 0.5),
        )
        crash_cycle = task.get("crash_cycle")
        with obs.capture() as (tracer, metrics):
            sim = BatchSimulator(
                self.model, shard.n, executor=spec.executor,
                fault_isolation=spec.fault_isolation or plan is not None,
            )
            if self.bundle is not None:
                self.bundle.preload(sim)
            stim = task.get("stimulus")
            if stim is None:
                stim = self.full_stimulus().lanes(shard.lo, shard.hi)
            mgr = self._checkpoint_manager(shard.id)
            start = 0
            if mgr is not None and task.get("resume"):
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
                hb.tick(sim.cycles_run)
                if crash_cycle is not None and sim.cycles_run >= crash_cycle:
                    # A genuine worker death (no cleanup, no exception):
                    # the durable checkpoint written above is all that
                    # survives, exactly like a real OOM-kill.
                    os.kill(os.getpid(), signal.SIGKILL)

            # Coverage sampling and crash injection ride the progress
            # hook and need every cycle; plain heartbeat/streaming
            # consumers may rate-limit it (the campaign service does).
            min_interval = self.cfg.get("progress_min_interval", 0.0)
            if cov is not None or crash_cycle is not None:
                min_interval = 0.0

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
                progress=progress,
                progress_min_interval=min_interval,
            )
            if mgr is not None:
                # Terminal snapshot: a coordinator killed between this
                # shard's completion and its result persisting resumes
                # here instead of recomputing the shard.
                mgr.save(sim, required=False)
        max_spans = self.cfg.get("max_spans", 20_000)
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
                for s in spans[:max_spans]
            ],
            "spans_dropped": max(0, len(spans) - max_spans),
            "epoch": getattr(tracer, "_t0", 0.0),
            "cycles_run": sim.cycles_run,
            "resumed_from": start,
            "heartbeats": hb.sent,
            "wall_seconds": time.monotonic() - t_start,
            "pid": os.getpid(),
        }


def run_shard_inline(spec: CampaignSpec, task: dict, cfg: dict) -> dict:
    """Run one shard in the calling process (workers=0 debug path and
    deterministic unit tests — identical code path minus the queues)."""

    class _Sink:
        def put(self, _msg):
            pass

    ctx = _WorkerContext(-1, spec, _Sink(), cfg)
    return ctx.run_shard(task)


def worker_main(worker_id: int, spec: CampaignSpec, task_q, result_q, cfg: dict):
    """Worker process entry: build once, then serve shards until sentinel.

    A deterministic failure while running a shard is reported as an
    ``("error", ...)`` message — rerunning it would fail identically, so
    the coordinator fails the campaign instead of burning restarts.
    Construction failures (bad design text, import skew) are ``"fatal"``.
    """
    try:
        ctx = _WorkerContext(worker_id, spec, result_q, cfg)
    except BaseException as exc:  # noqa: BLE001 - must cross the process gap
        result_q.put(
            ("fatal", worker_id, None, f"{type(exc).__name__}: {exc}")
        )
        return
    result_q.put(("ready", worker_id, None, os.getpid()))
    while True:
        task = task_q.get()
        if task is None:
            break
        shard_id = task["shard"][0]
        result_q.put(
            ("started", worker_id, shard_id, task.get("attempt", 0))
        )
        try:
            payload = ctx.run_shard(task)
        except BaseException as exc:  # noqa: BLE001 - must cross the process gap
            result_q.put(
                ("error", worker_id, shard_id, f"{type(exc).__name__}: {exc}")
            )
            continue
        result_q.put(("result", worker_id, shard_id, payload))
