"""The shard worker pool shared by ``repro campaign`` and ``repro serve``.

A :class:`ShardPool` runs the :class:`~repro.cluster.worker.WorkerLoop`
in one of two homes:

* ``workers > 0`` — that many spawn-started processes, each with its own
  task queue and one shared result queue;
* ``workers == 0`` — one in-process worker whose shards run inside
  :meth:`ShardPool.receive`, on the thread that polls the pool: the
  coordinator's own thread (deterministic tests, debugging, and the
  benchmark's profile of a campaign) or the service's pump thread.

The pool owns every decision about a worker's life, in one place: it
tracks each worker's in-flight shard, counts a busy worker's silence
from the later of its ``ready`` and the dispatch (never from spawn),
terminates one silent for longer than ``heartbeat_timeout``, respawns
dead workers, and turns the death of a worker holding a shard into
either a ``retry`` of that shard or, past ``max_restarts``, an
``error``.  Shutdown is sentinel and join, then terminate, then kill.

Callers see the worker messages (``ready``/``progress``/``result``/
``error``, see :mod:`repro.cluster.worker`) plus::

    ("retry", worker_id, job_id, shard_id, attempt)   # requeue the shard

all as ``(kind, worker_id, job_id, shard_id, data)``.  The pool is not
thread-safe: only :meth:`receive` may run on a thread other than the
owner's.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
from collections import deque
from typing import Dict, List, Optional

from repro.cluster.spec import CampaignSpec
from repro.cluster.worker import HEARTBEAT_SECONDS, WorkerLoop, run_worker

__all__ = ["ShardPool"]

_POLL_S = 0.1


class _Worker:
    """Pool-side state of one worker."""

    __slots__ = ("id", "process", "task_q", "task", "ready", "last_seen")

    def __init__(self, id: int, process, task_q):
        self.id = id
        self.process = process  # None for the in-process worker
        self.task_q = task_q
        self.task: Optional[tuple] = None  # in-flight (job_id, task)
        self.ready = False
        self.last_seen = time.monotonic()


class ShardPool:
    """``workers`` spawn processes, or one in-process worker for 0.

    ``warm`` is a spec every worker builds before it reports ``ready``
    (the coordinator's campaign); the service passes none and workers
    build designs on first use.
    """

    def __init__(self, workers: int, checkpoint_dir: Optional[str] = None,
                 max_restarts: int = 3,
                 heartbeat_timeout: Optional[float] = None,
                 warm: Optional[CampaignSpec] = None):
        self.workers = workers
        self.max_restarts = max_restarts
        self.heartbeat_timeout = heartbeat_timeout
        every = HEARTBEAT_SECONDS
        if heartbeat_timeout is not None:
            every = min(every, heartbeat_timeout / 4)
        self.cfg = {"checkpoint_dir": checkpoint_dir,
                    "heartbeat_seconds": every}
        self.warm = warm
        self._workers: Dict[int, _Worker] = {}
        self._next_id = 0
        self._inline: Optional[WorkerLoop] = None
        if workers > 0:
            self._mp = mp.get_context("spawn")
            self._result_q = self._mp.Queue()
        else:
            self._tasks: "queue_mod.Queue" = queue_mod.Queue()
            self._inbox: deque = deque()

    def start(self) -> "ShardPool":
        for _ in range(max(1, self.workers)):
            self._spawn()
        return self

    def _spawn(self) -> None:
        wid = self._next_id
        self._next_id += 1
        if self.workers == 0:
            self._workers[wid] = _Worker(wid, None, self._tasks)
            self._inline = WorkerLoop(wid, self._inbox.append, self.cfg,
                                      self.warm)
            return
        task_q = self._mp.Queue()
        proc = self._mp.Process(
            target=run_worker,
            args=(wid, task_q, self._result_q, self.cfg, self.warm),
            daemon=True,
            name=f"repro-shard-w{wid}",
        )
        proc.start()
        self._workers[wid] = _Worker(wid, proc, task_q)

    # -- dispatch --------------------------------------------------------------

    def idle(self) -> List[int]:
        """Ready workers with no shard in flight."""
        return [w.id for w in self._workers.values()
                if w.ready and w.task is None]

    def inflight(self) -> int:
        return sum(1 for w in self._workers.values() if w.task is not None)

    def send(self, wid: int, job_id, spec: CampaignSpec, task: dict) -> None:
        w = self._workers[wid]
        w.task = (job_id, task)
        w.last_seen = time.monotonic()
        w.task_q.put((job_id, spec, task))

    # -- messages --------------------------------------------------------------

    def receive(self, timeout: float) -> Optional[tuple]:
        """The next worker message, or None after ``timeout`` seconds.

        For the in-process worker this runs the next queued shard to
        completion on the calling thread.
        """
        if self._inline is None:
            try:
                return self._result_q.get(timeout=timeout)
            except queue_mod.Empty:
                return None
        if not self._inbox:
            try:
                msg = self._tasks.get(timeout=timeout)
            except queue_mod.Empty:
                return None
            self._inline.serve(msg)
        return self._inbox.popleft()

    def handle(self, msg: tuple) -> Optional[tuple]:
        """Account ``msg`` to its worker; returns it, or None for a late
        message from a reaped worker (whose shard was already retried)."""
        kind, wid = msg[0], msg[1]
        w = self._workers.get(wid)
        if w is None:
            return None
        w.last_seen = time.monotonic()
        if kind == "ready":
            w.ready = True
        elif kind in ("result", "error"):
            w.task = None
        return msg

    def reap(self) -> List[tuple]:
        """Terminate silent workers, respawn dead ones, and return the
        ``retry``/``error`` events for the shards the dead ones held."""
        events = []
        now = time.monotonic()
        for w in list(self._workers.values()):
            if w.process is None:
                continue  # the in-process worker cannot die or fall silent
            if w.process.exitcode is None:
                if (self.heartbeat_timeout is not None and w.task is not None
                        and now - w.last_seen > self.heartbeat_timeout):
                    w.process.terminate()  # reaped as a death next time
                continue
            del self._workers[w.id]
            self._spawn()
            if not w.ready:
                events.append((
                    "error", w.id, None, None,
                    f"worker {w.id} exited with code {w.process.exitcode} "
                    "before it was ready",
                ))
            elif w.task is not None:
                job_id, task = w.task
                sid = task["shard"][0]
                attempt = task["attempt"] + 1
                if attempt > self.max_restarts:
                    events.append((
                        "error", w.id, job_id, sid,
                        f"shard {sid} killed {attempt} worker(s) "
                        f"(max_restarts={self.max_restarts}); giving up",
                    ))
                else:
                    events.append(("retry", w.id, job_id, sid, attempt))
        return events

    def poll(self, timeout: float = _POLL_S) -> List[tuple]:
        """Every message that arrives within ``timeout`` (and whatever is
        queued behind it), then :meth:`reap` — for synchronous callers."""
        events = []
        msg = self.receive(timeout)
        while msg is not None:
            if self.handle(msg) is not None:
                events.append(msg)
            msg = self.receive(0)
        return events + self.reap()

    # -- shutdown --------------------------------------------------------------

    def stop(self, timeout: float = 5.0) -> None:
        """Sentinel every worker, join, then terminate, then kill."""
        procs = [w.process for w in self._workers.values()
                 if w.process is not None]
        for w in self._workers.values():
            if w.process is not None and w.process.exitcode is None:
                try:
                    w.task_q.put(None)
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + timeout
        while (any(p.exitcode is None for p in procs)
               and time.monotonic() < deadline):
            # Drain while waiting: a worker blocked writing into a full
            # result pipe could never exit.
            self.receive(0.05)
        for p in procs:
            if p.exitcode is None:
                p.terminate()
                p.join(timeout=1.0)
            if p.exitcode is None:
                p.kill()
                p.join(timeout=1.0)
        self._workers.clear()
        self._inline = None
