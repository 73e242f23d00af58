"""The campaign coordinator: shard scheduling, liveness, crash recovery.

The coordinator plans a campaign into lane shards (more shards than
workers — see :func:`~repro.cluster.spec.plan_shards`) and drives a
:class:`~repro.cluster.pool.ShardPool` from one synchronous loop,
whatever the worker count: shards go to whichever worker frees up first,
so a slow shard never staggers the rest of the campaign behind it.

Each shard has one durable record: its payload in a
:class:`~repro.serve.store.ResultStore` under
:meth:`~repro.cluster.spec.CampaignSpec.shard_signature` — ``store``
when one is given, else ``<checkpoint_dir>/results``.  :meth:`run`
probes the store once per shard and publishes each simulated shard
once.  The key is the shard's content, so rerunning a campaign adopts
every shard it already finished, and a different campaign pointed at the
same directory simply misses.

Failure handling, layered on the resilience layer (the pool makes the
retry-or-give-up decision; this loop acts on it):

* **Worker death** (SIGKILL, OOM, segfault): the shard is re-queued and
  a fresh worker is spawned; the retry restores the shard's mid-shard
  snapshot (``<checkpoint_dir>/shard-<shard_signature>``, keyed by
  content too) when one exists, and starts from scratch otherwise —
  same merged result either way, the snapshot only saves recomputation.
  A shard that keeps killing its workers exhausts ``max_restarts`` and
  fails the campaign.
* **Worker silence**: with ``heartbeat_timeout`` set, a worker holding a
  shard that sends nothing for that long is terminated and handled as a
  death (off by default — process death detection is the primary signal).
* **Coordinator death**: rerun the campaign with the same
  ``checkpoint_dir``.  Finished shards are store hits, and unfinished
  ones restore from their snapshots.  A shard's snapshot directory is
  removed as soon as its result is in the store, so disk use stays
  bounded by the shards in flight.
* **Deterministic worker errors** (bad design, simulation error): fail
  the campaign immediately — rerunning a deterministic failure burns
  restarts without changing the outcome.

Caveat (documented in docs/cluster.md): coverage and traced shards rerun
from cycle 0 instead of restoring a snapshot — neither toggle-coverage
state nor trace samples are checkpointed.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import deque
from typing import Dict, Optional, Set

from repro import obs
from repro.cluster.merge import CampaignResult, ShardOutcome, merge_payloads
from repro.cluster.pool import ShardPool
from repro.cluster.spec import CampaignSpec, ShardSpec, plan_shards
from repro.cluster.worker import shard_checkpoint_dir
from repro.utils.errors import ClusterError

__all__ = ["CampaignCoordinator", "run_campaign"]


class CampaignCoordinator:
    """Splits one campaign into lane shards and runs them on a pool.

    ``workers=0`` runs every shard in this process on this thread (no
    multiprocessing; crash injection is ignored) — the same code path
    end to end, handy for debugging and deterministic tests.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        workers: int = 2,
        shard_lanes: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        inject_worker_crash: Optional[Dict[int, int]] = None,
        heartbeat_timeout: Optional[float] = None,
        max_restarts: int = 3,
        store=None,
    ):
        spec.validate()
        if workers < 0:
            raise ClusterError(f"worker count must be >= 0, got {workers}")
        self.spec = spec
        self.workers = workers
        self.shards = plan_shards(spec.n, max(1, workers), shard_lanes)
        self.checkpoint_dir = (
            os.path.abspath(checkpoint_dir) if checkpoint_dir else None
        )
        self.inject_worker_crash = dict(inject_worker_crash or {})
        self.heartbeat_timeout = heartbeat_timeout
        self.max_restarts = max_restarts
        # The shards' durable records: a content-addressed result store
        # (repro.serve.store.ResultStore or a directory path), by default
        # the one inside checkpoint_dir.  Shards whose content key is
        # already stored are adopted instead of simulated, and every
        # freshly simulated shard is published back.
        if store is None and self.checkpoint_dir is not None:
            store = os.path.join(self.checkpoint_dir, "results")
        if isinstance(store, str):
            from repro.serve.store import ResultStore

            store = ResultStore(store)
        self.store = store
        self.restarts = 0
        bad = [sid for sid in self.inject_worker_crash
               if sid not in range(len(self.shards))]
        if bad:
            raise ClusterError(
                f"inject_worker_crash targets unknown shard(s) {bad}; "
                f"campaign has shards 0..{len(self.shards) - 1}"
            )

    def _make_task(self, shard: ShardSpec, attempt: int) -> dict:
        crash = None
        if attempt == 0 and self.workers:  # never SIGKILL the caller
            crash = self.inject_worker_crash.get(shard.id)
        return {
            "shard": (shard.id, shard.lo, shard.hi),
            "attempt": attempt,
            "crash_cycle": crash,
        }

    # -- running ---------------------------------------------------------------

    def run(self) -> CampaignResult:
        t_start = time.monotonic()
        done: Dict[int, dict] = {}
        hits: Set[int] = set()
        pending: deque = deque()
        for shard in self.shards:
            payload = (
                self.store.lookup(self.spec, shard)
                if self.store is not None else None
            )
            if payload is None:
                pending.append((shard, 0))
            else:
                done[shard.id] = payload
                hits.add(shard.id)
        if pending:
            self._drive(pending, done)
        result = self._merge(done, hits)
        result.wall_seconds = time.monotonic() - t_start
        return result

    def _drive(self, pending: deque, done: Dict[int, dict]) -> None:
        """Dispatch ``pending`` to a pool until every shard is ``done``."""
        total = len(done) + len(pending)
        pool = ShardPool(
            min(self.workers, len(pending)),
            checkpoint_dir=self.checkpoint_dir,
            max_restarts=self.max_restarts,
            heartbeat_timeout=self.heartbeat_timeout,
            warm=self.spec,
        ).start()
        try:
            while len(done) < total:
                for wid in pool.idle()[:len(pending)]:
                    shard, attempt = pending.popleft()
                    pool.send(wid, None, self.spec,
                              self._make_task(shard, attempt))
                for kind, _wid, _job, sid, data in pool.poll():
                    if kind == "result" and sid not in done:
                        self._complete(self.shards[sid], data, done)
                    elif kind == "retry":
                        pending.appendleft((self.shards[sid], data))
                        self.restarts += 1
                    elif kind == "error":
                        raise ClusterError(data)
        finally:
            pool.stop()

    def _complete(self, shard: ShardSpec, payload: dict,
                  done: Dict[int, dict]) -> None:
        if payload.get("signature") != self.spec.signature():
            raise ClusterError(
                f"shard {shard.id} returned a result for a different "
                "campaign signature"
            )
        done[shard.id] = payload
        if self.store is None:
            return
        key = self.spec.shard_signature(shard)
        self.store.put(key, payload)
        if self.checkpoint_dir is not None:
            # The stored result supersedes the shard's snapshots.
            shutil.rmtree(shard_checkpoint_dir(self.checkpoint_dir, key),
                          ignore_errors=True)

    # -- merging ---------------------------------------------------------------

    def _merge(self, done: Dict[int, dict], hits: Set[int]) -> CampaignResult:
        result = merge_payloads(self.spec, list(done.values()))
        result.shards = [
            ShardOutcome.from_payload(s, done[s.id], cache_hit=s.id in hits)
            for s in self.shards
        ]
        result.restarts = self.restarts
        result.workers = self.workers
        m = result.metrics
        m.set_gauge("cluster.workers", self.workers)
        m.set_gauge("cluster.shards", len(self.shards))
        m.set_gauge("cluster.lanes", self.spec.n)
        if self.restarts:
            m.inc("cluster.worker_restarts", self.restarts)
        if self.store is not None:
            m.inc("cluster.store_hits", len(hits))
            m.inc("cluster.store_misses", len(self.shards) - len(hits))
            m.set_gauge(
                "cluster.store_hit_rate", len(hits) / max(1, len(self.shards))
            )
        for o in result.shards:
            if not o.cached:
                m.observe("cluster.shard_wall_seconds", o.wall_seconds)
        # Forward into the session telemetry (the CLI's --metrics-json /
        # --trace-json capture) when it is listening.
        session = obs.get_metrics()
        if session.enabled and session is not m:
            session.merge(m)
        gt = obs.get_tracer()
        if gt.enabled and gt is not result.tracer:
            for s in result.tracer.spans:
                gt.record(s.name, s.start, s.end,
                          resource=s.resource, depth=s.depth)
        return result


def run_campaign(spec: CampaignSpec, **kwargs) -> CampaignResult:
    """Build a :class:`CampaignCoordinator` and run it (one-call API)."""
    return CampaignCoordinator(spec, **kwargs).run()
