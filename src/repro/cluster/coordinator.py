"""The campaign coordinator: shard scheduling, liveness, crash recovery.

The coordinator plans a campaign into lane shards (more shards than
workers — see :func:`~repro.cluster.spec.plan_shards`) and drives a
:class:`~repro.cluster.pool.ShardPool` from one synchronous loop,
whatever the worker count: shards go to whichever worker frees up first,
so a slow shard never staggers the rest of the campaign behind it.

Failure handling, layered on the resilience layer (the pool makes the
retry-or-give-up decision; this loop acts on it):

* **Worker death** (SIGKILL, OOM, segfault): the shard is re-queued and
  a fresh worker is spawned; the retry resumes from the shard's own
  durable :class:`~repro.resilience.CheckpointManager` checkpoint when
  one exists (from scratch otherwise — same merged result either way,
  the checkpoint only saves recomputation).  A shard that keeps killing
  its workers exhausts ``max_restarts`` and fails the campaign.
* **Worker silence**: with ``heartbeat_timeout`` set, a worker holding a
  shard that sends nothing for that long is terminated and handled as a
  death (off by default — process death detection is the primary signal).
* **Coordinator death**: each completed shard's payload is persisted
  atomically under ``checkpoint_dir`` (``result-shard-NNNN.pkl``);
  ``resume=True`` reloads completed shards instantly and restarts only
  unfinished ones from their shard checkpoints.  Persisted results are
  tied to the campaign's :meth:`~repro.cluster.spec.CampaignSpec.signature`
  so a changed spec can never silently mix stale lanes in.
* **Deterministic worker errors** (bad design, simulation error): fail
  the campaign immediately — rerunning a deterministic failure burns
  restarts without changing the outcome.

Caveat (documented in docs/cluster.md): with ``spec.coverage`` enabled,
retried/resumed shards rerun from cycle 0 instead of their checkpoint —
toggle-coverage state is not checkpointed, and a partial rerun would
undercount the merged report.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from typing import Dict, Optional

from repro import obs
from repro.cluster.merge import CampaignResult, ShardOutcome, merge_payloads
from repro.cluster.pool import ShardPool
from repro.cluster.spec import CampaignSpec, ShardSpec, plan_shards
from repro.cluster.worker import PAYLOAD_SCHEMA
from repro.resilience.checkpoint import atomic_write_bytes
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
        resume: bool = False,
        inject_worker_crash: Optional[Dict[int, int]] = None,
        heartbeat_timeout: Optional[float] = None,
        max_restarts: int = 3,
        store=None,
    ):
        spec.validate()
        if workers < 0:
            raise ClusterError(f"worker count must be >= 0, got {workers}")
        if resume and not checkpoint_dir:
            raise ClusterError("resume=True requires a checkpoint_dir")
        self.spec = spec
        self.workers = workers
        self.shards = plan_shards(spec.n, max(1, workers), shard_lanes)
        self.checkpoint_dir = (
            os.path.abspath(checkpoint_dir) if checkpoint_dir else None
        )
        self.resume = resume
        self.inject_worker_crash = dict(inject_worker_crash or {})
        self.heartbeat_timeout = heartbeat_timeout
        self.max_restarts = max_restarts
        # Content-addressed result store (repro.serve.store.ResultStore
        # or a directory path): shards whose content key is already in
        # the store are adopted instead of simulated, and every freshly
        # simulated shard is published back for future campaigns.
        if isinstance(store, str):
            from repro.serve.store import ResultStore

            store = ResultStore(store)
        self.store = store
        self.restarts = 0
        self._outcomes: Dict[int, ShardOutcome] = {
            s.id: ShardOutcome(id=s.id, lo=s.lo, hi=s.hi, attempts=0)
            for s in self.shards
        }
        bad = [sid for sid in self.inject_worker_crash
               if sid not in self._outcomes]
        if bad:
            raise ClusterError(
                f"inject_worker_crash targets unknown shard(s) {bad}; "
                f"campaign has shards 0..{len(self.shards) - 1}"
            )

    # -- durable per-shard results ---------------------------------------------

    def _result_path(self, shard_id: int) -> str:
        assert self.checkpoint_dir is not None
        return os.path.join(
            self.checkpoint_dir, f"result-shard-{shard_id:04d}.pkl"
        )

    def _persist_payload(self, payload: dict) -> None:
        if self.checkpoint_dir is None:
            return
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        atomic_write_bytes(
            self._result_path(payload["shard"][0]),
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def _load_persisted(self, shard: ShardSpec) -> Optional[dict]:
        """A prior run's payload for ``shard``, if one is valid here.

        Signature mismatch is an error (the directory belongs to a
        different campaign); a geometry mismatch (same campaign, new
        ``shard_lanes``) just recomputes the shard.
        """
        path = self._result_path(shard.id)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            return None  # truncated/corrupt: recompute the shard
        if payload.get("schema") != PAYLOAD_SCHEMA:
            return None
        if payload.get("signature") != self.spec.signature():
            raise ClusterError(
                f"{path} was produced by a different campaign "
                "(design/seed/geometry/fault script changed); refusing to "
                "mix results — use a fresh --checkpoint-dir"
            )
        if tuple(payload.get("shard", ())) != (shard.id, shard.lo, shard.hi):
            return None
        return payload

    # -- task construction -----------------------------------------------------

    def _make_task(self, shard: ShardSpec, attempt: int) -> dict:
        resume = (
            (self.resume or attempt > 0)
            and self.checkpoint_dir is not None
            and not self.spec.coverage  # coverage is not checkpointed
        )
        crash = None
        if attempt == 0 and self.workers:  # never SIGKILL the caller
            crash = self.inject_worker_crash.get(shard.id)
        return {
            "shard": (shard.id, shard.lo, shard.hi),
            "attempt": attempt,
            "resume": resume,
            "crash_cycle": crash,
        }

    # -- running ---------------------------------------------------------------

    def run(self) -> CampaignResult:
        t_start = time.monotonic()
        done: Dict[int, dict] = {}
        pending: deque = deque()
        for shard in self.shards:
            payload = (
                self._load_persisted(shard)
                if (self.resume and self.checkpoint_dir) else None
            )
            if payload is None and self.store is not None:
                payload = self.store.lookup(self.spec, shard)
                self._outcomes[shard.id].cache_hit = payload is not None
            if payload is not None:
                done[shard.id] = payload
                out = self._outcomes[shard.id]
                out.cached = True
                out.cycles_run = payload.get("cycles_run", 0)
            else:
                pending.append((shard, 0))
        if pending:
            self._drive(pending, done)
        result = self._merge(done)
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
                        self._complete(sid, data, done)
                    elif kind == "retry":
                        pending.appendleft((self.shards[sid], data))
                        self.restarts += 1
                    elif kind == "error":
                        raise ClusterError(data)
        finally:
            pool.stop()

    def _complete(self, shard_id: int, payload: dict, done: Dict[int, dict]):
        if payload.get("signature") != self.spec.signature():
            raise ClusterError(
                f"shard {shard_id} returned a result for a different "
                "campaign signature"
            )
        done[shard_id] = payload
        self._persist_payload(payload)
        if self.store is not None:
            self.store.put(
                self.spec.shard_signature(self.shards[shard_id]), payload
            )
        out = self._outcomes[shard_id]
        out.attempts = payload.get("attempt", 0) + 1
        out.cycles_run = payload.get("cycles_run", 0)
        out.resumed_from = payload.get("resumed_from", 0)
        out.wall_seconds = payload.get("wall_seconds", 0.0)
        out.pid = payload.get("pid")

    # -- merging ---------------------------------------------------------------

    def _merge(self, done: Dict[int, dict]) -> CampaignResult:
        result = merge_payloads(self.spec, list(done.values()))
        result.shards = [self._outcomes[s.id] for s in self.shards]
        result.restarts = self.restarts
        result.workers = self.workers
        m = result.metrics
        m.set_gauge("cluster.workers", self.workers)
        m.set_gauge("cluster.shards", len(self.shards))
        m.set_gauge("cluster.lanes", self.spec.n)
        if self.restarts:
            m.inc("cluster.worker_restarts", self.restarts)
        cached = sum(1 for o in result.shards if o.cached and not o.cache_hit)
        if cached:
            m.inc("cluster.shards_resumed_from_results", cached)
        if self.store is not None:
            hits = sum(1 for o in result.shards if o.cache_hit)
            m.inc("cluster.store_hits", hits)
            m.inc("cluster.store_misses", len(self.shards) - hits)
            m.set_gauge(
                "cluster.store_hit_rate", hits / max(1, len(self.shards))
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
