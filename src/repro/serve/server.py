"""`repro serve` — the long-running asyncio campaign service.

One process, one event loop, three moving parts:

* **Job queue + fair scheduler** — submissions arrive over a local
  HTTP/JSON API, are planned into lane shards
  (:func:`~repro.cluster.spec.plan_shards`, the cluster's planner), and
  queue through the :class:`~repro.serve.scheduler.FairScheduler`:
  weighted round-robin across tenants at *shard* granularity, per-tenant
  in-flight caps, bounded-queue backpressure (HTTP 429).
* **Content-addressed result store** — every shard's content key
  (:meth:`CampaignSpec.shard_signature`) is probed at submission:
  hits are adopted without touching a worker, misses are simulated and
  published back.  An identical resubmission is pure store reads (hit rate
  1.0, zero simulations, byte-identical merged outputs); an edited
  campaign re-simulates only its changed shards.
* **Worker pool** — the cluster's :class:`~repro.cluster.pool.ShardPool`,
  the same pool and worker loop ``repro campaign`` drives: ``workers >
  0`` spawn-started processes, ``workers == 0`` the loop on the
  service's pump thread (deterministic tests/debug).  A pump thread
  feeds worker messages into the event loop; a watchdog coroutine reaps
  dead workers and requeues their shards.

Durability: job records persist as JSON under ``<data_dir>/jobs`` and
shard results live in the store, so a SIGTERM'd server drains its
in-flight shards, persists queued jobs, and a restarted server resumes
them — completed shards come back as store hits, only the remainder is
simulated.  Telemetry (`repro.obs`) threads through everything:
``serve.*`` metrics on ``GET /metrics``, spans on the service tracer.

API (all JSON, all local-trust — no auth):

====== ======================= =====================================
POST   /jobs                    submit {"spec": {...}, "tenant", "weight"}
GET    /jobs[?tenant=]          list job summaries
GET    /jobs/<id>[?since=N]     status + incremental events after seq N
GET    /jobs/<id>/result        merged outputs (hex), digest, metrics
POST   /jobs/<id>/cancel        cancel (releases queued shards)
GET    /metrics                 service/store/tenant/registry metrics
GET    /healthz                 liveness
====== ======================= =====================================
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.cluster.merge import ShardOutcome, merge_payloads
from repro.cluster.pool import ShardPool
from repro.cluster.spec import CampaignSpec, ShardSpec, plan_shards
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.resilience.checkpoint import atomic_write_bytes
from repro.serve.protocol import (
    JobRecord,
    encode_outputs,
    outputs_digest,
    spec_from_dict,
    spec_to_dict,
)
from repro.serve.scheduler import FairScheduler
from repro.serve.store import ResultStore
from repro.utils.errors import QueueFullError, ServiceError

__all__ = ["CampaignService", "BackgroundService", "run_service"]

_EVENT_CAP = 4096  # per-job in-memory event window
_JOB_ID_RE = re.compile(r"^j\d{6}$")


# ---------------------------------------------------------------------------
# Runtime job state


@dataclass
class _Job:
    record: JobRecord
    spec: CampaignSpec
    shards: List[ShardSpec]
    payloads: Dict[int, dict] = field(default_factory=dict)
    attempts: Dict[int, int] = field(default_factory=dict)
    events: List[dict] = field(default_factory=list)
    hit_ids: set = field(default_factory=set)
    t_submit: float = 0.0
    result = None  # merged CampaignResult, once done
    done_event: Optional[asyncio.Event] = None


# ---------------------------------------------------------------------------
# The service


class CampaignService:
    """The campaign service: queue + store + fair scheduler + workers.

    All state mutations happen on the event loop thread; worker
    completions are marshalled onto it.  Construct, then ``await
    start()`` inside a running loop (or use :class:`BackgroundService` /
    :func:`run_service`).
    """

    def __init__(
        self,
        data_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 0,
        shard_lanes: Optional[int] = None,
        max_queued_shards: int = 1024,
        tenant_inflight_cap: Optional[int] = None,
        store_max_bytes: Optional[int] = None,
        store_max_entries: Optional[int] = None,
        max_restarts: int = 3,
    ):
        self.data_dir = os.path.abspath(data_dir)
        self.jobs_dir = os.path.join(self.data_dir, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self.host = host
        self.port = port
        self.workers = workers
        self.shard_lanes = shard_lanes
        self.store = ResultStore(
            os.path.join(self.data_dir, "store"),
            max_bytes=store_max_bytes,
            max_entries=store_max_entries,
        )
        self.scheduler = FairScheduler(
            max_queued=max_queued_shards, inflight_cap=tenant_inflight_cap
        )
        self.metrics = MetricsRegistry(enabled=True)
        self.tracer = Tracer(enabled=True)
        self.jobs: Dict[str, _Job] = {}
        #: Global shard-completion log [(tenant, job_id, shard_id)] — the
        #: record the fairness tests (and acceptance criteria) read to
        #: see tenants' shards interleaving.
        self.shard_log: List[Tuple[str, str, int]] = []
        self._pool = ShardPool(workers, max_restarts=max_restarts)
        self._pump: Optional[threading.Thread] = None
        self._pump_stop = threading.Event()
        self._seq = 0
        self._next_job_num = 1
        self._wake: Optional[asyncio.Event] = None
        self._dispatch_task = None
        self._watchdog_task = None
        self._http_server = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping = False
        self._t0 = time.monotonic()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._load_jobs()
        self._pool.start()
        self._pump = threading.Thread(
            target=self._pump_main, name="repro-serve-pump", daemon=True
        )
        self._pump.start()
        self._dispatch_task = asyncio.ensure_future(self._dispatch_loop())
        self._watchdog_task = asyncio.ensure_future(self._watchdog_loop())
        self._http_server = await asyncio.start_server(
            self._handle_conn, host=self.host, port=self.port
        )
        self.port = self._http_server.sockets[0].getsockname()[1]
        self._wake.set()

    async def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Drain and stop: the SIGTERM path.

        With ``drain=True`` the service stops accepting submissions and
        dispatching new shards, lets in-flight shards finish (bounded by
        ``timeout``; their results still reach the store), persists
        every non-terminal job as ``queued``, and exits.  A restarted
        server on the same ``data_dir`` re-enqueues those jobs; their
        already-completed shards come back as store hits.
        """
        self._stopping = True
        if self._wake is not None:
            self._wake.set()
        if drain:
            deadline = time.monotonic() + timeout
            while self._pool.inflight() and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
        for task in (self._dispatch_task, self._watchdog_task):
            if task is not None:
                task.cancel()
                try:
                    await task
                except BaseException:  # noqa: BLE001 - cancelled/failed task
                    pass
        for job in self.jobs.values():
            if not job.record.terminal:
                job.record.state = "queued"
                self._persist(job.record)
        await self._loop.run_in_executor(None, self._stop_pool)
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()

    # -- durable job records ---------------------------------------------------

    def _job_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.json")

    def _persist(self, record: JobRecord) -> None:
        atomic_write_bytes(
            self._job_path(record.id),
            json.dumps(record.to_dict(), indent=1).encode(),
        )

    def _load_jobs(self) -> None:
        """Reload persisted jobs; re-enqueue the non-terminal ones."""
        for name in sorted(os.listdir(self.jobs_dir)):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.jobs_dir, name)) as fh:
                    record = JobRecord.from_dict(json.load(fh))
            except Exception:
                continue  # unreadable record: skip, don't crash the server
            if _JOB_ID_RE.match(record.id):
                self._next_job_num = max(
                    self._next_job_num, int(record.id[1:]) + 1
                )
            spec = spec_from_dict(record.spec)
            job = _Job(record=record, spec=spec,
                       shards=self._plan(spec), t_submit=time.monotonic())
            self.jobs[record.id] = job
            if record.terminal:
                continue
            # Restart a non-terminal job from the durable store: counters
            # reset to this lifetime so hits + simulated == total again —
            # shards the previous server finished come back as hits.
            record.store_hits = 0
            record.shards_simulated = 0
            record.shards_done = 0
            self._event(job, "resumed")
            self._enqueue(job)

    # -- submission ------------------------------------------------------------

    def _plan(self, spec: CampaignSpec) -> List[ShardSpec]:
        return plan_shards(spec.n, max(1, self.workers), self.shard_lanes)

    def submit(self, spec_dict: dict, tenant: str = "default",
               weight: float = 1.0) -> dict:
        """Validate, plan, cache-probe and queue one campaign.

        Returns the job's status dict.  Raises :class:`ServiceError`
        (bad spec → 400) or :class:`QueueFullError` (backpressure → 429,
        nothing queued).
        """
        if self._stopping:
            raise ServiceError("service is draining; resubmit after restart")
        tenant = str(tenant or "default")
        with self.tracer.span("serve.submit"):
            spec = spec_from_dict(spec_dict)
            job_id = f"j{self._next_job_num:06d}"
            record = JobRecord(
                id=job_id, tenant=tenant, weight=float(weight),
                spec=spec_to_dict(spec), submitted_seq=self._bump_seq(),
            )
            job = _Job(record=record, spec=spec, shards=self._plan(spec),
                       t_submit=time.monotonic())
            record.shards_total = len(job.shards)
            self._event(job, "submitted", tenant=tenant,
                        shards=len(job.shards))
            # The id is claimed only once _enqueue can no longer raise
            # QueueFullError, so a rejected submission leaves no trace.
            self._enqueue(job)
            self._next_job_num += 1
            self.jobs[job_id] = job
            self.metrics.inc("serve.jobs_submitted")
            self._persist(record)
            self._wake.set()
        return self.job_status(job_id)

    def _enqueue(self, job: _Job) -> None:
        """Probe the store for every shard; queue only the misses."""
        record = job.record
        record.shards_total = len(job.shards)
        pending: List[ShardSpec] = []
        hits = 0
        for shard in job.shards:
            payload = self.store.lookup(job.spec, shard)
            if payload is not None:
                job.payloads[shard.id] = payload
                job.hit_ids.add(shard.id)
                hits += 1
                self._event(job, "shard-cache-hit", shard=shard.id)
            else:
                pending.append(shard)
        record.store_hits += hits
        record.shards_done = len(job.payloads)
        self.metrics.inc("serve.store_hits", hits)
        self.metrics.inc("serve.store_misses", len(pending))
        if not pending:
            self._finalize(job)
            return
        record.state = "queued"
        self.scheduler.submit(
            record.id, record.tenant, record.weight, pending
        )

    def _bump_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _event(self, job: _Job, kind: str, **data) -> None:
        ev = {"seq": self._bump_seq(),
              "t": round(time.monotonic() - self._t0, 4),
              "kind": kind}
        ev.update(data)
        job.events.append(ev)
        if len(job.events) > _EVENT_CAP:
            del job.events[: len(job.events) - _EVENT_CAP]

    # -- dispatch --------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self._stopping:
                return
            for wid in self._pool.idle():
                pick = self.scheduler.next()
                if pick is None:
                    break
                job_id, shard = pick
                job = self.jobs[job_id]
                attempt = job.attempts.get(shard.id, 0)
                if job.record.state == "queued":
                    job.record.state = "running"
                    self._persist(job.record)
                self._event(job, "shard-started", shard=shard.id,
                            worker=wid, attempt=attempt)
                self._pool.send(wid, job_id, job.spec, {
                    "shard": (shard.id, shard.lo, shard.hi),
                    "attempt": attempt,
                })
            self.metrics.set_gauge("serve.queue_depth", self.scheduler.queued)
            self.metrics.set_gauge("serve.inflight", self.scheduler.inflight)

    def _pump_main(self) -> None:
        """Pump thread: worker messages into the event loop.  With
        ``workers == 0`` this is also where shards run."""
        while not self._pump_stop.is_set():
            msg = self._pool.receive(0.1)
            if msg is None:
                continue
            try:
                self._loop.call_soon_threadsafe(self._on_message, msg)
            except RuntimeError:
                return  # loop already closed during shutdown

    def _stop_pool(self) -> None:
        self._pump_stop.set()
        if self._pump is not None:
            self._pump.join(timeout=10)
        self._pool.stop()

    async def _watchdog_loop(self) -> None:
        """Reap dead workers; the pool decides each shard's retry."""
        while True:
            await asyncio.sleep(0.25)
            for event in self._pool.reap():
                self._on_event(event)

    # -- worker messages -------------------------------------------------------

    def _on_message(self, msg) -> None:
        event = self._pool.handle(msg)
        if event is not None:
            self._on_event(event)

    def _on_event(self, event) -> None:
        kind, wid, job_id, shard_id, data = event
        self._wake.set()
        job = self.jobs.get(job_id)
        if job is None:
            return  # "ready", or a worker that died before it was ready
        if kind == "progress":
            if not job.record.terminal:
                self._event(job, "progress", shard=shard_id, cycles=data)
            return
        # Every other event ends the shard's turn on a worker.
        self.scheduler.task_done(job.record.tenant)
        if kind == "result":
            self._finish_shard(wid, job, shard_id, data)
        elif kind == "retry":
            self.metrics.inc("serve.worker_restarts")
            if not job.record.terminal:
                job.attempts[shard_id] = data
                self._event(job, "shard-requeued", shard=shard_id,
                            attempt=data)
                self.scheduler.requeue_front(
                    job_id, job.record.tenant, job.record.weight,
                    job.shards[shard_id],
                )
        else:
            self.metrics.inc("serve.shard_errors")
            if not job.record.terminal:
                self._fail(job, data)

    def _finish_shard(self, wid: int, job: _Job, shard_id: int,
                      payload: dict) -> None:
        shard = job.shards[shard_id]
        # Publish to the content-addressed store regardless of job state:
        # a cancelled job's finished shard is still a valid, reusable
        # result (the store stays consistent — keys never lie).
        self.store.put(job.spec.shard_signature(shard), payload)
        if job.record.terminal:
            self._event(job, "shard-discarded", shard=shard_id)
            return
        job.payloads[shard_id] = payload
        job.record.shards_done = len(job.payloads)
        job.record.shards_simulated += 1
        self.metrics.inc("serve.shards_simulated")
        self.shard_log.append((job.record.tenant, job.record.id, shard_id))
        self._event(job, "shard-done", shard=shard_id, worker=wid,
                    cycles=payload.get("cycles_run", 0))
        if len(job.payloads) == len(job.shards):
            self._finalize(job)

    # -- completion ------------------------------------------------------------

    def _finalize(self, job: _Job) -> None:
        record = job.record
        with self.tracer.span("serve.merge"):
            try:
                payloads = [job.payloads[s.id] for s in job.shards]
                result = merge_payloads(job.spec, payloads)
            except Exception as exc:
                self._fail(job, f"merge failed: {type(exc).__name__}: {exc}")
                return
        result.shards = [
            ShardOutcome.from_payload(s, job.payloads[s.id],
                                      cache_hit=s.id in job.hit_ids)
            for s in job.shards
        ]
        result.workers = self.workers
        job.result = result
        record.state = "done"
        record.result_digest = outputs_digest(result.outputs)
        record.outputs = sorted(result.outputs)
        record.wall_seconds = round(time.monotonic() - job.t_submit, 4)
        self._event(job, "done", digest=record.result_digest,
                    hit_rate=record.progress()["hit_rate"])
        self.metrics.inc("serve.jobs_done")
        self._persist(record)
        if job.done_event is not None:
            job.done_event.set()

    def _fail(self, job: _Job, message: str) -> None:
        record = job.record
        record.state = "failed"
        record.error = message
        self.scheduler.cancel(record.id)
        self._event(job, "failed", error=message)
        self.metrics.inc("serve.jobs_failed")
        self._persist(record)
        if job.done_event is not None:
            job.done_event.set()

    def cancel(self, job_id: str) -> dict:
        job = self._get_job(job_id)
        record = job.record
        if record.terminal:
            return self.job_status(job_id)
        freed = self.scheduler.cancel(job_id)
        record.state = "cancelled"
        record.cancelled_shards = (
            record.shards_total - record.shards_done
        )
        self._event(job, "cancelled", released_shards=freed)
        self.metrics.inc("serve.jobs_cancelled")
        self._persist(record)
        if job.done_event is not None:
            job.done_event.set()
        self._wake.set()
        return self.job_status(job_id)

    # -- queries ---------------------------------------------------------------

    def _get_job(self, job_id: str) -> _Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        return job

    def job_status(self, job_id: str, since: Optional[int] = None) -> dict:
        job = self._get_job(job_id)
        out = {"job": job.record.to_dict(),
               "progress": job.record.progress()}
        if since is not None:
            events = [e for e in job.events if e["seq"] > since]
        else:
            events = list(job.events)
        out["events"] = events
        out["next_since"] = events[-1]["seq"] if events else (since or 0)
        return out

    def job_result(self, job_id: str) -> dict:
        job = self._get_job(job_id)
        record = job.record
        if record.state != "done":
            raise ServiceError(
                f"job {job_id} is {record.state}, not done"
                + (f": {record.error}" if record.error else "")
            )
        result = job.result
        if result is None:
            result = self._reconstruct(job)
            job.result = result
        return {
            "job": record.to_dict(),
            "digest": record.result_digest,
            "outputs": encode_outputs(result.outputs),
            "faults": result.faults,
            "metrics": {
                "store_hits": record.store_hits,
                "shards_simulated": record.shards_simulated,
                "hit_rate": record.progress()["hit_rate"],
            },
        }

    def _reconstruct(self, job: _Job):
        """Rebuild a done job's merged result purely from the store
        (the post-restart path: records persist, merged arrays do not)."""
        payloads = []
        for shard in job.shards:
            payload = (job.payloads.get(shard.id)
                       or self.store.lookup(job.spec, shard))
            if payload is None:
                raise ServiceError(
                    f"job {job.record.id}: shard {shard.id} result was "
                    "evicted from the store; resubmit the campaign"
                )
            payloads.append(payload)
        result = merge_payloads(job.spec, payloads)
        digest = outputs_digest(result.outputs)
        if (job.record.result_digest is not None
                and digest != job.record.result_digest):
            raise ServiceError(
                f"job {job.record.id}: reconstructed result digest "
                f"{digest[:12]}... != recorded "
                f"{job.record.result_digest[:12]}...; store corrupted"
            )
        return result

    def list_jobs(self, tenant: Optional[str] = None) -> List[dict]:
        out = []
        for job_id in sorted(self.jobs):
            r = self.jobs[job_id].record
            if tenant is not None and r.tenant != tenant:
                continue
            d = r.progress()
            d.update(id=r.id, tenant=r.tenant, weight=r.weight,
                     error=r.error, result_digest=r.result_digest)
            out.append(d)
        return out

    def service_metrics(self) -> dict:
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.record.state] = states.get(job.record.state, 0) + 1
        return {
            "uptime_seconds": round(time.monotonic() - self._t0, 3),
            "workers": self.workers,
            "jobs": states,
            "queue_depth": self.scheduler.queued,
            "inflight": self.scheduler.inflight,
            "tenants": self.scheduler.tenant_stats(),
            "store": self.store.stats(),
            "metrics": self.metrics.dump(),
            "spans": {k: v.as_dict()
                      for k, v in self.tracer.aggregate().items()},
        }

    # -- HTTP ------------------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            status, payload = await self._handle_request(reader)
        except Exception as exc:  # noqa: BLE001 - must answer the socket
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        body = json.dumps(payload).encode()
        reason = {200: "OK", 201: "Created", 400: "Bad Request",
                  404: "Not Found", 409: "Conflict",
                  429: "Too Many Requests", 503: "Service Unavailable",
                  500: "Internal Server Error"}.get(status, "OK")
        try:
            writer.write(
                f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n".encode() + body
            )
            await writer.drain()
            writer.close()
        except (ConnectionError, RuntimeError):
            pass

    async def _handle_request(self, reader) -> Tuple[int, dict]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            return 400, {"error": "malformed request line"}
        method, target = parts[0].upper(), parts[1]
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        raw = await reader.readexactly(length) if length else b""
        body = {}
        if raw:
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as exc:
                return 400, {"error": f"bad JSON body: {exc}"}
        url = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        try:
            return self._route(method, url.path, query, body)
        except KeyError as exc:
            return 404, {"error": f"unknown job {exc.args[0]!r}"}
        except QueueFullError as exc:
            return 429, {"error": str(exc)}
        except ServiceError as exc:
            code = 503 if self._stopping else (
                409 if "not done" in str(exc) else 400
            )
            return code, {"error": str(exc)}

    def _route(self, method: str, path: str, query: dict,
               body: dict) -> Tuple[int, dict]:
        if method == "GET" and path == "/healthz":
            return 200, {"ok": True, "port": self.port,
                         "draining": self._stopping}
        if method == "GET" and path == "/metrics":
            return 200, self.service_metrics()
        if path == "/jobs":
            if method == "POST":
                status = self.submit(
                    body.get("spec"),
                    tenant=body.get("tenant", "default"),
                    weight=float(body.get("weight", 1.0)),
                )
                return 201, status
            if method == "GET":
                return 200, {"jobs": self.list_jobs(query.get("tenant"))}
        m = re.match(r"^/jobs/([^/]+)(/result|/cancel)?$", path)
        if m:
            job_id, sub = m.group(1), m.group(2)
            if sub is None and method == "GET":
                since = int(query["since"]) if "since" in query else None
                return 200, self.job_status(job_id, since=since)
            if sub == "/result" and method == "GET":
                return 200, self.job_result(job_id)
            if sub == "/cancel" and method == "POST":
                return 200, self.cancel(job_id)
        return 404, {"error": f"no route for {method} {path}"}


# ---------------------------------------------------------------------------
# Entry points


class BackgroundService:
    """Run a :class:`CampaignService` on its own thread + event loop.

    The handle the tests and embedders use::

        bg = BackgroundService(CampaignService(data_dir=..., workers=0))
        bg.start()
        ... talk to http://127.0.0.1:{bg.port} ...
        bg.stop(drain=True)   # the same path the SIGTERM handler takes
    """

    def __init__(self, service: CampaignService):
        self.service = service
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.service.port

    @property
    def base_url(self) -> str:
        return f"http://{self.service.host}:{self.service.port}"

    def start(self, timeout: float = 30.0) -> "BackgroundService":
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ServiceError("service failed to start within timeout")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _main(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def boot():
            try:
                await self.service.start()
            except BaseException as exc:  # noqa: BLE001
                self._startup_error = exc
            finally:
                self._ready.set()

        self._loop.create_task(boot())
        self._loop.run_forever()
        self._loop.close()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        if self._loop is None:
            return
        fut = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(drain=drain, timeout=timeout), self._loop
        )
        fut.result(timeout=timeout + 10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)


def run_service(service: CampaignService) -> int:
    """Blocking CLI entry: serve until SIGTERM/SIGINT, then drain."""

    async def main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await service.start()
        print(f"repro serve: listening on "
              f"http://{service.host}:{service.port} "
              f"(workers={service.workers}, data={service.data_dir})",
              flush=True)
        await stop.wait()
        print("repro serve: draining...", flush=True)
        await service.shutdown(drain=True)
        print("repro serve: stopped", flush=True)

    asyncio.run(main())
    return 0
