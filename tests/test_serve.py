"""Tests for `repro.serve` — the campaign service.

Covers the scheduler and store units, the wire protocol, and the full
service over its HTTP API: content-addressed cache semantics (identical
resubmission = 100% hits + bit-identical outputs; edits re-simulate only
changed shards), multi-tenant fairness, cancellation, backpressure and
drain/restart durability.  Service tests run with ``workers=0`` — the
same worker loop on one in-process thread — so scheduling decisions are
deterministic.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.cluster.coordinator import run_campaign
from repro.cluster.spec import CampaignSpec, plan_shards
from repro.serve import (
    BackgroundService,
    CampaignService,
    FairScheduler,
    JobRecord,
    QueueFullError,
    ResultStore,
    ServiceClient,
    ServiceError,
    adopt_payload,
    decode_outputs,
    encode_outputs,
    outputs_digest,
    spec_from_dict,
    spec_to_dict,
)


def _spec(n=32, cycles=50, seed=0, **kw):
    return CampaignSpec(n=n, cycles=cycles, design="counter", seed=seed, **kw)


# ---------------------------------------------------------------------------
# FairScheduler


class TestFairScheduler:
    def _drain_order(self, sched, picks):
        """Run ``picks`` next()+task_done() rounds, return tenant order."""
        order = []
        for _ in range(picks):
            got = sched.next()
            if got is None:
                break
            job_id, _task = got
            tenant = {"ja": "A", "jb": "B", "jc": "C"}.get(job_id[:2], job_id)
            order.append(tenant)
            sched.task_done(tenant)
        return order

    def test_smooth_weighted_round_robin(self):
        sched = FairScheduler()
        sched.submit("ja1", "A", 2.0, list(range(6)))
        sched.submit("jb1", "B", 1.0, list(range(3)))
        # Smooth WRR at 2:1 spreads B evenly instead of bursting A.
        assert self._drain_order(sched, 9) == [
            "A", "B", "A", "A", "B", "A", "A", "B", "A",
        ]
        assert sched.queued == 0

    def test_equal_weights_alternate(self):
        sched = FairScheduler()
        sched.submit("ja1", "A", 1.0, [0, 1, 2])
        sched.submit("jb1", "B", 1.0, [0, 1, 2])
        order = self._drain_order(sched, 6)
        assert sorted(order) == ["A", "A", "A", "B", "B", "B"]
        assert order != ["A", "A", "A", "B", "B", "B"]  # interleaved
        assert all(a != b for a, b in zip(order, order[1:]))

    def test_intra_tenant_jobs_take_turns(self):
        sched = FairScheduler()
        sched.submit("ja1", "A", 1.0, ["x0", "x1"])
        sched.submit("ja2", "A", 1.0, ["y0", "y1"])
        picks = []
        for _ in range(4):
            job_id, task = sched.next()
            picks.append((job_id, task))
            sched.task_done("A")
        assert [p[0] for p in picks] == ["ja1", "ja2", "ja1", "ja2"]

    def test_inflight_cap_blocks_until_done(self):
        sched = FairScheduler(inflight_cap=1)
        sched.submit("ja1", "A", 1.0, [0, 1])
        assert sched.next() is not None
        assert sched.next() is None  # A is at its cap
        sched.task_done("A")
        assert sched.next() is not None

    def test_backpressure_is_atomic(self):
        sched = FairScheduler(max_queued=4)
        sched.submit("ja1", "A", 1.0, [0, 1, 2])
        with pytest.raises(QueueFullError):
            sched.submit("jb1", "B", 1.0, [0, 1])
        assert sched.queued == 3  # nothing from the rejected job queued
        sched.submit("jb2", "B", 1.0, [0])  # still fits
        assert sched.queued == 4

    def test_cancel_frees_queued_slots(self):
        sched = FairScheduler(max_queued=4)
        sched.submit("ja1", "A", 1.0, [0, 1, 2, 3])
        sched.next()  # one in flight
        assert sched.cancel("ja1") == 3
        assert sched.queued == 0 and sched.inflight == 1
        sched.task_done("A")
        assert sched.inflight == 0
        assert sched.cancel("ja1") == 0  # idempotent

    def test_requeue_front_bypasses_backpressure(self):
        sched = FairScheduler(max_queued=1)
        sched.submit("ja1", "A", 1.0, ["t0"])
        job_id, task = sched.next()
        # Worker died: the admitted task goes back even though the
        # queue is nominally full.
        sched.submit("jb1", "B", 1.0, ["u0"])
        sched.task_done("A")
        sched.requeue_front(job_id, "A", 1.0, task)
        assert sched.queued == 2
        picked = {sched.next()[1], sched.next()[1]}
        assert picked == {"t0", "u0"}

    def test_invalid_arguments(self):
        with pytest.raises(ServiceError):
            FairScheduler(max_queued=0)
        with pytest.raises(ServiceError):
            FairScheduler(inflight_cap=0)
        sched = FairScheduler()
        with pytest.raises(ServiceError):
            sched.submit("j1", "A", 0.0, [1])
        sched.submit("j1", "A", 1.0, [1])
        with pytest.raises(ServiceError):
            sched.submit("j1", "A", 1.0, [2])  # duplicate job id
        with pytest.raises(ServiceError):
            sched.task_done("A")  # nothing picked yet


# ---------------------------------------------------------------------------
# ResultStore


class TestResultStore:
    def test_roundtrip_and_counters(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        key = "ab" + "0" * 62
        assert store.get(key) is None  # miss
        store.put(key, {"shard": (0, 0, 4), "x": 1})
        got = store.get(key)
        assert got["x"] == 1 and got["shard_key"] == key
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1 and stats["hit_rate"] == 0.5

    def test_contains_does_not_count(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        key = "cd" + "1" * 62
        assert not store.contains(key)
        store.put(key, {"v": 2})
        assert store.contains(key)
        assert store.stats()["hits"] == 0 and store.stats()["misses"] == 0

    def test_corrupt_object_deleted_not_served(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        key = "ef" + "2" * 62
        path = store.put(key, {"v": 3})
        # Truncate the object: unreadable pickle.
        with open(path, "wb") as fh:
            fh.write(b"\x80garbage")
        assert store.get(key) is None
        assert not os.path.exists(path)  # deleted, not left to rot
        # A payload stamped with a *different* key is equally corrupt.
        other = "0f" + "3" * 62
        path2 = store.put(other, {"v": 4})
        os.makedirs(os.path.dirname(store._path(key)), exist_ok=True)
        os.replace(path2, store._path(key))
        assert store.get(key) is None
        assert not store.contains(key)

    def test_malformed_key_rejected(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        for bad in ("", "XYZ", "../../etc/passwd", "ab/cd"):
            with pytest.raises(ServiceError):
                store.get(bad)

    def test_gc_evicts_lru_past_entry_bound(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"), max_entries=2)
        keys = [f"{i:02x}" + "a" * 62 for i in range(4)]
        for i, key in enumerate(keys):
            store.put(key, {"v": i})  # put() GCs eagerly when bounded
            # Strictly increasing mtimes, robust to coarse clocks.
            os.utime(store._path(key), (i + 1, i + 1))
        assert store.stats()["entries"] == 2
        assert store.stats()["evictions"] == 2
        # The survivors are the most recently used.
        assert store.contains(keys[2]) and store.contains(keys[3])

    def test_adopt_payload_restamps_signature(self):
        spec_a = _spec(seed=1)
        spec_b = _spec(seed=1, lane_faults=[(3, 30, "late")])
        shard = plan_shards(spec_a.n, 1, 8)[0]  # lanes [0, 8): fault-free
        assert spec_a.shard_signature(shard) == spec_b.shard_signature(shard)
        payload = {"shard": (0, 0, 8), "signature": spec_a.signature()}
        adopted = adopt_payload(payload, spec_b, shard)
        assert adopted["signature"] == spec_b.signature()
        assert adopted["produced_by"] == spec_a.signature()
        assert payload["signature"] == spec_a.signature()  # input untouched

    def test_adopt_payload_rejects_range_mismatch(self):
        spec = _spec()
        shard = plan_shards(spec.n, 1, 8)[1]  # lanes [8, 16)
        with pytest.raises(ServiceError):
            adopt_payload({"shard": (0, 0, 8)}, spec, shard)


# ---------------------------------------------------------------------------
# Protocol


class TestProtocol:
    def test_spec_roundtrip(self):
        spec = _spec(lane_faults=[(2, 5, "stuck")], coverage=True)
        assert spec_from_dict(spec_to_dict(spec)) == spec
        # ... and survives JSON, which is what actually crosses the wire.
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec

    def test_spec_unknown_field_rejected(self):
        d = spec_to_dict(_spec())
        d["cycels"] = 10  # typo must not silently simulate the default
        with pytest.raises(ServiceError, match="cycels"):
            spec_from_dict(d)

    def test_spec_invalid_rejected(self):
        # Run options are checked on submission, not after a shard of the
        # job has been dispatched.
        for spec in (
            {"n": 4, "cycles": 5},  # no design/source
            {"n": 4, "cycles": 5, "design": "counter", "stop": "wrap",
             "stop_check_every": 0},
            {"n": 4, "cycles": 5, "design": "counter", "stop_mode": "most"},
            {"n": 4, "cycles": 5, "design": "counter", "trace_every": -3},
            {"n": 4, "cycles": 5, "design": "counter", "seed": -1},
        ):
            with pytest.raises(ServiceError, match="bad spec"):
                spec_from_dict(spec)

    def test_outputs_roundtrip_and_digest(self):
        outputs = {
            "q": np.arange(8, dtype=np.uint64).reshape(2, 4),
            "ov": np.array([0, 1], dtype=np.uint8),
        }
        decoded = decode_outputs(encode_outputs(outputs))
        assert set(decoded) == set(outputs)
        for name in outputs:
            np.testing.assert_array_equal(decoded[name], outputs[name])
            assert decoded[name].dtype == outputs[name].dtype
        assert outputs_digest(decoded) == outputs_digest(outputs)
        decoded["q"][0, 0] += 1
        assert outputs_digest(decoded) != outputs_digest(outputs)

    def test_job_record_roundtrip(self):
        rec = JobRecord(id="j000001", tenant="t", weight=2.0,
                        spec=spec_to_dict(_spec()), state="done",
                        shards_total=4, store_hits=4)
        back = JobRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert back == rec
        assert back.terminal and back.progress()["hit_rate"] == 1.0


# ---------------------------------------------------------------------------
# Service end-to-end (workers=0: deterministic inline worker)


def _service(tmp_path, name="svc", **kw):
    kw.setdefault("workers", 0)
    kw.setdefault("shard_lanes", 8)
    return CampaignService(data_dir=str(tmp_path / name), port=0, **kw)


@pytest.fixture
def served(tmp_path):
    bg = BackgroundService(_service(tmp_path)).start()
    client = ServiceClient(bg.base_url)
    client.wait_ready()
    yield bg, client
    bg.stop(drain=True)


class TestCacheSemantics:
    def test_identical_resubmission_all_hits_bit_identical(self, served):
        bg, client = served
        spec = _spec(n=32, cycles=40)  # 4 shards of 8 lanes
        job1 = client.submit(spec, tenant="alice")["job"]["id"]
        st1 = client.wait(job1)["job"]
        assert st1["state"] == "done"
        assert st1["shards_simulated"] == 4 and st1["store_hits"] == 0
        res1 = client.result(job1)

        # Same content from a different tenant: pure lookups.
        job2 = client.submit(spec, tenant="bob")["job"]["id"]
        st2 = client.wait(job2)["job"]
        assert st2["state"] == "done"
        assert st2["shards_simulated"] == 0 and st2["store_hits"] == 4
        res2 = client.result(job2)
        assert res2["metrics"]["hit_rate"] == 1.0
        assert res2["digest"] == res1["digest"]
        out1, out2 = decode_outputs(res1["outputs"]), decode_outputs(res2["outputs"])
        for name in out1:
            np.testing.assert_array_equal(out1[name], out2[name])

    def test_changed_field_misses_everything(self, served):
        bg, client = served
        spec = _spec(n=16, cycles=30)  # 2 shards
        job1 = client.submit(spec)["job"]["id"]
        client.wait(job1)
        for changed in (_spec(n=16, cycles=30, seed=7),
                        _spec(n=16, cycles=31)):
            jid = client.submit(changed)["job"]["id"]
            st = client.wait(jid)["job"]
            assert st["state"] == "done"
            assert st["store_hits"] == 0 and st["shards_simulated"] == 2

    def test_edited_campaign_resimulates_only_changed_shards(self, served):
        bg, client = served
        base = _spec(n=32, cycles=40)  # shards [0,8) [8,16) [16,24) [24,32)
        job1 = client.submit(base)["job"]["id"]
        assert client.wait(job1)["job"]["shards_simulated"] == 4

        # One lane fault on lane 20 changes only shard [16, 24).
        edited = _spec(n=32, cycles=40, lane_faults=[(5, 20, "stuck")])
        job2 = client.submit(edited)["job"]["id"]
        st = client.wait(job2)["job"]
        assert st["state"] == "done"
        assert st["store_hits"] == 3 and st["shards_simulated"] == 1
        # The fault must actually have applied in the merged result.
        res = client.result(job2)
        assert any(f["lane"] == 20 for f in res["faults"])

    def test_all_hit_submission_completes_without_worker(self, served):
        bg, client = served
        spec = _spec(n=16, cycles=20)
        client.wait(client.submit(spec)["job"]["id"])
        log_before = len(bg.service.shard_log)
        jid = client.submit(spec)["job"]["id"]
        st = client.wait(jid, timeout=10)["job"]
        assert st["state"] == "done" and st["store_hits"] == 2
        assert len(bg.service.shard_log) == log_before  # no simulation ran

    def test_service_matches_direct_campaign_run(self, served):
        bg, client = served
        spec = _spec(n=24, cycles=35)
        jid = client.submit(spec)["job"]["id"]
        client.wait(jid)
        res = client.result(jid)
        direct = run_campaign(_spec(n=24, cycles=35), workers=0, shard_lanes=8)
        assert res["digest"] == outputs_digest(direct.outputs)


class TestFairnessAndLifecycle:
    def test_two_tenants_interleave_shard_for_shard(self, tmp_path):
        bg = BackgroundService(
            _service(tmp_path, shard_lanes=4)
        ).start()
        try:
            client = ServiceClient(bg.base_url)
            client.wait_ready()
            # Different seeds: no cross-tenant cache hits, 6 shards each,
            # heavy enough that one shard outlasts the submission gap.
            ja = client.submit(_spec(n=24, cycles=400, seed=1),
                               tenant="alice")["job"]["id"]
            jb = client.submit(_spec(n=24, cycles=400, seed=2),
                               tenant="bob")["job"]["id"]
            client.wait(ja, timeout=300)
            client.wait(jb, timeout=300)
            log = [t for t, _j, _s in bg.service.shard_log]
            assert log.count("alice") == 6 and log.count("bob") == 6
            # Shard-granular fairness: while both tenants had pending
            # shards the single worker alternated between them, so no
            # long single-tenant run can appear inside the overlap.
            first_b = log.index("bob")
            overlap = log[first_b:len(log) - log[::-1].index("alice")]
            assert len(overlap) >= 4
            longest = run = 1
            for a, b in zip(overlap, overlap[1:]):
                run = run + 1 if a == b else 1
                longest = max(longest, run)
            assert longest <= 2, f"tenant monopolized the worker: {log}"
        finally:
            bg.stop(drain=True)

    def test_cancel_releases_queue_and_keeps_store_consistent(self, tmp_path):
        bg = BackgroundService(_service(tmp_path, shard_lanes=4)).start()
        try:
            client = ServiceClient(bg.base_url)
            client.wait_ready()
            spec = _spec(n=24, cycles=400)  # 6 shards, slow enough to catch
            jid = client.submit(spec)["job"]["id"]
            st = client.cancel(jid)["job"]
            assert st["state"] == "cancelled"
            # Queued shards were released immediately; the in-flight one
            # (if any) drains into the store shortly after.
            deadline = 50
            while bg.service.scheduler.inflight and deadline:
                time.sleep(0.1)
                deadline -= 1
            assert bg.service.scheduler.queued == 0
            assert bg.service.scheduler.inflight == 0
            with pytest.raises(ServiceError, match="not done"):
                client.result(jid)
            # The store stayed consistent: a resubmission completes with
            # bit-identical content, reusing whatever the cancelled job
            # already banked (hits + simulated covers every shard).
            j2 = client.submit(spec)["job"]["id"]
            st2 = client.wait(j2, timeout=300)["job"]
            assert st2["state"] == "done"
            assert st2["store_hits"] + st2["shards_simulated"] == 6
            direct = run_campaign(_spec(n=24, cycles=400),
                                  workers=0, shard_lanes=4)
            assert (client.result(j2)["digest"]
                    == outputs_digest(direct.outputs))
        finally:
            bg.stop(drain=True)

    def test_drain_persists_and_restart_resumes(self, tmp_path):
        spec = _spec(n=24, cycles=300)  # 6 shards with shard_lanes=4
        svc1 = _service(tmp_path, name="d", shard_lanes=4)
        bg1 = BackgroundService(svc1).start()
        client = ServiceClient(bg1.base_url)
        client.wait_ready()
        jid = client.submit(spec)["job"]["id"]
        # Drain immediately: in-flight shard finishes (and reaches the
        # store), queued shards persist with the job record.
        bg1.stop(drain=True)
        with open(os.path.join(svc1.jobs_dir, f"{jid}.json")) as fh:
            persisted = json.load(fh)
        assert persisted["state"] in ("queued", "done")

        # Restart on the same data_dir: the job resumes, previously
        # completed shards come back as store hits, only the remainder
        # simulates, and hits + simulated covers the whole campaign.
        svc2 = _service(tmp_path, name="d", shard_lanes=4)
        bg2 = BackgroundService(svc2).start()
        try:
            client2 = ServiceClient(bg2.base_url)
            client2.wait_ready()
            st = client2.wait(jid, timeout=300)["job"]
            assert st["state"] == "done"
            assert st["store_hits"] + st["shards_simulated"] == 6
            res = client2.result(jid)
            direct = run_campaign(_spec(n=24, cycles=300),
                                  workers=0, shard_lanes=4)
            assert res["digest"] == outputs_digest(direct.outputs)
        finally:
            bg2.stop(drain=True)

    def test_restart_reconstructs_done_results_from_store(self, tmp_path):
        spec = _spec(n=16, cycles=25)
        svc1 = _service(tmp_path, name="r")
        bg1 = BackgroundService(svc1).start()
        client = ServiceClient(bg1.base_url)
        client.wait_ready()
        jid = client.submit(spec)["job"]["id"]
        client.wait(jid)
        digest = client.result(jid)["digest"]
        bg1.stop(drain=True)

        svc2 = _service(tmp_path, name="r")
        bg2 = BackgroundService(svc2).start()
        try:
            client2 = ServiceClient(bg2.base_url)
            client2.wait_ready()
            # The record is terminal — not re-run — and the merged
            # arrays rebuild from the store with the digest re-checked.
            res = client2.result(jid)
            assert res["digest"] == digest
        finally:
            bg2.stop(drain=True)


class TestServiceApi:
    def test_backpressure_rejects_whole_submission(self, tmp_path):
        bg = BackgroundService(
            _service(tmp_path, max_queued_shards=3, shard_lanes=4)
        ).start()
        try:
            client = ServiceClient(bg.base_url)
            client.wait_ready()
            with pytest.raises(QueueFullError):
                client.submit(_spec(n=24, cycles=2000))  # 6 shards > 3
            assert client.jobs() == []  # rejected submission left no trace
            jid = client.submit(_spec(n=8, cycles=20))["job"]["id"]
            assert client.wait(jid)["job"]["state"] == "done"
        finally:
            bg.stop(drain=True)

    def test_unknown_job_and_bad_spec(self, served):
        bg, client = served
        with pytest.raises(ServiceError, match="unknown job"):
            client.status("j999999")
        with pytest.raises(ServiceError, match="cycels"):
            client.submit({"n": 4, "cycles": 5, "design": "counter",
                           "cycels": 1})
        with pytest.raises(ServiceError):
            client.submit({"n": 4, "cycles": 5})  # no design/source

    def test_incremental_status_cursor(self, served):
        bg, client = served
        jid = client.submit(_spec(n=16, cycles=20))["job"]["id"]
        final = client.wait(jid)
        # Events were consumed incrementally by wait(); a fresh full
        # fetch replays them all, and the cursor drains to empty.
        full = client.status(jid)
        kinds = [e["kind"] for e in full["events"]]
        assert kinds[0] == "submitted" and kinds[-1] == "done"
        assert "shard-done" in kinds or "shard-cache-hit" in kinds
        again = client.status(jid, since=full["next_since"])
        assert again["events"] == []
        assert final["job"]["state"] == "done"

    def test_jobs_listing_and_metrics(self, served):
        bg, client = served
        ja = client.submit(_spec(n=8, cycles=20), tenant="alice")["job"]["id"]
        client.wait(ja)
        jb = client.submit(_spec(n=8, cycles=20), tenant="bob")["job"]["id"]
        client.wait(jb)
        assert {j["id"] for j in client.jobs()} == {ja, jb}
        assert [j["id"] for j in client.jobs(tenant="alice")] == [ja]
        m = client.metrics()
        assert m["jobs"].get("done") == 2
        assert m["store"]["hits"] >= 1  # bob's run hit alice's shard
        assert m["metrics"]["counters"]["serve.jobs_submitted"]["value"] == 2
        h = client.health()
        assert h["ok"] and h["port"] == bg.port


# ---------------------------------------------------------------------------
# Coordinator --store integration (the CLI `repro campaign --store` path)


def test_coordinator_store_roundtrip(tmp_path):
    spec = _spec(n=24, cycles=30)
    store = str(tmp_path / "store")
    first = run_campaign(spec, workers=0, shard_lanes=8, store=store)
    assert all(not s.cache_hit for s in first.shards)

    second = run_campaign(_spec(n=24, cycles=30), workers=0,
                          shard_lanes=8, store=store)
    assert all(s.cache_hit and s.cached for s in second.shards)
    for name in first.outputs:
        np.testing.assert_array_equal(second.outputs[name],
                                      first.outputs[name])

    # An edited campaign hits only the unchanged shards.
    edited = _spec(n=24, cycles=30, lane_faults=[(3, 20, "x")])
    third = run_campaign(edited, workers=0, shard_lanes=8, store=store)
    assert [s.cache_hit for s in third.shards] == [True, True, False]
