"""The one shard runtime under both front ends, in process mode.

``repro campaign`` (:func:`run_campaign`) and ``repro serve``
(:class:`CampaignService`) drive the same :class:`ShardPool` and worker
loop.  These tests pin the runtime's failure outcomes on real spawn
processes:

* a busy worker is never mistaken for a silent one, however short the
  heartbeat timeout;
* a deterministic error fails the shard once — the campaign, or only the
  owning job — and never burns a restart;
* a worker killed mid-shard is replaced and its shard retried, with a
  result identical to an in-process run.
"""

import multiprocessing
import os
import signal
import sys
import time

import numpy as np
import pytest

from repro.cluster import CampaignCoordinator, CampaignSpec, ClusterError, run_campaign
from repro.serve import BackgroundService, CampaignService, ServiceClient, outputs_digest

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="spawn/SIGKILL tests are Linux-only",
)

# Validates (one source, a top name) but fails to elaborate.
BAD_SOURCE = dict(source="module m(input a, output y); assign y = b; endmodule",
                  top="m")


def test_heartbeat_timeout_spares_a_busy_worker():
    # A 0.3 s timeout is shorter than the worker's boot and than the
    # shard; silence counts from dispatch and heartbeats come every
    # timeout / 4, so the shard runs once and nothing restarts.
    spec = CampaignSpec(n=4, cycles=8000, design="counter", seed=3)
    res = run_campaign(spec, workers=1, shard_lanes=4, heartbeat_timeout=0.3)
    assert res.restarts == 0
    assert res.shards[0].attempts == 1
    assert res.shards[0].wall_seconds > 0.3
    ref = run_campaign(spec, workers=0, shard_lanes=4)
    assert set(res.outputs) == set(ref.outputs)
    for name in ref.outputs:
        np.testing.assert_array_equal(res.outputs[name], ref.outputs[name])


def test_campaign_deterministic_error_names_the_shard():
    spec = CampaignSpec(n=4, cycles=5, **BAD_SOURCE)
    coord = CampaignCoordinator(spec, workers=1)
    with pytest.raises(ClusterError, match=r"shard 0 failed: ElaborationError"):
        coord.run()
    assert coord.restarts == 0


def _events(client, job_id, kind):
    return [e for e in client.status(job_id)["events"] if e["kind"] == kind]


def test_service_deterministic_error_fails_only_its_job(tmp_path):
    bg = BackgroundService(CampaignService(
        data_dir=str(tmp_path / "svc"), port=0, workers=1, shard_lanes=8,
    )).start()
    try:
        client = ServiceClient(bg.base_url)
        client.wait_ready()
        bad = client.submit(CampaignSpec(n=4, cycles=5, **BAD_SOURCE))["job"]["id"]
        st = client.wait(bad, timeout=120)["job"]
        assert st["state"] == "failed"
        assert "shard 0 failed: ElaborationError" in st["error"]
        good = client.submit(CampaignSpec(n=8, cycles=20, design="counter"))
        good = good["job"]["id"]
        assert client.wait(good, timeout=120)["job"]["state"] == "done"
        # The same worker served both jobs: the error cost no restart.
        worker = {e["worker"] for e in _events(client, bad, "shard-started")}
        assert worker == {e["worker"] for e in _events(client, good, "shard-done")}
        counters = client.metrics()["metrics"]["counters"]
        assert "serve.worker_restarts" not in counters
    finally:
        bg.stop(drain=True)


def test_service_worker_death_requeues_the_shard(tmp_path):
    spec = CampaignSpec(n=8, cycles=3000, design="counter", seed=5)
    bg = BackgroundService(CampaignService(
        data_dir=str(tmp_path / "svc"), port=0, workers=1, shard_lanes=8,
    )).start()
    try:
        client = ServiceClient(bg.base_url)
        client.wait_ready()
        job = client.submit(spec)["job"]["id"]
        deadline = time.monotonic() + 60
        while not _events(client, job, "shard-started"):
            assert time.monotonic() < deadline, "shard never started"
            time.sleep(0.01)
        victims = [p for p in multiprocessing.active_children()
                   if p.name.startswith("repro-shard-w")]
        assert len(victims) == 1
        os.kill(victims[0].pid, signal.SIGKILL)
        st = client.wait(job, timeout=120)["job"]
        assert st["state"] == "done"
        assert [e["shard"] for e in _events(client, job, "shard-requeued")] == [0]
        counters = client.metrics()["metrics"]["counters"]
        assert counters["serve.worker_restarts"]["value"] == 1
        digest = client.result(job)["digest"]
    finally:
        bg.stop(drain=True)
    direct = run_campaign(spec, workers=0, shard_lanes=8)
    assert digest == outputs_digest(direct.outputs)
