"""`repro.serve` — the campaign service layer.

Simulation-as-a-service over the cluster runner: a long-running asyncio
server (:class:`CampaignService`, CLI ``repro serve``) that accepts
:class:`~repro.cluster.spec.CampaignSpec` submissions over a local
HTTP/JSON API, schedules them *fairly* across tenants at shard
granularity (:class:`FairScheduler`), executes shards on the same
:class:`~repro.cluster.pool.ShardPool` and worker loop ``repro
campaign`` uses, and never simulates the same content twice thanks to
a content-addressed per-shard result store (:class:`ResultStore`).

The cache key is :meth:`CampaignSpec.shard_signature` — design text,
seed, cycles, batch geometry, executor and the shard's own lane
range + faults — so an identical resubmission is served entirely from
the store (hit rate 1.0, byte-identical merged outputs) and an edited
campaign re-simulates only the shards whose content changed.

See ``docs/service.md`` for the API, the store layout and the fairness
model; :class:`ServiceClient` (CLI ``repro submit``/``jobs``/``result``/
``cancel``) is the matching client.
"""

from repro.serve.client import ServiceClient
from repro.serve.protocol import (
    JobRecord,
    decode_outputs,
    encode_outputs,
    outputs_digest,
    spec_from_dict,
    spec_to_dict,
)
from repro.serve.scheduler import FairScheduler
from repro.serve.server import BackgroundService, CampaignService, run_service
from repro.serve.store import ResultStore, adopt_payload
from repro.utils.errors import QueueFullError, ServiceError

__all__ = [
    "BackgroundService",
    "CampaignService",
    "FairScheduler",
    "JobRecord",
    "QueueFullError",
    "ResultStore",
    "ServiceClient",
    "ServiceError",
    "adopt_payload",
    "decode_outputs",
    "encode_outputs",
    "outputs_digest",
    "run_service",
    "spec_from_dict",
    "spec_to_dict",
]
