"""Sharded multi-process campaign runner with crash recovery.

The paper scales the *stimulus* axis on one GPU (up to 65536 lanes);
this package scales the *host* axis: a campaign's lane range is carved
into shards (:func:`plan_shards`), each shard runs in its own
spawn-started worker process against a design rebuilt from a picklable
:class:`CampaignSpec`, and the per-shard outputs, toggle coverage, lane
faults, metrics and trace spans merge back into one campaign-level
:class:`CampaignResult` — bit-identical per lane to a single-process
:meth:`BatchSimulator.run <repro.core.simulator.BatchSimulator.run>`
(lanes share no state, so sharding is exact, not approximate).

Crash recovery reuses the resilience layer per shard, and every durable
record is keyed by the shard's content
(:meth:`CampaignSpec.shard_signature`): a shard's mid-run snapshots live
in ``<checkpoint_dir>/shard-<key>``, so a SIGKILLed worker's shard
restarts from them on a fresh worker, and its finished result goes to a
content-addressed result store, so rerunning a killed campaign adopts
every finished shard instead of redoing it.  See docs/cluster.md and the
``repro campaign`` CLI.
"""

from repro.cluster.coordinator import CampaignCoordinator, run_campaign
from repro.cluster.merge import CampaignResult, ShardOutcome, merge_payloads
from repro.cluster.spec import (
    DEFAULT_OVERSUBSCRIPTION,
    CampaignSpec,
    ShardSpec,
    plan_shards,
)
from repro.utils.errors import ClusterError

__all__ = [
    "CampaignCoordinator",
    "CampaignResult",
    "CampaignSpec",
    "ClusterError",
    "DEFAULT_OVERSUBSCRIPTION",
    "ShardOutcome",
    "ShardSpec",
    "merge_payloads",
    "plan_shards",
    "run_campaign",
]
