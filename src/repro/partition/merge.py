"""Node-to-task merging.

Two strategies are provided:

* ``levelpack`` (default) — nodes are taken level by level in topological
  order and packed into tasks until the task's ``weight_sum`` (Eq. 1)
  reaches the target granularity.  Because a task never spans levels the
  result is a DAG by construction, and the number of concurrent kernels
  per level — the property the paper's Fig. 14 highlights — follows
  directly from the weight vector.
* ``chain`` — a Sarkar-style refinement that first contracts
  single-producer/single-consumer chains across levels (reducing kernel
  count for deep, narrow regions), then packs like ``levelpack``.

The MCMC sampler (``repro.partition.mcmc``) drives either strategy by
proposing new weight vectors; larger weights on a type make tasks
containing that type fill up sooner, producing more, smaller, more
concurrent kernels in the regions where the type dominates.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.partition.taskgraph import Task, TaskGraph
from repro.partition.weights import WeightVector
from repro.rtlir.graph import NodeKind, RtlGraph
from repro.utils.errors import SimulationError

DEFAULT_TARGET_WEIGHT = 64.0


def _pack_level(
    g: RtlGraph,
    tg: TaskGraph,
    nids: List[int],
    weights: WeightVector,
    target: float,
    kind: NodeKind,
    clock: Optional[str] = None,
    edge: str = "posedge",
) -> None:
    bucket: List[int] = []
    wsum = 0.0
    for nid in nids:
        w = weights.node_weight(g.nodes[nid])
        if bucket and wsum + w > target:
            tg.add_task(Task(-1, kind, bucket, clock=clock, edge=edge, weight=wsum))
            bucket, wsum = [], 0.0
        bucket.append(nid)
        wsum += w
    if bucket:
        tg.add_task(Task(-1, kind, bucket, clock=clock, edge=edge, weight=wsum))


def _contract_chains(g: RtlGraph) -> List[List[int]]:
    """Group comb nodes into chains of single-successor/single-predecessor
    links; returns groups in a topological-compatible order."""
    chains: Dict[int, List[int]] = {}
    head: Dict[int, int] = {}
    for nid in g.comb_order:
        preds = g.preds.get(nid, set())
        if len(preds) == 1:
            (p,) = preds
            if len(g.succs.get(p, ())) == 1 and p in head:
                h = head[p]
                chains[h].append(nid)
                head[nid] = h
                continue
        chains[nid] = [nid]
        head[nid] = nid
    # Keep the order of chain heads as they appear topologically.
    return [chains[h] for h in g.comb_order if head[h] == h]


def partition(
    graph: RtlGraph,
    weights: Optional[WeightVector] = None,
    target_weight: float = DEFAULT_TARGET_WEIGHT,
    strategy: str = "levelpack",
) -> TaskGraph:
    """Partition ``graph`` into a macro-task graph.

    ``weights`` defaults to the Verilator-style hard-coded cost table
    (the paper's RTLflow^-g baseline).
    """
    if weights is None:
        weights = WeightVector.verilator_default(graph)
    if target_weight <= 0:
        raise SimulationError("target_weight must be positive")

    tg = TaskGraph(graph=graph)

    if strategy == "levelpack":
        for level_nodes in graph.levels:
            _pack_level(graph, tg, level_nodes, weights, target_weight, NodeKind.COMB)
    elif strategy == "chain":
        # Chains merge vertically; then pack chains by weight at the level
        # of the chain head.
        for chain in _contract_chains(graph):
            w = weights.weight_sum([graph.nodes[n] for n in chain])
            tg.add_task(Task(-1, NodeKind.COMB, list(chain), weight=w))
    else:
        raise SimulationError(f"unknown partition strategy {strategy!r}")

    # Sequential nodes: group per clock domain, then pack by weight.
    for (clock, edge), nids in graph.clock_domains().items():
        _pack_level(
            graph, tg, nids, weights, target_weight, NodeKind.SEQ, clock, edge
        )

    tg.finalize()
    tg.validate_cover()
    return tg
