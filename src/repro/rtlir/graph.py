"""RTL graph data structures."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from repro.elaborate.symexec import LoweredDesign
from repro.verilog import ast_nodes as A


class NodeKind(Enum):
    COMB = "comb"  # combinational assignment target = expr
    SEQ = "seq"  # register next-value computation at a clock edge
    MEMW = "memw"  # guarded memory write at a clock edge


@dataclass
class RtlNode:
    """One logic element of the RTL graph."""

    nid: int
    kind: NodeKind
    target: str  # driven signal (COMB/SEQ) or memory (MEMW)
    expr: Optional[A.Expr] = None  # value expression (COMB/SEQ) / data (MEMW)
    cond: Optional[A.Expr] = None  # MEMW guard
    addr: Optional[A.Expr] = None  # MEMW address
    clock: Optional[str] = None  # SEQ/MEMW clock signal
    edge: str = "posedge"
    reads: List[str] = field(default_factory=list)  # signals/memories read
    op_hist: Counter = field(default_factory=Counter)
    # Topological level within the comb DAG (SEQ/MEMW nodes are level -1:
    # they all read pre-edge state and are mutually independent).
    level: int = -1

    @property
    def weight(self) -> int:
        """Default cost estimate: total op count (Verilator-style)."""
        return max(1, sum(self.op_hist.values()))

    def exprs(self):
        if self.expr is not None:
            yield self.expr
        if self.cond is not None:
            yield self.cond
        if self.addr is not None:
            yield self.addr


@dataclass
class RtlGraph:
    """The full RTL graph for one design."""

    design: LoweredDesign
    nodes: List[RtlNode] = field(default_factory=list)
    # Edges among COMB nodes only (the intra-phase scheduling constraints).
    preds: Dict[int, Set[int]] = field(default_factory=dict)
    succs: Dict[int, Set[int]] = field(default_factory=dict)
    # Comb nodes in topological order, and grouped into levels.
    comb_order: List[int] = field(default_factory=list)
    levels: List[List[int]] = field(default_factory=list)
    producer: Dict[str, int] = field(default_factory=dict)  # signal -> comb nid

    @property
    def comb_nodes(self) -> List[RtlNode]:
        return [n for n in self.nodes if n.kind is NodeKind.COMB]

    @property
    def seq_nodes(self) -> List[RtlNode]:
        return [n for n in self.nodes if n.kind is NodeKind.SEQ]

    @property
    def memw_nodes(self) -> List[RtlNode]:
        return [n for n in self.nodes if n.kind is NodeKind.MEMW]

    def node(self, nid: int) -> RtlNode:
        return self.nodes[nid]

    def clock_domains(self) -> Dict[Tuple[str, str], List[int]]:
        """SEQ then MEMW node ids grouped by ``(clock, edge)``, domains in
        order of first appearance: the one grouping the partitioner, the
        fused codegen and the simulator's edge detection all read."""
        domains: Dict[Tuple[str, str], List[int]] = {}
        for n in self.seq_nodes + self.memw_nodes:
            domains.setdefault((n.clock, n.edge), []).append(n.nid)
        return domains

    def op_histogram(self) -> Counter:
        """Aggregate op-type histogram over the whole design (Eq. 1 input)."""
        total: Counter = Counter()
        for n in self.nodes:
            total.update(n.op_hist)
        return total

    def top_op_types(self, k: int = 30) -> List[str]:
        """The top-k most frequent RTL node types (the paper's set T)."""
        return [t for t, _ in self.op_histogram().most_common(k)]

    def stats(self) -> Dict[str, int]:
        return {
            "signals": len(self.design.signals),
            "memories": len(self.design.memories),
            "comb_nodes": len(self.comb_nodes),
            "seq_nodes": len(self.seq_nodes),
            "memw_nodes": len(self.memw_nodes),
            "edges": sum(len(s) for s in self.succs.values()),
            "levels": len(self.levels),
            "ast_nodes": sum(sum(n.op_hist.values()) for n in self.nodes),
        }
