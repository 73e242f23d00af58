"""Construction of the RTL graph from a lowered design."""

from __future__ import annotations

from collections import Counter
from typing import List

from repro.elaborate.symexec import LoweredDesign
from repro.rtlir.graph import NodeKind, RtlGraph, RtlNode
from repro.rtlir.levelize import find_comb_cycle, levelize
from repro.utils.errors import ElaborationError
from repro.verilog import ast_nodes as A
from repro.verilog.width import annotate_design


_BASE_READS = (A.Index, A.PartSelect, A.IndexedPartSelect)


def _collect(expr: A.Expr, hist: Counter, reads: List[str]) -> None:
    """Op histogram and read names of ``expr``, in one walk."""
    tag = A.op_type_name
    for node in A.walk_expr(expr):
        hist[tag(node)] += 1
        t = type(node)
        if t is A.Ident:
            reads.append(node.name)
        elif t in _BASE_READS:
            reads.append(node.base)


def build_graph(design: LoweredDesign, annotate: bool = True) -> RtlGraph:
    """Build (and levelize) the RTL graph for ``design``.

    Also runs width annotation, since codegen and the interpreter both
    require sized expressions.
    """
    if annotate:
        annotate_design(design)

    g = RtlGraph(design=design)

    def add(node: RtlNode) -> RtlNode:
        g.nodes.append(node)
        return node

    for ca in design.comb:
        hist: Counter = Counter()
        reads: List[str] = []
        _collect(ca.expr, hist, reads)
        n = add(
            RtlNode(
                nid=len(g.nodes),
                kind=NodeKind.COMB,
                target=ca.target,
                expr=ca.expr,
                reads=sorted(set(reads)),
                op_hist=hist,
            )
        )
        if ca.target in g.producer:
            raise ElaborationError(f"multiple drivers for {ca.target!r}")
        g.producer[ca.target] = n.nid

    for blk in design.seq:
        for upd in blk.updates:
            hist = Counter()
            reads = []
            _collect(upd.expr, hist, reads)
            add(
                RtlNode(
                    nid=len(g.nodes),
                    kind=NodeKind.SEQ,
                    target=upd.target,
                    expr=upd.expr,
                    clock=blk.clock,
                    edge=blk.edge,
                    reads=sorted(set(reads)),
                    op_hist=hist,
                )
            )
        for mw in blk.mem_writes:
            hist = Counter()
            reads = []
            for e in (mw.cond, mw.addr, mw.data):
                _collect(e, hist, reads)
            add(
                RtlNode(
                    nid=len(g.nodes),
                    kind=NodeKind.MEMW,
                    target=mw.mem,
                    expr=mw.data,
                    cond=mw.cond,
                    addr=mw.addr,
                    clock=blk.clock,
                    edge=blk.edge,
                    reads=sorted(set(reads)),
                    op_hist=hist,
                )
            )

    # Comb-to-comb dependency edges.
    comb_ids = [n.nid for n in g.comb_nodes]
    g.preds = {n: set() for n in comb_ids}
    g.succs = {n: set() for n in comb_ids}
    for n in g.comb_nodes:
        for read in n.reads:
            p = g.producer.get(read)
            if p is not None and p != n.nid:
                g.preds[n.nid].add(p)
                g.succs[p].add(n.nid)

    # Self-dependency means an inferred latch / comb loop on one signal.
    selfdep = [
        n.target for n in g.comb_nodes if n.target in n.reads
    ]
    if selfdep:
        raise ElaborationError(
            "combinational self-dependency (inferred latch?) on: "
            + ", ".join(sorted(set(selfdep))[:8])
        )

    try:
        g.comb_order, g.levels = levelize(comb_ids, g.preds, g.succs)
    except ElaborationError:
        cyc = find_comb_cycle(comb_ids, g.preds, g.succs)
        names = [g.node(i).target for i in cyc] if cyc else []
        raise ElaborationError(
            "combinational loop through signals: " + " -> ".join(names)
        )
    for lvl, ids in enumerate(g.levels):
        for i in ids:
            g.nodes[i].level = lvl
    return g
