"""Structural IR verifier passes for every lowering boundary.

Each ``check_*`` function re-derives an invariant that some builder
(:func:`repro.rtlir.build.build_graph`, the partitioner,
:class:`~repro.core.memory.MemoryLayout`, the fused codegen) is supposed
to establish, **from first principles**, and reports any divergence as
an ERROR :class:`~repro.lint.diagnostics.Diagnostic`.  The checks share
no code with the builders they validate — that independence is the
point: a bug (or an injected mutation, see :mod:`repro.verify.mutate`)
in either side shows up as a mismatch.

These are pure functions over in-memory IR; the staged rule wrappers in
:mod:`repro.verify.rules` adapt them to the lint engine and attach
source locations.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Set, Tuple

from repro.core.memory import PACKED_POOL, MemoryLayout
from repro.lint.diagnostics import Diagnostic, Severity
from repro.partition.taskgraph import TaskGraph
from repro.rtlir.graph import NodeKind, RtlGraph, RtlNode
from repro.verilog import ast_nodes as A

__all__ = [
    "check_graph",
    "check_taskgraph",
    "check_layout",
    "check_fused",
    "check_audit",
]

#: Element width in bits of the four scalar pools (var8..var64).
_POOL_BITS = (8, 16, 32, 64)
_EDGES = ("posedge", "negedge")


def _err(rule_id: str, msg: str, subject: Optional[str] = None,
         hint: str = "") -> Diagnostic:
    return Diagnostic(rule_id=rule_id, severity=Severity.ERROR,
                      message=msg, hint=hint, subject=subject)


# ---------------------------------------------------------------------------
# RtlGraph well-formedness
# ---------------------------------------------------------------------------


def check_graph(graph: RtlGraph) -> List[Diagnostic]:
    """Re-derive every invariant :func:`build_graph` promises."""
    rid = "verify-graph"
    out: List[Diagnostic] = []
    design = graph.design
    declared = set(design.signals) | set(design.memories)

    for i, node in enumerate(graph.nodes):
        if node.nid != i:
            out.append(_err(rid, f"node at index {i} carries nid {node.nid}",
                            subject=node.target))
        if node.kind is NodeKind.COMB:
            if node.clock is not None:
                out.append(_err(
                    rid, f"comb node {i} ({node.target}) has a clock "
                    f"({node.clock})", subject=node.target))
            if node.target not in design.signals:
                out.append(_err(rid, f"comb node {i} drives undeclared "
                                f"signal {node.target!r}", subject=node.target))
        else:
            if node.clock is None:
                out.append(_err(
                    rid, f"{node.kind.value} node {i} ({node.target}) has "
                    "no clock", subject=node.target))
            if node.edge not in _EDGES:
                out.append(_err(
                    rid, f"{node.kind.value} node {i} ({node.target}) has "
                    f"invalid edge {node.edge!r}", subject=node.target))
            if node.kind is NodeKind.SEQ and node.target not in design.signals:
                out.append(_err(rid, f"seq node {i} drives undeclared "
                                f"signal {node.target!r}", subject=node.target))
            if node.kind is NodeKind.MEMW and node.target not in design.memories:
                out.append(_err(rid, f"memw node {i} writes undeclared "
                                f"memory {node.target!r}", subject=node.target))
        for name in node.reads:
            if name not in declared:
                out.append(_err(rid, f"node {i} ({node.target}) reads "
                                f"undeclared name {name!r}",
                                subject=node.target))

    # Producer map: exactly one entry per comb node, pointing back at it.
    comb_nids = [n.nid for n in graph.nodes if n.kind is NodeKind.COMB]
    expected_producer = {}
    for nid in comb_nids:
        t = graph.nodes[nid].target
        if t in expected_producer:
            out.append(_err(rid, f"signal {t!r} driven by two comb nodes "
                            f"({expected_producer[t]} and {nid})", subject=t))
        expected_producer[t] = nid
    if graph.producer != expected_producer:
        extra = set(graph.producer) ^ set(expected_producer)
        wrong = {t for t in set(graph.producer) & set(expected_producer)
                 if graph.producer[t] != expected_producer[t]}
        out.append(_err(
            rid, "producer map diverges from comb node targets "
            f"(mismatched: {sorted(extra | wrong)[:5]})"))

    # Edges: recompute preds from reads x producer, compare both directions.
    for nid in comb_nids:
        node = graph.nodes[nid]
        expect: Set[int] = set()
        for name in node.reads:
            p = expected_producer.get(name)
            if p is not None:
                expect.add(p)
        if nid in expect:
            out.append(_err(rid, f"comb node {nid} ({node.target}) depends "
                            "on itself", subject=node.target))
            expect.discard(nid)
        have = graph.preds.get(nid, set())
        if have != expect:
            out.append(_err(
                rid, f"comb node {nid} ({node.target}) preds {sorted(have)} "
                f"!= recomputed {sorted(expect)}", subject=node.target))
    recomputed_succs: Dict[int, Set[int]] = {nid: set() for nid in comb_nids}
    for nid in comb_nids:
        for p in graph.preds.get(nid, ()):
            if p in recomputed_succs:
                recomputed_succs[p].add(nid)
    for nid in comb_nids:
        have = graph.succs.get(nid, set())
        if have != recomputed_succs[nid]:
            out.append(_err(
                rid, f"comb node {nid} succs {sorted(have)} inconsistent "
                f"with preds (expected {sorted(recomputed_succs[nid])})",
                subject=graph.nodes[nid].target))

    # Topological order: a permutation of the comb nodes, preds-first.
    if sorted(graph.comb_order) != sorted(comb_nids):
        out.append(_err(
            rid, f"comb_order is not a permutation of the comb nodes "
            f"({len(graph.comb_order)} scheduled, {len(comb_nids)} exist)"))
    else:
        pos = {nid: i for i, nid in enumerate(graph.comb_order)}
        for nid in comb_nids:
            for p in graph.preds.get(nid, ()):
                if pos.get(p, -1) > pos[nid]:
                    out.append(_err(
                        rid, f"comb_order schedules node {nid} "
                        f"({graph.nodes[nid].target}) before its "
                        f"dependency {p}", subject=graph.nodes[nid].target))

    # Levels: comb nodes sit at level >= 0, edges strictly increase level,
    # and the level lists agree with the per-node annotation.
    for nid in comb_nids:
        node = graph.nodes[nid]
        if node.level < 0:
            out.append(_err(rid, f"comb node {nid} ({node.target}) has no "
                            "level", subject=node.target))
            continue
        for p in graph.preds.get(nid, ()):
            if graph.nodes[p].level >= node.level:
                out.append(_err(
                    rid, f"edge {p}->{nid} does not increase level "
                    f"({graph.nodes[p].level} >= {node.level})",
                    subject=node.target))
    level_members = {nid for lv in graph.levels for nid in lv}
    if level_members != set(comb_nids):
        out.append(_err(rid, "levels do not partition the comb nodes"))
    else:
        for i, lv in enumerate(graph.levels):
            for nid in lv:
                if graph.nodes[nid].level != i:
                    out.append(_err(
                        rid, f"node {nid} listed at level {i} but annotated "
                        f"level {graph.nodes[nid].level}",
                        subject=graph.nodes[nid].target))
    return out


# ---------------------------------------------------------------------------
# TaskGraph invariants
# ---------------------------------------------------------------------------


def check_taskgraph(tg: TaskGraph) -> List[Diagnostic]:
    rid = "verify-taskgraph"
    out: List[Diagnostic] = []
    graph = tg.graph

    # Exact cover: every RTL node in exactly one task; node_task inverse.
    seen: Dict[int, int] = {}
    for task in tg.tasks:
        for nid in task.nodes:
            if nid in seen:
                out.append(_err(rid, f"node {nid} assigned to tasks "
                                f"{seen[nid]} and {task.tid}"))
            seen[nid] = task.tid
    expected = {n.nid for n in graph.nodes}
    if set(seen) != expected:
        missing = sorted(expected - set(seen))[:5]
        stray = sorted(set(seen) - expected)[:5]
        out.append(_err(rid, f"task cover mismatch (missing nodes "
                        f"{missing}, stray {stray})"))
    if tg.node_task != seen:
        wrong = [n for n in set(tg.node_task) & set(seen)
                 if tg.node_task[n] != seen[n]]
        out.append(_err(rid, "node_task map inconsistent with task "
                        f"membership (e.g. nodes {sorted(wrong)[:5]})"))

    # Per-task uniformity: kind and clock domain must match the nodes.
    for task in tg.tasks:
        for nid in task.nodes:
            if nid < 0 or nid >= len(graph.nodes):
                out.append(_err(rid, f"task {task.tid} references "
                                f"nonexistent node {nid}"))
                continue
            node = graph.nodes[nid]
            if task.kind is NodeKind.COMB:
                if node.kind is not NodeKind.COMB:
                    out.append(_err(
                        rid, f"comb task {task.tid} contains "
                        f"{node.kind.value} node {nid} ({node.target})",
                        subject=node.target))
            else:
                if node.kind is NodeKind.COMB:
                    out.append(_err(
                        rid, f"seq task {task.tid} contains comb node "
                        f"{nid} ({node.target})", subject=node.target))
                elif (node.clock, node.edge) != (task.clock, task.edge):
                    out.append(_err(
                        rid, f"task {task.tid} domain ({task.clock}, "
                        f"{task.edge}) != node {nid} domain "
                        f"({node.clock}, {node.edge})", subject=node.target))

    # Task edges: recompute from the node graph through the cover.
    comb_tids = [t.tid for t in tg.tasks if t.kind is NodeKind.COMB]
    expect_preds: Dict[int, Set[int]] = {t: set() for t in comb_tids}
    expect_succs: Dict[int, Set[int]] = {t: set() for t in comb_tids}
    for tid in comb_tids:
        for nid in tg.tasks[tid].nodes:
            for p in graph.preds.get(nid, ()):
                pt = seen.get(p)
                if pt is not None and pt != tid:
                    expect_preds[tid].add(pt)
                    expect_succs[pt].add(tid)
    for tid in comb_tids:
        if tg.preds.get(tid, set()) != expect_preds[tid]:
            out.append(_err(
                rid, f"task {tid} preds {sorted(tg.preds.get(tid, ()))} != "
                f"recomputed {sorted(expect_preds[tid])}"))
        if tg.succs.get(tid, set()) != expect_succs[tid]:
            out.append(_err(
                rid, f"task {tid} succs {sorted(tg.succs.get(tid, ()))} != "
                f"recomputed {sorted(expect_succs[tid])}"))

    # Schedule: comb_topo a permutation in dependency order, levels rise.
    if sorted(tg.comb_topo) != sorted(comb_tids):
        out.append(_err(rid, "comb_topo is not a permutation of the comb "
                        f"tasks ({len(tg.comb_topo)} scheduled, "
                        f"{len(comb_tids)} exist)"))
    else:
        pos = {tid: i for i, tid in enumerate(tg.comb_topo)}
        for tid in comb_tids:
            for p in expect_preds[tid]:
                if pos[p] > pos[tid]:
                    out.append(_err(rid, f"comb_topo schedules task {tid} "
                                    f"before its dependency {p}"))
        for tid in comb_tids:
            for p in expect_preds[tid]:
                if tg.tasks[p].level >= tg.tasks[tid].level:
                    out.append(_err(
                        rid, f"task edge {p}->{tid} does not increase level "
                        f"({tg.tasks[p].level} >= {tg.tasks[tid].level})"))

    if sorted(tg.seq_tasks) != sorted(
            t.tid for t in tg.tasks if t.kind is NodeKind.SEQ):
        out.append(_err(rid, "seq_tasks list inconsistent with task kinds"))

    # SEQ register write-disjointness per clock domain: two next-value
    # computations for one register would race at commit.
    writers: Dict[Tuple[str, str, str], List[int]] = {}
    for task in tg.tasks:
        if task.kind is NodeKind.COMB:
            continue
        for nid in task.nodes:
            if nid < 0 or nid >= len(graph.nodes):
                continue
            node = graph.nodes[nid]
            if node.kind is NodeKind.SEQ:
                key = (node.clock or "", node.edge, node.target)
                writers.setdefault(key, []).append(nid)
    for (clock, edge, target), nids in sorted(writers.items()):
        if len(nids) > 1:
            out.append(_err(
                rid, f"register {target!r} has {len(nids)} next-value "
                f"drivers in domain ({clock}, {edge}): nodes {sorted(nids)}",
                subject=target))
    return out


# ---------------------------------------------------------------------------
# Memory layout: offset disjointness and bounds
# ---------------------------------------------------------------------------


def check_layout(layout: MemoryLayout) -> List[Diagnostic]:
    rid = "verify-layout"
    out: List[Diagnostic] = []
    # Per pool, every occupied [lo, hi) interval with its owner label.
    intervals: Dict[int, List[Tuple[int, int, str]]] = {}

    def claim(pool: int, lo: int, size: int, owner: str) -> None:
        intervals.setdefault(pool, []).append((lo, lo + size, owner))

    for name, slot in layout.slots.items():
        if slot.pool == PACKED_POOL:
            if slot.width != 1:
                out.append(_err(
                    rid, f"packed slot {name!r} has width {slot.width} "
                    "(only 1-bit signals may be lane-packed)", subject=name))
            if slot.limbs != 1:
                out.append(_err(rid, f"packed slot {name!r} has "
                                f"{slot.limbs} limbs", subject=name))
        elif slot.pool in (0, 1, 2):
            if slot.limbs != 1:
                out.append(_err(rid, f"slot {name!r} in pool {slot.pool} "
                                f"has {slot.limbs} limbs", subject=name))
            if slot.width > _POOL_BITS[slot.pool]:
                out.append(_err(
                    rid, f"slot {name!r} width {slot.width} exceeds pool "
                    f"var{_POOL_BITS[slot.pool]}", subject=name))
        elif slot.pool == 3:
            need = max(1, -(-slot.width // 64))
            if slot.limbs != need:
                out.append(_err(
                    rid, f"slot {name!r} width {slot.width} needs {need} "
                    f"limb(s), allocated {slot.limbs}", subject=name))
        else:
            out.append(_err(rid, f"slot {name!r} in unknown pool "
                            f"{slot.pool}", subject=name))
            continue
        claim(slot.pool, slot.offset, slot.limbs, name)
        if slot.is_state:
            if slot.next_offset is None:
                out.append(_err(rid, f"state slot {name!r} has no shadow "
                                "(next_offset)", subject=name))
            else:
                claim(slot.pool, slot.next_offset, slot.limbs, f"{name}.next")
    for name, ms in layout.mems.items():
        if ms.pool == PACKED_POOL:
            out.append(_err(rid, f"memory {name!r} placed in the packed "
                            "pool", subject=name))
            continue
        claim(ms.pool, ms.base, max(ms.depth, 0), f"mem:{name}")
    for nid, sc in layout.scratch.items():
        for label, slot in (("cond", sc.cond), ("addr", sc.addr),
                            ("data", sc.data)):
            if slot.pool == PACKED_POOL:
                out.append(_err(rid, f"memw scratch {label} of node {nid} "
                                "placed in the packed pool"))
                continue
            claim(slot.pool, slot.offset, slot.limbs,
                  f"scratch{nid}.{label}")

    sizes = list(layout.pool_sizes) + [0] * (PACKED_POOL + 1 -
                                             len(layout.pool_sizes))
    sizes[PACKED_POOL] = layout.packed_size
    for pool, ivs in sorted(intervals.items()):
        cap = sizes[pool] if pool <= PACKED_POOL else -1
        ivs.sort()
        prev_hi, prev_owner = 0, ""
        for lo, hi, owner in ivs:
            if lo < 0 or hi > cap:
                out.append(_err(
                    rid, f"{owner} occupies [{lo}, {hi}) outside pool "
                    f"{pool} of size {cap}", subject=owner.split(".")[0]))
            if lo < prev_hi:
                out.append(_err(
                    rid, f"pool {pool} overlap: {owner} [{lo}, {hi}) "
                    f"collides with {prev_owner}",
                    subject=owner.split(".")[0]))
            if hi > prev_hi:
                prev_hi, prev_owner = hi, owner
    return out


# ---------------------------------------------------------------------------
# Fused-program bundle consistency
# ---------------------------------------------------------------------------


def _check_mem_bindings(rid: str, bindings, layout: MemoryLayout,
                        graph: RtlGraph) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    memw_nids = {n.nid for n in graph.nodes if n.kind is NodeKind.MEMW}
    bound = set()
    for b in bindings:
        if b.node_id in bound:
            out.append(_err(rid, f"memory write node {b.node_id} bound "
                            "twice"))
        bound.add(b.node_id)
        if b.node_id not in memw_nids:
            out.append(_err(rid, f"binding references node {b.node_id}, "
                            "which is not a memory write"))
            continue
        node = graph.nodes[b.node_id]
        if (b.clock, b.edge) != (node.clock, node.edge):
            out.append(_err(
                rid, f"binding for node {b.node_id} carries domain "
                f"({b.clock}, {b.edge}) != node ({node.clock}, "
                f"{node.edge})", subject=node.target))
        ms = layout.mems.get(node.target)
        if ms is None or (b.mem_pool, b.mem_base, b.mem_depth) != (
                ms.pool, ms.base, ms.depth):
            out.append(_err(rid, f"binding for node {b.node_id} does not "
                            f"match the layout of memory {node.target!r}",
                            subject=node.target))
        sc = layout.scratch.get(b.node_id)
        if sc is None:
            out.append(_err(rid, f"no scratch allocated for memory write "
                            f"node {b.node_id}", subject=node.target))
        elif ((b.cond_pool, b.cond_off) != (sc.cond.pool, sc.cond.offset)
              or (b.addr_pool, b.addr_off) != (sc.addr.pool, sc.addr.offset)
              or (b.data_pool, b.data_off) != (sc.data.pool, sc.data.offset)):
            out.append(_err(rid, f"binding for node {b.node_id} diverges "
                            "from its scratch slots", subject=node.target))
    for nid in sorted(memw_nids - bound):
        out.append(_err(rid, f"memory write node {nid} "
                        f"({graph.nodes[nid].target}) has no commit "
                        "binding", subject=graph.nodes[nid].target))
    return out


def check_fused(model) -> List[Diagnostic]:
    """Fused bundle vs the RTL graph: domains, node counts, commit
    bindings."""
    rid = "verify-fused"
    out: List[Diagnostic] = []
    graph = model.graph
    fused = model.fused()

    # Re-derived here rather than read from graph.clock_domains(), the
    # grouping the emitter itself used.
    per_dom: Dict[Tuple[str, str], Set[int]] = {}
    for n in graph.nodes:
        if n.kind is not NodeKind.COMB:
            per_dom.setdefault((n.clock, n.edge), set()).add(n.nid)
    have = set(fused.seq.keys())
    if have != set(per_dom):
        out.append(_err(
            rid, f"fused sequential programs cover domains "
            f"{sorted(have, key=str)} but the graph has "
            f"{sorted(per_dom, key=str)} — the trigger-set plan "
            "cache would miss a clock domain"))

    comb = {n.nid for n in graph.nodes if n.kind is NodeKind.COMB}
    if fused.comb.n_nodes != len(comb):
        out.append(_err(rid, f"fused comb program claims "
                        f"{fused.comb.n_nodes} nodes, the graph has "
                        f"{len(comb)}"))
    for dom, prog in fused.seq.items():
        if dom in per_dom and prog.n_nodes != len(per_dom[dom]):
            out.append(_err(
                rid, f"fused program for domain {dom} claims "
                f"{prog.n_nodes} nodes, the graph has {len(per_dom[dom])}"))

    # Emission order: the emitter regroups nodes (level by level, a
    # rolled-up run where its first member sat), so re-derive that every
    # program still emits each of its nodes exactly once and that the
    # comb program stores every signal in a unit before any unit reading
    # it (members of one unit run as a single statement).
    progs = [(fused.comb, comb)]
    progs += [(prog, per_dom.get(dom, set()))
              for dom, prog in fused.seq.items()]
    for prog, want in progs:
        units = fused.order.get(prog.name, [])
        flat = [nid for unit in units for nid in unit]
        if sorted(flat) != sorted(want):
            out.append(_err(
                rid, f"program {prog.name} emits nodes {sorted(flat)[:8]}… "
                f"({len(flat)}), the graph holds {len(want)}"))
            continue
        if prog.kind != "comb":
            continue
        unit_of = {nid: i for i, unit in enumerate(units) for nid in unit}
        for nid in flat:
            for p in graph.preds.get(nid, ()):
                if unit_of.get(p, -1) >= unit_of[nid]:
                    out.append(_err(
                        rid, f"program {prog.name} emits node {nid} "
                        f"({graph.nodes[nid].target}) no later than its "
                        f"dependency {p} ({graph.nodes[p].target})",
                        subject=graph.nodes[nid].target))

    out.extend(_check_mem_bindings(rid, model.mem_writes, model.layout,
                                   graph))
    return out


# ---------------------------------------------------------------------------
# Translation validation of the fused codegen's rewrite claims
# ---------------------------------------------------------------------------


_POOL_NAMES = ("P8", "P16", "P32", "P64", "P1")
_TEMP_DEF_RE = re.compile(r"^\s+(_t\d+\w*) = (.*)$", re.M)
_TEMP_USE_RE = re.compile(r"\b_t\d+\w*")
_SLICE_RE = re.compile(r"\b(P(?:8|16|32|64|1))\[(\d+)\*[NW]:(\d+)\*[NW]\]")

#: One pool interval ``[lo, hi)`` of offsets: ``(pool, lo, hi)``.
_Range = Tuple[int, int, int]


def _write_ranges(node: RtlNode, layout: MemoryLayout) -> List[_Range]:
    """Pool offsets the fused program stores to when it emits ``node``:
    a comb signal's live slot, a register's shadow, a memory write's
    cond/addr/data scratch."""
    if node.kind is NodeKind.MEMW:
        sc = layout.scratch.get(node.nid)
        slots = [] if sc is None else [sc.cond, sc.addr, sc.data]
        return [(s.pool, s.offset, s.offset + s.limbs) for s in slots]
    slot = layout.slots.get(node.target)
    if slot is None:
        return []
    lo = slot.offset
    if node.kind is NodeKind.SEQ and slot.next_offset is not None:
        lo = slot.next_offset
    return [(slot.pool, lo, lo + slot.limbs)]


def _temp_reads(source: str) -> Dict[str, List[_Range]]:
    """What every ``_t*`` binding of the generated ``source`` reads,
    re-derived from the text itself: the pool slices of its right-hand
    side plus, transitively, those of the temps it mentions."""
    rhs = dict(_TEMP_DEF_RE.findall(source))
    out: Dict[str, List[_Range]] = {}

    def reads(name: str, trail: Tuple[str, ...] = ()) -> List[_Range]:
        if name not in out:
            code = rhs.get(name, "")
            found = [(_POOL_NAMES.index(p), int(lo), int(hi))
                     for p, lo, hi in _SLICE_RE.findall(code)]
            for inner in _TEMP_USE_RE.findall(code):
                if inner != name and inner not in trail:
                    found.extend(reads(inner, trail + (name,)))
            out[name] = found
        return out[name]

    for name in rhs:
        reads(name)
    return out


def _overlap(a: _Range, b: _Range) -> bool:
    return a[0] == b[0] and a[1] < b[2] and b[1] < a[2]


def _node_shape(node: RtlNode, layout: MemoryLayout, graph: RtlGraph):
    """``(shape, operands)`` of a comb/seq node for the roll-up proof.

    ``shape`` is the node's expression tree with every signal replaced
    by the index of its first occurrence plus its slot's pool and width
    (constants, operators and width annotations kept); ``operands`` is
    the ``(pool, offset)`` each distinct name resolves to, the store
    target first.  Two nodes the emitter may render with one statement
    must agree on ``shape``; ``operands`` is what may differ.  Returns
    None for shapes no rolled statement can express (wide values, words
    of a memory at a non-constant or out-of-range address).
    """
    from repro.verify import knownbits as kb

    target = layout.slots.get(node.target)
    if target is None or target.limbs != 1 or node.expr is None:
        return None
    shadow = node.kind is NodeKind.SEQ
    operands = [(target.pool,
                 target.next_offset if shadow else target.offset)]
    index: Dict[object, int] = {}

    def name_ref(key, pool: int, offset: int, width: int):
        if key not in index:
            index[key] = len(operands)
            operands.append((pool, offset))
        return (index[key], pool, width)

    def slot_ref(name: str):
        slot = layout.slots.get(name)
        if slot is None or slot.limbs != 1:
            raise LookupError(name)
        return name_ref(name, slot.pool, slot.offset, slot.width)

    def walk(e: A.Expr):
        head = (type(e).__name__, e.width, e.ctx_width)
        if e.width > 64 or e.ctx_width > 64:
            raise LookupError("wide")
        if isinstance(e, A.Number):
            return head + (e.value,)
        if isinstance(e, A.Ident):
            return head + (slot_ref(e.name),)
        if isinstance(e, A.Unary):
            return head + (e.op, walk(e.operand))
        if isinstance(e, A.Binary):
            return head + (e.op, walk(e.left), walk(e.right))
        if isinstance(e, A.Ternary):
            return head + (walk(e.cond), walk(e.then), walk(e.other))
        if isinstance(e, A.Concat):
            return head + tuple(walk(p) for p in e.parts)
        if isinstance(e, A.Repeat):
            return head + (getattr(e, "_count_i", None), walk(e.value))
        if isinstance(e, A.Index) and e.is_memory:
            mem = layout.mems.get(e.base)
            addr = kb.expr_bits(e.index, {}, graph)
            if (mem is None or not addr.is_const
                    or not 0 <= addr.value < mem.depth):
                raise LookupError(e.base)
            return head + ("mem", name_ref(
                ("mem", e.base, addr.value), mem.pool,
                mem.base + addr.value, mem.width))
        if isinstance(e, A.Index):
            return head + (slot_ref(e.base), walk(e.index))
        if isinstance(e, A.PartSelect):
            return head + (slot_ref(e.base), getattr(e, "_lsb_i", None))
        if isinstance(e, A.IndexedPartSelect):
            return head + (slot_ref(e.base), getattr(e, "_width_i", None),
                           getattr(e, "_base_lsb_i", 0), e.descending,
                           walk(e.start))
        raise LookupError(type(e).__name__)

    try:
        shape = (node.kind, target.pool, target.width, walk(node.expr))
    except LookupError:
        return None
    return shape, operands


def _check_cse(rec, fused, graph: RtlGraph, reads,
               clean: Dict[tuple, int]) -> Optional[str]:
    """Why the reuse claimed by ``rec`` cannot be re-proved (or None).

    ``clean`` remembers, per (program, temp, definition), up to which
    unit the stores were already shown not to touch the temp's reads, so
    a mask reused by a thousand nodes is scanned once, not a thousand
    times."""
    d = rec.detail
    units = fused.order.get(d.get("program"))
    temp, dp, up = d.get("temp"), d.get("def_pos"), d.get("use_pos")
    if units is None or temp not in reads:
        return f"names an unknown program or temporary ({temp!r})"
    if not (isinstance(dp, int) and isinstance(up, int)
            and 0 <= dp <= up < len(units)):
        return f"has no valid definition/use order ({dp!r} .. {up!r})"
    if d.get("def_node") not in units[dp] or rec.node not in units[up]:
        return "places its definition or its use in the wrong unit"
    # The defining unit's own stores follow the binding, so they count.
    key = (d.get("program"), temp, dp)
    start = max(dp, clean.get(key, dp))
    clean[key] = max(up, start)
    for pos in range(start, up):
        for nid in units[pos]:
            for wr in _write_ranges(graph.nodes[nid], fused.layout):
                for rd in reads[temp]:
                    if _overlap(wr, rd):
                        return (
                            f"reads {_POOL_NAMES[rd[0]]} offsets "
                            f"[{rd[1]}, {rd[2]}) but node {nid} "
                            f"({graph.nodes[nid].target}) stores to "
                            f"[{wr[1]}, {wr[2]}) between the definition "
                            "and the reuse")
    return None


def _check_rollup(rec, fused, graph: RtlGraph) -> Optional[str]:
    """Why the rolled-up run claimed by ``rec`` is unsound (or None)."""
    d = rec.detail
    layout = fused.layout
    members = d.get("members") or []
    k, claimed = d.get("length"), d.get("operands") or []
    units = fused.order.get(d.get("program"))
    pos = d.get("pos")
    if (units is None or not isinstance(pos, int)
            or not 0 <= pos < len(units) or units[pos] != members):
        return "is not the unit the program order lists at its position"
    if k != len(members) or k < 3 or len(set(members)) != k:
        return f"claims {k} members but lists {len(members)}"
    if any(not 0 <= nid < len(graph.nodes) for nid in members):
        return "lists a nonexistent node"
    nodes = [graph.nodes[nid] for nid in members]
    rep = nodes[0]
    if rep.kind is NodeKind.MEMW:
        return "rolls up memory writes"
    # Mutually independent: one level of the comb DAG, or one clock
    # domain of registers (which only read pre-edge state).
    domain = (rep.kind, rep.level, rep.clock, rep.edge)
    for n in nodes:
        if (n.kind, n.level, n.clock, n.edge) != domain:
            return (f"mixes node {n.nid} ({n.target}) with node {rep.nid} "
                    f"({rep.target}) across levels or clock domains")
    shapes = [_node_shape(n, layout, graph) for n in nodes]
    if shapes[0] is None:
        return f"has a representative ({rep.target}) that cannot be rolled"
    for n, sh in zip(nodes, shapes):
        if sh is None or sh[0] != shapes[0][0]:
            return (f"member {n.nid} ({n.target}) is not structurally "
                    f"equal to the representative ({rep.target})")
    if len(claimed) != len(shapes[0][1]):
        return (f"claims {len(claimed)} operands, the representative "
                f"has {len(shapes[0][1])}")
    sizes = list(layout.pool_sizes) + [layout.packed_size]
    rows: List[Tuple[int, Set[int]]] = []
    for j, op in enumerate(claimed):
        pool, base, stride = op.get("pool"), op.get("base"), op.get("stride")
        for i, (_, ops) in enumerate(shapes):
            if ops[j] != (pool, base + i * stride):
                return (f"operand {j} of member {members[i]} "
                        f"({nodes[i].target}) sits at {ops[j]}, not at "
                        f"the claimed pool {pool} offset "
                        f"{base} + {i}*{stride}")
        if stride < (1 if j == 0 else 0) or (pool == PACKED_POOL and stride):
            return f"operand {j} has an unusable stride {stride}"
        if base < 0 or base + (k - 1) * stride >= sizes[pool]:
            return f"operand {j} leaves pool {pool}"
        rows.append((pool, {base + i * stride for i in range(k)}))
    wpool, wrows = rows[0]
    for j, (pool, rrows) in enumerate(rows[1:], start=1):
        if pool == wpool and wrows & rrows:
            return (f"stores to offsets {sorted(wrows & rrows)[:4]} of pool "
                    f"{pool} that operand {j} of the same run reads")
    return None


def _const_amount(e, graph, kb) -> Optional[int]:
    """``e``'s value when the known-bits engine proves it constant (a
    width-0 TOP proves nothing)."""
    bits = kb.expr_bits(e, {}, graph)
    return bits.value if bits.width and bits.is_const else None


def _check_lowering(rec, graph, kb) -> Optional[str]:
    """Why a constant-aware lowering claim (``const-shift``,
    ``const-index``, ``replicate``, ``rotate``) cannot be re-proved, or
    None.  Each names the constant it lowered by; the amount is
    re-derived from the expression itself."""
    e, d = rec.expr, rec.detail
    if rec.kind == "const-shift":
        if getattr(e, "op", None) not in ("<<", "<<<", ">>", ">>>"):
            return "is not about a shift"
        k = _const_amount(e.right, graph, kb)
        if k is None or k != d.get("k") or not k < e.ctx_width:
            return (f"shifts by a constant {d.get('k')!r}, but the amount "
                    f"re-proves as {k!r} (context width {e.ctx_width})")
        return None
    if rec.kind == "const-index":
        if not isinstance(e, A.Index) or e.is_memory:
            return "is not about a bit-select"
        k = _const_amount(e.index, graph, kb)
        sig = graph.design.signals.get(e.base)
        width = sig.width if sig is not None else 0
        if k is None or k != d.get("k") or not k < width:
            return (f"selects constant bit {d.get('k')!r}, but the index "
                    f"re-proves as {k!r} (signal width {width})")
        return None
    if rec.kind == "replicate":
        if not isinstance(e, A.Repeat):
            return "is not about a replication"
        from repro.elaborate.constfold import try_const

        c, w = try_const(e.count), e.value.width
        if c != d.get("count") or w != d.get("width") or not (
                w == 1 or c * w <= 64):
            return (f"replicates {d.get('count')!r} x {d.get('width')!r} "
                    f"bits in one word, but the operand is {c!r} x {w} bits")
        return None
    # rotate: (x << k) | (x >> k') with k + k' == W == the context width.
    arms = (getattr(e, "left", None), getattr(e, "right", None))
    if getattr(e, "op", None) != "|" or not all(
            isinstance(a, A.Binary) for a in arms):
        return "is not about an OR of two shifts"
    shl, shr = sorted(arms, key=lambda a: a.op not in ("<<", "<<<"))
    if shl.op not in ("<<", "<<<") or shr.op not in (">>", ">>>"):
        return "does not OR a left shift with a right shift"
    if not kb.same_expr(shl.left, shr.left):
        return "shifts two different operands"
    k = _const_amount(shl.right, graph, kb)
    k2 = _const_amount(shr.right, graph, kb)
    w = e.ctx_width
    claimed = (d.get("k"), d.get("complement"), d.get("width"))
    if None in (k, k2) or (k, k2, w) != claimed or k + k2 != w \
            or not 0 < k < w:
        return (f"rotates by {d.get('k')!r} with complement "
                f"{d.get('complement')!r} at width {d.get('width')!r}, but "
                f"the shifts re-prove as {k!r} + {k2!r} at context width {w}")
    return None


def _key_compares(cond, graph, kb) -> Optional[List[Tuple[A.Expr, int]]]:
    """``[(selector, constant), ...]`` when ``cond`` is a compare of an
    expression with a proven constant, or an ``||`` of such, else None."""
    if not isinstance(cond, A.Binary):
        return None
    if cond.op == "||":
        l = _key_compares(cond.left, graph, kb)
        r = _key_compares(cond.right, graph, kb)
        return None if l is None or r is None else l + r
    if cond.op not in ("==", "==="):
        return None
    for k, c in ((cond.left, cond.right), (cond.right, cond.left)):
        value = _const_amount(c, graph, kb)
        if value is not None:
            return [(k, value)]
    return None


def _check_keyed(rec, fused, graph, kb) -> Optional[str]:
    """Why a keyed-select claim cannot be re-proved (or None): the first
    ``links`` conditions of the chain compare one selector, bounded by
    the claimed width, with constants; keeping each constant with its
    first arm and dropping those of ``width`` or more bits leaves the
    claimed distinct constants; and the claimed row map — the index
    table the program reads, or the identity — follows from them."""
    import numpy as np

    d, node = rec.detail, rec.expr
    w, links = d.get("width"), d.get("links")
    if not (isinstance(w, int) and 0 < w <= 8
            and isinstance(links, int) and links > 0):
        return f"claims selector width {w!r} over {links!r} links"
    sel, per_link = None, []
    for _ in range(links):
        pairs = (_key_compares(node.cond, graph, kb)
                 if isinstance(node, A.Ternary) else None)
        if pairs is None:
            return (f"claims {links} compare links, but link "
                    f"{len(per_link)} is not a compare with a constant")
        for k, _ in pairs:
            sel = k if sel is None else sel
            if not (k is sel or kb.same_expr(k, sel)):
                return "compares two different selectors"
        per_link.append([c for _, c in pairs])
        node = node.other
    if kb.expr_bits(sel, {}, graph).max_value >> w:
        return f"gathers on a selector that may not fit {w} bits"
    owner: Dict[int, int] = {}
    kept: List[List[int]] = []
    for consts in per_link:
        mine = [c for c in dict.fromkeys(consts)
                if c < (1 << w) and c not in owner]
        if mine:
            owner.update((c, len(kept)) for c in mine)
            kept.append(mine)
    claimed = d.get("constants") or []
    flat = [c for cs in claimed for c in cs]
    if claimed != kept or len(set(flat)) != len(flat):
        return (f"claims arm constants {claimed}, but the chain's first "
                f"reachable constants are {kept}")
    rows = [owner.get(v, len(kept)) for v in range(1 << w)]
    if d.get("rows") != rows:
        return f"claims row map {d.get('rows')}, the constants give {rows}"
    ix = d.get("index")
    if ix is None:
        if rows != list(range(1 << w)):
            return "gathers on the selector directly, but the rows are not dense"
        return None
    table = fused.namespace.get(ix)
    if (not isinstance(table, np.ndarray) or table.dtype != np.uint8
            or table.tolist() != rows):
        got = table.tolist() if isinstance(table, np.ndarray) else table
        return f"reads index table {ix} = {got}, not the row map {rows}"
    return None


def _check_table(rec, fused, graph) -> Optional[str]:
    """Why a table claim cannot be re-proved (or None): its inputs are
    exactly the signals the expression reads (no memory), at most 8 bits
    in all, and the table the program reads equals, byte for byte, the
    reference interpreter's value of the expression over every input
    combination (first input in the high index bits), truncated to the
    stored width."""
    import numpy as np

    from repro.baselines.reference import eval_expr

    d, e = rec.detail, rec.expr
    slot = fused.layout.slots.get(rec.target or "")
    inputs = d.get("inputs") or []
    if e is None or slot is None:
        return "names no expression or no target slot"
    if any(isinstance(n, A.Index) and n.is_memory for n in A.walk_expr(e)):
        return "tabulates an expression that reads a memory"
    widths = {s.name: s.width for s in graph.design.signals.values()}
    names = sorted(set(A.expr_reads(e)))
    if [n for n, _ in inputs] != names or any(
            widths.get(n) != w for n, w in inputs):
        return (f"indexes by {inputs}, but the expression reads "
                f"{[(n, widths.get(n)) for n in names]}")
    total = sum(w for _, w in inputs)
    bits = 8 if slot.pool == PACKED_POOL else _POOL_BITS[slot.pool]
    if total > 8 or d.get("width") != slot.width or d.get("bits") != bits:
        return (f"claims a {d.get('width')!r}-bit table of "
                f"{d.get('bits')!r}-bit entries over {total} input bits "
                f"for a {slot.width}-bit slot")
    values = []
    for v in range(1 << total):
        state, shift = {}, total
        for n, w in inputs:
            shift -= w
            state[n] = (v >> shift) & ((1 << w) - 1)
        values.append(eval_expr(e, state, {}, widths) & ((1 << slot.width) - 1))
    want = np.array(values, dtype=f"uint{bits}")
    got = fused.namespace.get(d.get("table"))
    if (not isinstance(got, np.ndarray) or got.dtype != want.dtype
            or got.tobytes() != want.tobytes()):
        return (f"reads table {d.get('table')!r}, which differs from the "
                "reference interpreter's values")
    return None


def check_audit(model) -> List[Diagnostic]:
    """Re-prove every rewrite the emitter recorded, in each lowering the
    model has built: the fused programs, and the per-task module when
    ``model.tasks_built``.

    The emitter's :class:`~repro.core.codegen.AuditRecord` stream says
    *what* it rewrote (dropped constant-zero mux branch, increment-mux
    peephole, demand-width truncated store, packed 1-bit store, folded
    packed constant, constant shift / bit-select, word replication, limb
    rotate, reused temporary, rolled-up run of same-shape statements,
    keyed select gathered from a stack, lookup table);
    this pass re-establishes each claim through the independent
    known-bits engine and structural checks.  A claim that cannot be
    re-proved is an ERROR naming its module: either the emitter is wrong
    or the record was corrupted.
    """
    modules = [("fused programs", model.fused())]
    if model.tasks_built:
        modules.append(("per-task module", model.tasks()))
    return [d for label, module in modules
            for d in _check_records(module, model.graph, label)]


def _check_records(fused, graph: RtlGraph, label: str) -> List[Diagnostic]:
    """The :func:`check_audit` findings of one emitted module."""
    from repro.verify import knownbits as kb

    rid = "verify-audit"
    out: List[Diagnostic] = []
    layout = fused.layout
    env: Dict[str, kb.KnownBits] = {}  # empty: only constant facts count

    reads: Optional[Dict[str, List[_Range]]] = None
    clean: Dict[tuple, int] = {}

    for rec in fused.audit:
        where = (f"node {rec.node}" if rec.node >= 0 else "unknown node"
                 ) + f" of the {label}"
        if rec.kind == "cse":
            if reads is None:
                reads = _temp_reads(fused.source)
            why = _check_cse(rec, fused, graph, reads, clean)
            if why is not None:
                out.append(_err(
                    rid, f"reuse of {rec.detail.get('temp')} at {where} "
                    f"{why}", subject=rec.target))
        elif rec.kind == "rollup":
            why = _check_rollup(rec, fused, graph)
            if why is not None:
                out.append(_err(
                    rid, f"rolled-up run at {where} {why}",
                    subject=rec.target))
        elif rec.kind == "const0-branch":
            # Evaluate at >= 1 bit: a width-0 TOP has max_value 0 and
            # would vacuously "prove" any unannotated expression zero.
            w = max(1, rec.expr.ctx_width or rec.expr.width
                    ) if rec.expr is not None else 1
            bits = (kb.expr_bits(rec.expr, env, graph, width=w)
                    if rec.expr is not None else kb.top(1))
            if rec.expr is None or bits.max_value != 0:
                out.append(_err(
                    rid, f"emitter dropped a mux branch at {where} claiming "
                    "it is constant zero, but the known-bits engine cannot "
                    "prove it (dropped live bits)", subject=rec.target))
        elif rec.kind == "inc-mux":
            e = rec.expr
            ok = False
            if (e is not None and hasattr(e, "then")
                    and hasattr(e, "other")):
                t, f = e.then, e.other
                if getattr(t, "op", None) == "+":
                    left = kb.expr_bits(t.left, env, graph)
                    right = kb.expr_bits(t.right, env, graph)
                    ok = ((right.is_const and right.value == 1
                           and kb.same_expr(t.left, f))
                          or (left.is_const and left.value == 1
                              and kb.same_expr(t.right, f)))
            if not ok:
                out.append(_err(
                    rid, f"increment-mux rewrite at {where} does not match "
                    "the `c ? x + 1 : x` shape on re-analysis",
                    subject=rec.target))
        elif rec.kind == "demand-store":
            slot = layout.slots.get(rec.target or "")
            if slot is None:
                out.append(_err(rid, f"demand store at {where} targets "
                                f"unknown slot {rec.target!r}",
                                subject=rec.target))
                continue
            demand = rec.detail.get("demand")
            bits = rec.detail.get("bits")
            masked = rec.detail.get("masked")
            if demand != slot.width:
                out.append(_err(
                    rid, f"store to {rec.target!r} at {where} demanded "
                    f"{demand} bits but the slot keeps {slot.width} — "
                    "truncation drops live bits", subject=rec.target))
            pool_bits = (_POOL_BITS[slot.pool]
                         if slot.pool < len(_POOL_BITS) else 64)
            need_mask = (isinstance(bits, int)
                         and slot.width < min(bits, pool_bits))
            if bool(masked) != need_mask:
                out.append(_err(
                    rid, f"store to {rec.target!r} at {where} "
                    f"{'masked' if masked else 'did not mask'} wrap "
                    "garbage, but the dtype/pool widths require the "
                    "opposite", subject=rec.target))
        elif rec.kind == "packed-store":
            slot = layout.slots.get(rec.target or "")
            if slot is None or slot.pool != PACKED_POOL or slot.width != 1:
                out.append(_err(
                    rid, f"packed store at {where} targets {rec.target!r}, "
                    "which is not a 1-bit packed slot", subject=rec.target))
                continue
            if rec.detail.get("mode") == "const":
                bits = kb.expr_bits(rec.expr, env, graph, width=1)
                want = rec.detail.get("value")
                if not bits.is_const or bits.value != want:
                    out.append(_err(
                        rid, f"packed constant store to {rec.target!r} at "
                        f"{where} claims value {want}, not re-provable",
                        subject=rec.target))
        elif rec.kind == "packed-const":
            # The folded operand must be all-lanes 0 or 1 — its whole
            # value, not just the low bit (as for const0-branch, at >= 1
            # bit so an unannotated operand proves nothing).
            want = rec.detail.get("value")
            bits = None
            if rec.expr is not None:
                w = max(1, rec.expr.ctx_width or rec.expr.width)
                bits = kb.expr_bits(rec.expr, env, graph, width=w)
            if bits is None or not bits.is_const or bits.value != want:
                out.append(_err(
                    rid, f"packed fold at {where} dropped an operand "
                    f"claimed to be constant {want}, not re-provable",
                    subject=rec.target))
        elif rec.kind in ("keyed-select", "table"):
            why = (_check_keyed(rec, fused, graph, kb)
                   if rec.kind == "keyed-select"
                   else _check_table(rec, fused, graph))
            if why is not None:
                out.append(_err(rid, f"{rec.kind} lowering at {where} {why}",
                                subject=rec.target))
        elif rec.kind in ("const-shift", "const-index", "replicate",
                          "rotate"):
            why = ("has no expression" if rec.expr is None
                   else _check_lowering(rec, graph, kb))
            if why is not None:
                out.append(_err(
                    rid, f"{rec.kind} lowering at {where} {why}",
                    subject=rec.target))
        else:
            out.append(_err(rid, f"unknown audit record kind "
                            f"{rec.kind!r} at {where}", subject=rec.target))
    return out
