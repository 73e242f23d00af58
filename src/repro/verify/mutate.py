"""Mutation self-test for the verifier.

Each :class:`Mutation` injects one synthetic corruption into a freshly
built compiled model — a dropped task edge, a widened offset, a swapped
dependency, a forged rewrite claim — and the self-test requires
``repro verify`` to flag every one with at least one ERROR.  This is
the verifier's own test harness: a checker that never fires is
indistinguishable from no checker, so CI runs
:func:`verify_selftest` alongside the zero-findings check on the
unmutated bundled designs.

All mutations are applied to in-memory IR *after* the build (the fused
bundle is pre-built so mutations land on the cached artifact the
verifier inspects); the generated source text never changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.rtlir.graph import NodeKind
from repro.utils.errors import ReproError

__all__ = ["MUTATIONS", "Mutation", "fresh_model", "verify_selftest",
           "DEMO_SOURCE", "DEMO_TOP"]

#: Small design exercising every IR feature the mutations need: chained
#: comb logic, two same-domain registers, 1-bit signals (packed pool),
#: a guarded memory write (scratch slots), a reset mux (const0-branch
#: audit record), an enable counter (inc-mux audit record), two muxes on
#: one comb-produced condition (a ``cse`` record whose temp reads a slot
#: the comb program stores), a three-register shift chain (a ``rollup``
#: record with unit strides) and a 128-bit rotate beside a constant
#: shift and bit-select (``rotate`` / ``const-shift`` / ``const-index``
#: records).
DEMO_SOURCE = """
module mut_demo(
  input clk, input rst, input en,
  input [7:0] din,
  output [7:0] dout,
  output [7:0] pick,
  output [7:0] tail,
  output flag,
  output [7:0] spun
);
  reg [7:0] acc;
  reg [3:0] cnt;
  reg bit0, bit1;
  reg [7:0] lane0, lane1, lane2, lane3;
  reg [7:0] mem [0:15];

  wire [7:0] sum = acc + din;
  wire [7:0] masked = sum & 8'h7f;
  wire high = masked > 8'h40;
  wire [3:0] nxt = en ? cnt + 4'd1 : cnt;
  wire [7:0] hi_a = high ? acc : din;
  wire [7:0] hi_b = high ? din : sum;
  wire [127:0] wide = {16{din}};
  wire [127:0] spin = (wide << 12) | (wide >> 116);

  assign dout = masked;
  assign pick = hi_a ^ hi_b;
  assign tail = lane3;
  assign flag = high ^ bit0;
  assign spun = spin[75:68] ^ {din[3:0] << 1, din[7]};

  always @(posedge clk) begin
    acc <= rst ? 8'd0 : sum;
    cnt <= rst ? 4'd0 : nxt;
    bit0 <= en;
    bit1 <= high;
    lane0 <= rst ? 8'd0 : din;
    lane1 <= rst ? 8'd0 : lane0;
    lane2 <= rst ? 8'd0 : lane1;
    lane3 <= rst ? 8'd0 : lane2;
    if (en) mem[cnt] <= din;
  end
endmodule
"""
DEMO_TOP = "mut_demo"


@dataclass(frozen=True)
class Mutation:
    name: str
    area: str  # graph | taskgraph | index-map | fused
    summary: str
    apply: Callable[[object], None]


def fresh_model():
    """Build an un-shared compiled model of the demo design.

    ``target_weight=1.0`` keeps one node per task so the task graph has
    real edges to corrupt; both lazy lowerings are forced so mutations
    hit the cached artifacts the verifier will read (and a corrupted
    task graph is never what they get built from).
    """
    from repro.core.flow import RTLFlow

    flow = RTLFlow.from_source(DEMO_SOURCE, DEMO_TOP, lint=False)
    model = flow.compile(target_weight=1.0)
    model.tasks()
    model.fused()
    return model


class MutationShapeError(ReproError):
    """The demo design no longer has the shape a mutation needs."""


def _need(cond: bool, what: str) -> None:
    if not cond:
        raise MutationShapeError(f"mutation harness: demo design has no {what}")


def _comb_with_pred(graph):
    for nid in graph.comb_order:
        if graph.preds.get(nid):
            return nid, min(graph.preds[nid])
    raise MutationShapeError("mutation harness: no comb node with a pred")


def _seq_nodes(graph):
    nodes = [n for n in graph.nodes if n.kind is NodeKind.SEQ]
    _need(len(nodes) >= 2, "two sequential nodes")
    return nodes


# -- graph mutations ---------------------------------------------------------


def _mut_drop_node_edge(model) -> None:
    g = model.graph
    nid, p = _comb_with_pred(g)
    g.preds[nid].discard(p)
    g.succs[p].discard(nid)


def _mut_producer_corrupt(model) -> None:
    g = model.graph
    comb = [n for n in g.nodes if n.kind is NodeKind.COMB]
    _need(len(comb) >= 2, "two comb nodes")
    g.producer[comb[0].target] = comb[1].nid


def _mut_comb_order_swap(model) -> None:
    g = model.graph
    nid, _ = _comb_with_pred(g)
    g.comb_order.remove(nid)
    g.comb_order.insert(0, nid)


def _mut_level_corrupt(model) -> None:
    g = model.graph
    nid, p = _comb_with_pred(g)
    old = g.nodes[nid].level
    g.nodes[nid].level = g.nodes[p].level  # edge no longer increases level
    g.levels[old].remove(nid)
    g.levels[g.nodes[p].level].append(nid)


def _mut_clock_drop(model) -> None:
    _seq_nodes(model.graph)[0].clock = None


def _mut_wrong_edge(model) -> None:
    _seq_nodes(model.graph)[0].edge = "level"


# -- taskgraph mutations ------------------------------------------------------


def _task_with_pred(tg):
    for tid in tg.comb_topo:
        if tg.preds.get(tid):
            return tid, min(tg.preds[tid])
    raise MutationShapeError("mutation harness: no comb task with a pred")


def _mut_drop_task_edge(model) -> None:
    tg = model.taskgraph
    tid, pt = _task_with_pred(tg)
    tg.preds[tid].discard(pt)
    tg.succs[pt].discard(tid)


def _mut_swap_task_edge(model) -> None:
    tg = model.taskgraph
    tid, pt = _task_with_pred(tg)
    tg.preds[tid].discard(pt)
    tg.succs[pt].discard(tid)
    tg.preds[pt].add(tid)
    tg.succs[tid].add(pt)


def _mut_duplicate_node(model) -> None:
    tg = model.taskgraph
    comb = [t for t in tg.tasks if t.kind is NodeKind.COMB and t.nodes]
    _need(len(comb) >= 2, "two comb tasks")
    comb[1].nodes.append(comb[0].nodes[0])


def _mut_drop_node_from_task(model) -> None:
    tg = model.taskgraph
    for t in tg.tasks:
        if t.nodes:
            t.nodes.pop()
            return
    raise MutationShapeError("mutation harness: no task with nodes")


def _mut_wrong_task_clock(model) -> None:
    tg = model.taskgraph
    seq = [t for t in tg.tasks if t.kind is NodeKind.SEQ]
    _need(bool(seq), "a sequential task")
    seq[0].clock = "phantom_clk"


def _mut_seq_write_overlap(model) -> None:
    g = model.graph
    nodes = _seq_nodes(g)
    by_dom: Dict[tuple, list] = {}
    for n in nodes:
        by_dom.setdefault((n.clock, n.edge), []).append(n)
    for _, group in sorted(by_dom.items()):
        if len(group) >= 2:
            group[1].target = group[0].target
            return
    raise MutationShapeError(
        "mutation harness: no two seq nodes share a clock domain")


def _mut_comb_topo_swap(model) -> None:
    tg = model.taskgraph
    tid, _ = _task_with_pred(tg)
    tg.comb_topo.remove(tid)
    tg.comb_topo.insert(0, tid)


# -- index-map (layout) mutations ---------------------------------------------


def _two_slots_same_pool(layout):
    by_pool: Dict[int, list] = {}
    for s in sorted(layout.slots.values(), key=lambda s: (s.pool, s.offset)):
        if s.limbs == 1:
            by_pool.setdefault(s.pool, []).append(s)
    for pool in sorted(by_pool):
        if len(by_pool[pool]) >= 2:
            return by_pool[pool][0], by_pool[pool][1]
    raise MutationShapeError("mutation harness: no two slots share a pool")


def _mut_offset_collision(model) -> None:
    a, b = _two_slots_same_pool(model.layout)
    b.offset = a.offset


def _mut_offset_oob(model) -> None:
    layout = model.layout
    s = sorted(layout.slots.values(), key=lambda s: s.name)[0]
    sizes = list(layout.pool_sizes) + [layout.packed_size]
    s.offset = sizes[s.pool] + 1  # widened beyond the pool


def _mut_shadow_collision(model) -> None:
    layout = model.layout
    for s in sorted(layout.slots.values(), key=lambda s: s.name):
        if s.is_state and s.next_offset is not None:
            s.next_offset = s.offset
            return
    raise MutationShapeError("mutation harness: no state slot with shadow")


def _mut_packed_collision(model) -> None:
    from repro.core.memory import PACKED_POOL

    layout = model.fused().layout
    packed = sorted(
        (s for s in layout.slots.values() if s.pool == PACKED_POOL),
        key=lambda s: s.offset,
    )
    _need(len(packed) >= 2, "two packed 1-bit slots")
    packed[1].offset = packed[0].offset


def _mut_scratch_collision(model) -> None:
    layout = model.layout
    _need(bool(layout.scratch), "a guarded memory write")
    sc = layout.scratch[sorted(layout.scratch)[0]]
    victim = next(
        (s for s in sorted(layout.slots.values(), key=lambda s: s.name)
         if s.pool == sc.cond.pool and s.offset != sc.cond.offset),
        None,
    )
    _need(victim is not None, "a slot sharing the scratch cond pool")
    sc.cond.offset = victim.offset


# -- fused-codegen mutations --------------------------------------------------


def _mut_drop_seq_program(model) -> None:
    fused = model.fused()
    _need(bool(fused.seq), "a sequential fused program")
    fused.seq.pop(sorted(fused.seq)[0])


def _mut_mem_binding_corrupt(model) -> None:
    fused = model.fused()
    _need(bool(fused.mem_writes), "a memory-write binding")
    fused.mem_writes[0].data_off += 1


def _mut_audit_bogus_const0(model) -> None:
    from repro.core.codegen import AuditRecord
    from repro.verilog.ast_nodes import Number

    one = Number(1)
    one.width = one.ctx_width = 1
    model.fused().audit.append(AuditRecord(
        kind="const0-branch", node=0, target="dout", expr=one))


def _mut_audit_demand_narrow(model) -> None:
    fused = model.fused()
    recs = [r for r in fused.audit if r.kind == "demand-store"
            and r.detail.get("demand", 0) > 1]
    _need(bool(recs), "a multi-bit demand-store audit record")
    recs[0].detail["demand"] = recs[0].detail["demand"] - 1


def _mut_audit_incmux_corrupt(model) -> None:
    fused = model.fused()
    recs = [r for r in fused.audit if r.kind == "inc-mux"]
    _need(bool(recs), "an inc-mux audit record")
    recs[0].expr = recs[0].expr.other  # no longer the c ? x+1 : x shape


def _mut_reuse_across_store(model) -> None:
    """Claim a memoised mask was bound in the unit that *stores* the
    condition it reads: that store then sits between binding and reuse."""
    fused = model.fused()
    producer = model.graph.producer.get("high")
    _need(producer is not None, "comb-produced mux condition 'high'")
    units = fused.order.get(fused.comb.name, [])
    recs = [r for r in fused.audit if r.kind == "cse"
            and r.detail.get("program") == fused.comb.name]
    _need(bool(recs) and [producer] in units,
          "a reused temporary in the comb program")
    recs[0].detail["def_node"] = producer
    recs[0].detail["def_pos"] = units.index([producer])


def _mut_rollup_bad_stride(model) -> None:
    recs = [r for r in model.fused().audit if r.kind == "rollup"]
    _need(bool(recs), "a rolled-up run")
    recs[0].detail["operands"][-1]["stride"] += 1


def _mut_const_shift_off_by_one(model) -> None:
    recs = [r for r in model.fused().audit if r.kind == "const-shift"]
    _need(bool(recs), "a constant-shift lowering")
    recs[0].detail["k"] += 1


def _mut_rotate_bad_complement(model) -> None:
    """Claim a rotate whose two shift amounts do not add up to the width
    (``(x << k) | (x >> (W - k - 1))`` is not a rotate)."""
    recs = [r for r in model.fused().audit if r.kind == "rotate"]
    _need(bool(recs), "a limb rotate")
    recs[0].detail["complement"] -= 1


MUTATIONS: List[Mutation] = [
    Mutation("drop-node-edge", "graph",
             "remove a comb dependency edge", _mut_drop_node_edge),
    Mutation("producer-corrupt", "graph",
             "point the producer map at the wrong node", _mut_producer_corrupt),
    Mutation("comb-order-swap", "graph",
             "schedule a node before its dependency", _mut_comb_order_swap),
    Mutation("level-corrupt", "graph",
             "flatten a node's level onto its pred's", _mut_level_corrupt),
    Mutation("clock-drop", "graph",
             "strip the clock off a sequential node", _mut_clock_drop),
    Mutation("wrong-edge", "graph",
             "give a sequential node an invalid edge", _mut_wrong_edge),
    Mutation("drop-task-edge", "taskgraph",
             "remove a task dependency edge", _mut_drop_task_edge),
    Mutation("swap-task-edge", "taskgraph",
             "reverse a task dependency edge", _mut_swap_task_edge),
    Mutation("duplicate-node", "taskgraph",
             "assign one node to two tasks", _mut_duplicate_node),
    Mutation("drop-node-from-task", "taskgraph",
             "orphan a node from the task cover", _mut_drop_node_from_task),
    Mutation("wrong-task-clock", "taskgraph",
             "move a seq task to a phantom clock domain",
             _mut_wrong_task_clock),
    Mutation("seq-write-overlap", "taskgraph",
             "retarget a register onto another's driver",
             _mut_seq_write_overlap),
    Mutation("comb-topo-swap", "taskgraph",
             "schedule a task before its dependency", _mut_comb_topo_swap),
    Mutation("offset-collision", "index-map",
             "alias two slots onto one offset", _mut_offset_collision),
    Mutation("offset-oob", "index-map",
             "widen an offset beyond its pool", _mut_offset_oob),
    Mutation("shadow-collision", "index-map",
             "fold a register's shadow onto its current slot",
             _mut_shadow_collision),
    Mutation("packed-collision", "index-map",
             "alias two packed 1-bit slots", _mut_packed_collision),
    Mutation("scratch-collision", "index-map",
             "alias memw scratch onto a live slot", _mut_scratch_collision),
    Mutation("drop-seq-program", "fused",
             "delete a clock domain's fused program", _mut_drop_seq_program),
    Mutation("mem-binding-corrupt", "fused",
             "shift a memory commit binding's data offset",
             _mut_mem_binding_corrupt),
    Mutation("audit-bogus-const0", "fused",
             "forge a dropped-branch claim on a nonzero constant",
             _mut_audit_bogus_const0),
    Mutation("audit-demand-narrow", "fused",
             "narrow a store's demanded width below the slot",
             _mut_audit_demand_narrow),
    Mutation("audit-incmux-corrupt", "fused",
             "break an increment-mux claim's shape",
             _mut_audit_incmux_corrupt),
    Mutation("reuse-across-store", "fused",
             "reuse a memoised temp across a store to a slot it read",
             _mut_reuse_across_store),
    Mutation("rollup-bad-stride", "fused",
             "skew one operand stride of a rolled-up run",
             _mut_rollup_bad_stride),
    Mutation("const-shift-off-by-one", "fused",
             "claim a constant shift lowered by one more than its amount",
             _mut_const_shift_off_by_one),
    Mutation("rotate-bad-complement", "fused",
             "claim a rotate whose shift amounts miss the width by one",
             _mut_rotate_bad_complement),
]


def verify_selftest() -> List[Dict[str, object]]:
    """Apply every mutation to a fresh model and verify each is flagged.

    Returns one row per mutation: name, area, whether the verifier
    flagged it, and which rules fired.  A row with ``flagged=False``
    means a verifier gap — callers (tests, ``repro verify --selftest``)
    must treat it as failure.
    """
    from repro.verify import verify_model

    results: List[Dict[str, object]] = []
    for m in MUTATIONS:
        model = fresh_model()
        m.apply(model)
        report = verify_model(model)
        results.append({
            "mutation": m.name,
            "area": m.area,
            "summary": m.summary,
            "flagged": bool(report.errors),
            "rules": report.rule_ids(),
            "errors": len(report.errors),
        })
    return results
