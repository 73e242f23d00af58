"""Backend-neutral batch-axis kernel IR.

The fused flat-program codegen (:mod:`repro.core.codegen`) lowers task
graphs by *printing Python source*.  That welds the lowering to one
backend.  This module extracts the lowering decisions themselves — what
to load, which batch op to apply at which context width, where to store
with which mask — into a small explicit IR that any backend can consume:

* the **numpy** backend keeps emitting fused source (the IR's per-node
  ``origin`` expressions feed the existing three-tier emitter), and
* the **tensor** backend interprets the flattened op lists directly over
  the same pooled batch layout.

Semantics contract: every op mirrors the *uint64/widevec tier* of
:class:`repro.core.codegen.ExprCodegen` exactly — an IR value is an
``(N,)`` uint64 lane vector when its context width fits one limb, and an
``(L, N)`` little-endian limb matrix otherwise.  The fused emitter's
packed/native tiers are proven bit-identical to that tier by the
translation validator, so any backend that implements this contract is
bit-identical to the numpy lowering at every store.

Execution units match the fused bundle: one unit for the whole
combinational phase (in ``comb_topo`` order) and one per sequential
clock domain, each a straight-line list of per-node programs.  Stores
carry resolved pool/offset placements (shadow slots for SEQ targets,
cond/addr/data scratch for guarded memory writes) for the shared
``pack_bits=True`` :class:`~repro.core.memory.MemoryLayout`, so commits,
checkpoints and stimulus pre-packing work unchanged under every backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.codegen import MemWriteBinding, _limbs, mem_write_bindings
from repro.core.memory import PACKED_POOL, MemoryLayout
from repro.partition.taskgraph import TaskGraph
from repro.rtlir.graph import NodeKind, RtlNode
from repro.utils import bitvec as bv
from repro.utils.errors import SimulationError, UnsupportedFeatureError
from repro.verilog import ast_nodes as A

__all__ = [
    "IrOp",
    "IrStore",
    "NodeIr",
    "KernelUnit",
    "KernelIR",
    "build_kernel_ir",
    "validate_ir",
]

#: Opcodes whose result is always one limb regardless of operand limbs.
_SCALAR_RESULT = frozenset({
    "not_bool", "reduce", "logic", "compare", "bit_index",
    "to_bool_wide", "to_amount_wide", "to_narrow_wide", "amount_bias",
})


@dataclass(frozen=True)
class IrOp:
    """One SSA batch op.  ``vid`` indexes the node-local value table."""

    vid: int
    opcode: str
    args: Tuple[int, ...]
    attrs: Mapping[str, object]
    limbs: int  # result representation: 1 -> (N,) u64, L>1 -> (L,N)

    def render(self) -> str:
        args = ", ".join(f"v{a}" for a in self.args)
        attrs = ", ".join(f"{k}={v!r}" for k, v in sorted(self.attrs.items()))
        body = ", ".join(s for s in (args, attrs) if s)
        return f"v{self.vid} = {self.opcode}({body})  ; limbs={self.limbs}"


@dataclass(frozen=True)
class IrStore:
    """A width-masked store of one value into its layout placement.

    Kinds: ``signal`` (COMB current / SEQ shadow slot, ``packed`` for
    lane-packed 1-bit targets), and the ``memw_cond`` / ``memw_addr`` /
    ``memw_data`` scratch triple of a guarded memory write.
    """

    kind: str
    value: int  # vid of the stored value
    target: str
    pool: int
    offset: int
    limbs: int
    width: int
    shadow: bool = False
    packed: bool = False

    def render(self) -> str:
        where = "P1" if self.packed else f"P{(8, 16, 32, 64)[self.pool]}"
        tag = " shadow" if self.shadow else ""
        return (
            f"{self.kind} {self.target} <- v{self.value} "
            f"[{where}+{self.offset}, w{self.width}{tag}]"
        )


@dataclass
class NodeIr:
    """The flattened program of one RTL node (ops then stores).

    ``origin`` keeps the source :class:`~repro.rtlir.graph.RtlNode` so
    tree-fusing backends (the numpy source emitter) can re-lower the
    expression instead of interpreting the flattened ops.
    """

    nid: int
    target: str
    kind: str  # "comb" | "seq" | "memw"
    ops: List[IrOp]
    stores: List[IrStore]
    origin: RtlNode = field(repr=False, compare=False, default=None)


@dataclass
class KernelUnit:
    """One execution unit: the comb phase, or one sequential domain."""

    name: str
    kind: str  # "comb" | "seq"
    domain: Optional[Tuple[str, str]]
    tids: List[int]
    nodes: List[NodeIr]


@dataclass
class KernelIR:
    """The complete backend-neutral lowering of one task graph."""

    top: str
    layout: MemoryLayout
    units: List[KernelUnit]
    mem_writes: List[MemWriteBinding]
    taskgraph: TaskGraph = field(repr=False, compare=False, default=None)

    @property
    def comb(self) -> KernelUnit:
        return self.units[0]

    def seq_units(self) -> List[KernelUnit]:
        return [u for u in self.units if u.kind == "seq"]

    def render(self) -> str:
        """A textual listing of the IR (the backend bundle's 'source')."""
        lines = [f"; kernel IR for {self.top} (backend-neutral)"]
        for unit in self.units:
            dom = f" {unit.domain[1]} {unit.domain[0]}" if unit.domain else ""
            lines.append(f"unit {unit.name} [{unit.kind}{dom}] "
                         f"({len(unit.nodes)} nodes)")
            for node in unit.nodes:
                lines.append(f"  node {node.nid} ({node.kind}) -> {node.target}")
                for op in node.ops:
                    lines.append(f"    {op.render()}")
                for st in node.stores:
                    lines.append(f"    {st.render()}")
        return "\n".join(lines) + "\n"


class _NodeBuilder:
    """Lowers one node's expressions to flat ops, mirroring
    :class:`~repro.core.codegen.ExprCodegen`'s uint64/widevec dispatch
    case for case (same ops, same context masking, same conversions)."""

    def __init__(self, layout: MemoryLayout, graph):
        self.layout = layout
        self.graph = graph
        self.ops: List[IrOp] = []

    def op(self, opcode: str, args: Tuple[int, ...], attrs: Dict[str, object],
           limbs: int) -> int:
        vid = len(self.ops)
        self.ops.append(IrOp(vid, opcode, tuple(args), dict(attrs), limbs))
        return vid

    # -- conversion entry points (ExprCodegen.emit/emit_bool/...) ---------

    def emit(self, e: A.Expr) -> int:
        vid, limbs = self.value(e)
        want = _limbs(e.ctx_width)
        if want == limbs:
            return vid
        if want > 1:
            return self.op("wide_extend", (vid,), {"limbs": want}, want)
        raise SimulationError(  # pragma: no cover - ctx >= width by pass
            f"cannot narrow a wide value to ctx {e.ctx_width}"
        )

    def emit_bool(self, e: A.Expr) -> int:
        vid, limbs = self.value(e)
        if limbs == 1:
            return vid
        return self.op("to_bool_wide", (vid,), {}, 1)

    def emit_amount(self, e: A.Expr) -> int:
        vid, limbs = self.value(e)
        if limbs == 1:
            return vid
        return self.op("to_amount_wide", (vid,), {}, 1)

    def emit_narrow(self, e: A.Expr) -> int:
        vid = self.emit(e)
        if _limbs(e.ctx_width) == 1:
            return vid
        return self.op("to_narrow_wide", (vid,), {}, 1)

    # -- dispatch ---------------------------------------------------------

    def value(self, e: A.Expr) -> Tuple[int, int]:
        if isinstance(e, A.Number):
            L = _limbs(e.ctx_width)
            return self.op("const", (), {"value": e.value}, L), L
        if isinstance(e, A.Ident):
            return self.load(e.name)
        if isinstance(e, A.Unary):
            return self._unary(e)
        if isinstance(e, A.Binary):
            return self._binary(e)
        if isinstance(e, A.Ternary):
            c = self.emit_bool(e.cond)
            t = self.emit(e.then)
            f = self.emit(e.other)
            L = _limbs(e.ctx_width)
            return self.op("mux", (c, t, f), {}, L), L
        if isinstance(e, A.Concat):
            return self._concat([(p, p.width) for p in e.parts], e.width)
        if isinstance(e, A.Repeat):
            count = getattr(e, "_count_i")
            return self._concat([(e.value, e.value.width)] * count, e.width)
        if isinstance(e, A.Index):
            idx = self.emit_amount(e.index)
            if e.is_memory:
                m = self.layout.mem(e.base)
                return self.op(
                    "mem_gather", (idx,),
                    {"mem": e.base, "pool": m.pool, "base": m.base,
                     "depth": m.depth}, 1,
                ), 1
            base, base_limbs = self.load(e.base)
            opc = "bit_index" if base_limbs == 1 else "wide_bit_index"
            return self.op(opc, (base, idx), {}, 1), 1
        if isinstance(e, A.PartSelect):
            lsb = getattr(e, "_lsb_i")
            m = bv.mask(e.width)
            base, base_limbs = self.load(e.base)
            if base_limbs == 1:
                return self.op("part", (base,), {"lsb": lsb, "mask": m}, 1), 1
            if e.width <= 64:
                return self.op(
                    "wide_part_narrow", (base,), {"lsb": lsb, "mask": m}, 1
                ), 1
            L = _limbs(e.width)
            return self.op(
                "wide_part_wide", (base,), {"lsb": lsb, "width": e.width}, L
            ), L
        if isinstance(e, A.IndexedPartSelect):
            w = getattr(e, "_width_i")
            sig_lsb = getattr(e, "_base_lsb_i", 0)
            m = bv.mask(min(w, 64)) if w <= 64 else bv.mask(w)
            start = self.emit_amount(e.start)
            shift_back = (w - 1 if e.descending else 0) + sig_lsb
            pos = (
                self.op("amount_bias", (start,), {"bias": shift_back}, 1)
                if shift_back else start
            )
            base, base_limbs = self.load(e.base)
            if base_limbs == 1:
                return self.op("dyn_part", (base, pos), {"mask": m}, 1), 1
            if w <= 64:
                return self.op(
                    "wide_dyn_narrow", (base, pos), {"mask": m}, 1
                ), 1
            return self.op(
                "wide_dyn_wide", (base, pos), {"width": w}, _limbs(w)
            ), _limbs(w)
        raise SimulationError(f"cannot lower {type(e).__name__} to kernel IR")

    def load(self, name: str) -> Tuple[int, int]:
        slot = self.layout.slot(name)
        packed = slot.pool == PACKED_POOL
        return self.op(
            "load", (),
            {"name": name, "pool": slot.pool, "offset": slot.offset,
             "width": slot.width, "packed": packed},
            slot.limbs,
        ), slot.limbs

    def _concat(self, parts, total_width: int) -> Tuple[int, int]:
        L = _limbs(total_width)
        if L == 1:
            acc = self.emit(parts[0][0])
            for p, w in parts[1:]:
                acc = self.op("shl_or", (acc, self.emit(p)), {"shift": w}, 1)
            return acc, 1

        def as_limbs(p: A.Expr) -> int:
            # Constants become limb matrices directly (a scalar u64 has
            # no lane axis for extend to replicate).
            if isinstance(p, A.Number):
                return self.op("const", (), {"value": p.value}, L)
            vid, pl = self.value(p)
            if pl == L:
                return vid
            return self.op("wide_extend", (vid,), {"limbs": L}, L)

        acc = as_limbs(parts[0][0])
        for p, w in parts[1:]:
            acc = self.op("wide_shl_or", (acc, as_limbs(p)), {"shift": w}, L)
        return acc, L

    def _unary(self, e: A.Unary) -> Tuple[int, int]:
        L = _limbs(e.ctx_width)
        if e.op == "!":
            b = self.emit_bool(e.operand)
            return self.op("not_bool", (b,), {}, 1), 1
        if e.op in ("~", "-", "+"):
            x = self.emit(e.operand)
            if e.op == "+":
                return x, L
            if L == 1:
                m = bv.mask(min(e.ctx_width, 64))
                opc = "bnot" if e.op == "~" else "neg"
                return self.op(opc, (x,), {"mask": m}, 1), 1
            opc = "wide_bnot" if e.op == "~" else "wide_neg"
            return self.op(opc, (x,), {"width": e.ctx_width}, L), L
        # Reductions: operand at its self-determined representation.
        x, xl = self.value(e.operand)
        if e.op in ("&", "|", "^", "~&", "~|", "~^"):
            return self.op(
                "reduce", (x,),
                {"op": e.op, "width": e.operand.width, "wide": xl > 1}, 1,
            ), 1
        raise SimulationError(f"unknown unary op {e.op!r}")

    def _binary(self, e: A.Binary) -> Tuple[int, int]:
        op = e.op
        L = _limbs(e.ctx_width)
        if op in ("&&", "||"):
            l = self.emit_bool(e.left)
            r = self.emit_bool(e.right)
            return self.op("logic", (l, r), {"op": op}, 1), 1
        if op in ("==", "===", "!=", "!==", "<", "<=", ">", ">="):
            # Comparison operands share a self-determined context.
            wide = (_limbs(e.left.ctx_width) > 1
                    or _limbs(e.right.ctx_width) > 1)
            l = self.emit(e.left)
            r = self.emit(e.right)
            return self.op(
                "compare", (l, r), {"op": op, "wide": wide}, 1
            ), 1
        if op in ("<<", "<<<", ">>", ">>>"):
            l = self.emit(e.left)
            r = self.emit_amount(e.right)
            left_shift = op in ("<<", "<<<")
            if L == 1:
                m = bv.mask(min(e.ctx_width, 64))
                return self.op(
                    "shift", (l, r),
                    {"op": "<<" if left_shift else ">>", "mask": m,
                     "wide": False}, 1,
                ), 1
            return self.op(
                "shift", (l, r),
                {"op": "<<" if left_shift else ">>", "width": e.ctx_width,
                 "wide": True}, L,
            ), L
        if L > 1 and op in ("*", "/", "%", "**"):
            raise UnsupportedFeatureError(
                f"operator {op!r} is not supported on values wider than 64 "
                f"bits (context width {e.ctx_width})"
            )
        l = self.emit(e.left)
        r = self.emit(e.right)
        known = ("+", "-", "*", "/", "%", "**", "&", "|", "^", "~^", "^~")
        if op not in known:
            raise SimulationError(f"unknown binary op {op!r}")
        if L == 1:
            m = bv.mask(min(e.ctx_width, 64))
            return self.op(
                "arith", (l, r), {"op": op, "mask": m, "wide": False}, 1
            ), 1
        return self.op(
            "arith", (l, r), {"op": op, "width": e.ctx_width, "wide": True}, L
        ), L


def _lower_node(node: RtlNode, layout: MemoryLayout, graph) -> NodeIr:
    b = _NodeBuilder(layout, graph)
    stores: List[IrStore] = []
    if node.kind in (NodeKind.COMB, NodeKind.SEQ):
        shadow = node.kind is NodeKind.SEQ
        slot = layout.slot(node.target)
        off = (
            slot.next_offset
            if shadow and slot.next_offset is not None
            else slot.offset
        )
        if slot.pool == PACKED_POOL:
            vid = b.emit_narrow(node.expr)
            stores.append(IrStore(
                kind="signal", value=vid, target=node.target,
                pool=PACKED_POOL, offset=off, limbs=1, width=1,
                shadow=shadow, packed=True,
            ))
        elif slot.limbs == 1:
            vid = b.emit_narrow(node.expr)
            stores.append(IrStore(
                kind="signal", value=vid, target=node.target,
                pool=slot.pool, offset=off, limbs=1, width=slot.width,
                shadow=shadow,
            ))
        else:
            vid = b.emit(node.expr)
            stores.append(IrStore(
                kind="signal", value=vid, target=node.target,
                pool=slot.pool, offset=off, limbs=slot.limbs,
                width=slot.width, shadow=shadow,
            ))
    elif node.kind is NodeKind.MEMW:
        sc = layout.scratch[node.nid]
        mem = graph.design.memories[node.target]
        cond = b.emit_bool(node.cond)
        stores.append(IrStore(
            kind="memw_cond", value=cond, target=node.target,
            pool=sc.cond.pool, offset=sc.cond.offset, limbs=1, width=1,
        ))
        addr = b.emit_amount(node.addr)
        stores.append(IrStore(
            kind="memw_addr", value=addr, target=node.target,
            pool=sc.addr.pool, offset=sc.addr.offset, limbs=1, width=64,
        ))
        data = b.emit_narrow(node.expr)
        stores.append(IrStore(
            kind="memw_data", value=data, target=node.target,
            pool=sc.data.pool, offset=sc.data.offset, limbs=1,
            width=mem.width,
        ))
    else:  # pragma: no cover
        raise SimulationError(f"unknown node kind {node.kind}")
    return NodeIr(
        nid=node.nid, target=node.target, kind=node.kind.value,
        ops=b.ops, stores=stores, origin=node,
    )


def build_kernel_ir(
    taskgraph: TaskGraph, layout: Optional[MemoryLayout] = None
) -> KernelIR:
    """Lower ``taskgraph`` to the backend-neutral IR.

    Uses (or builds) the same ``pack_bits=True`` layout as the fused
    numpy lowering, so bundles from different backends are layout- and
    checkpoint-compatible.  Unit order matches
    :meth:`FusedProgramCodegen.generate_source`: comb first, then the
    sequential domains in task order.
    """
    graph = taskgraph.graph
    layout = layout or MemoryLayout.from_graph(graph, pack_bits=True)

    def unit_nodes(tids: List[int]) -> List[NodeIr]:
        out = []
        for tid in tids:
            for nid in taskgraph.tasks[tid].nodes:
                out.append(_lower_node(graph.nodes[nid], layout, graph))
        return out

    comb_tids = list(taskgraph.comb_topo)
    units = [KernelUnit(
        name="fused_comb", kind="comb", domain=None, tids=comb_tids,
        nodes=unit_nodes(comb_tids),
    )]
    domains: Dict[Tuple[str, str], List[int]] = {}
    for t in taskgraph.tasks:
        if t.kind is NodeKind.SEQ:
            domains.setdefault((t.clock, t.edge), []).append(t.tid)
    for i, (dom, tids) in enumerate(domains.items()):
        units.append(KernelUnit(
            name=f"fused_seq_{i}", kind="seq", domain=dom, tids=tids,
            nodes=unit_nodes(tids),
        ))
    return KernelIR(
        top=graph.design.top,
        layout=layout,
        units=units,
        mem_writes=mem_write_bindings(graph, layout),
        taskgraph=taskgraph,
    )


def validate_ir(ir: KernelIR) -> List[str]:
    """Structural well-formedness checks; returns problem strings.

    Re-derives the invariants a backend relies on: SSA ordering, store
    placements inside their pools, exactly-once task coverage across
    units, and sequential-domain completeness.  An empty list means the
    IR is safe to interpret.
    """
    problems: List[str] = []
    layout = ir.layout
    tg = ir.taskgraph

    def check_placement(where: str, pool: int, offset: int, limbs: int,
                        packed: bool) -> None:
        if packed:
            if not (0 <= offset < layout.packed_size):
                problems.append(
                    f"{where}: packed offset {offset} outside P1 pool "
                    f"of {layout.packed_size} blocks")
            return
        if not (0 <= pool < len(layout.pool_sizes)):
            problems.append(f"{where}: pool index {pool} out of range")
            return
        if offset < 0 or offset + limbs > layout.pool_sizes[pool]:
            problems.append(
                f"{where}: offsets [{offset},{offset + limbs}) outside "
                f"pool {pool} of {layout.pool_sizes[pool]}")

    for unit in ir.units:
        for node in unit.nodes:
            where = f"{unit.name}/node{node.nid}"
            for i, op in enumerate(node.ops):
                if op.vid != i:
                    problems.append(f"{where}: op {i} has vid {op.vid}")
                if any(a >= op.vid or a < 0 for a in op.args):
                    problems.append(
                        f"{where}: op v{op.vid} ({op.opcode}) references "
                        f"a later or negative value")
                if op.opcode == "load":
                    check_placement(
                        where, op.attrs["pool"], op.attrs["offset"],
                        op.limbs, op.attrs["packed"])
            if not node.stores:
                problems.append(f"{where}: node has no stores")
            for st in node.stores:
                if not (0 <= st.value < len(node.ops)):
                    problems.append(
                        f"{where}: store of undefined value v{st.value}")
                check_placement(where, st.pool, st.offset, st.limbs,
                                st.packed)

    if tg is not None:
        seen: Dict[int, str] = {}
        for unit in ir.units:
            for tid in unit.tids:
                if tid in seen:
                    problems.append(
                        f"task {tid} lowered in both {seen[tid]} and "
                        f"{unit.name}")
                seen[tid] = unit.name
        missing = [t.tid for t in tg.tasks if t.tid not in seen]
        if missing:
            problems.append(f"tasks never lowered: {missing}")
        want_domains = {
            (t.clock, t.edge) for t in tg.tasks if t.kind is NodeKind.SEQ
        }
        have_domains = {u.domain for u in ir.units if u.kind == "seq"}
        if want_domains != have_domains:
            problems.append(
                f"sequential domains {sorted(have_domains)} do not match "
                f"the task graph's {sorted(want_domains)}")
    return problems
