"""Design-level optimizations inherited from the Verilator lineage.

The paper builds on Verilator's front end precisely to reuse its
"RTL-level optimization facilities, such as inverter pushing, module
inlining, and constant propagation".  Module inlining happens in the
elaborator and constant folding in :mod:`repro.elaborate.constfold`; this
module adds the remaining two classic passes over the lowered design:

* **copy propagation** — a combinational alias ``t = y`` (same width) is
  substituted into every reader and its node dropped (the flattener's
  port-binding assigns mostly disappear here);
* **dead-code elimination** — combinational nodes whose targets can never
  reach an output, register, memory write or clock are removed, and their
  signals deallocated (smaller pools, fewer kernels);
* **inverter pushing** — ``~~x``, ``!(a == b)`` and friends are rewritten
  into their positive forms during folding (see ``push_inverters``).

All passes preserve simulation semantics for every surviving signal; the
differential suite runs both optimized and unoptimized pipelines.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.elaborate.symexec import CombAssign, LoweredDesign, MemWrite, SeqBlock
from repro.verilog import ast_nodes as A


# ---------------------------------------------------------------------------
# Inverter pushing
# ---------------------------------------------------------------------------

_CMP_NEGATION = {
    "==": "!=", "!=": "==", "===": "!==", "!==": "===",
    "<": ">=", ">=": "<", ">": "<=", "<=": ">",
}


def push_inverters(e: A.Expr) -> A.Expr:
    """Rewrite negations into positive forms where semantics allow.

    Handled patterns (all 1-bit-safe):

    * ``!!x``            -> ``x != 0`` is preserved via ``|x`` reduction? No:
      ``!!x`` simply becomes the reduction-or of x when x is 1 bit wide is
      not knowable here, so only ``!(!x)`` with boolean-valued operand
      classes is folded;
    * ``!(a CMP b)``     -> ``a CMP' b`` (negated comparison);
    * ``~(~x)``          -> ``x`` (widths of ~ operands equal, so safe);
    * ``!(a && b)``      -> ``!a || !b`` and ``!(a || b)`` -> ``!a && !b``.
    """
    if isinstance(e, A.Unary):
        operand = push_inverters(e.operand)
        if e.op == "~" and isinstance(operand, A.Unary) and operand.op == "~":
            return operand.operand
        if e.op == "!":
            if isinstance(operand, A.Binary) and operand.op in _CMP_NEGATION:
                return A.Binary(_CMP_NEGATION[operand.op], operand.left,
                                operand.right)
            if isinstance(operand, A.Binary) and operand.op == "&&":
                return A.Binary(
                    "||",
                    push_inverters(A.Unary("!", operand.left)),
                    push_inverters(A.Unary("!", operand.right)),
                )
            if isinstance(operand, A.Binary) and operand.op == "||":
                return A.Binary(
                    "&&",
                    push_inverters(A.Unary("!", operand.left)),
                    push_inverters(A.Unary("!", operand.right)),
                )
            if isinstance(operand, A.Unary) and operand.op == "!":
                # !!x == (x != 0): keep as a comparison against zero.
                return A.Binary("!=", operand.operand, A.Number(0, None))
        return A.Unary(e.op, operand)
    if isinstance(e, A.Binary):
        return A.Binary(e.op, push_inverters(e.left), push_inverters(e.right))
    if isinstance(e, A.Ternary):
        cond = push_inverters(e.cond)
        then = push_inverters(e.then)
        other = push_inverters(e.other)
        # (!c) ? a : b  ->  c ? b : a
        if isinstance(cond, A.Unary) and cond.op == "!":
            return A.Ternary(cond.operand, other, then)
        return A.Ternary(cond, then, other)
    if isinstance(e, A.Concat):
        return A.Concat([push_inverters(p) for p in e.parts])
    if isinstance(e, A.Repeat):
        return A.Repeat(e.count, push_inverters(e.value))
    if isinstance(e, A.Index):
        return A.Index(e.base, push_inverters(e.index), e.is_memory)
    return e


# ---------------------------------------------------------------------------
# Copy propagation + dead-code elimination
# ---------------------------------------------------------------------------


def _subst_reads(e: A.Expr, aliases: Dict[str, str]) -> A.Expr:
    if isinstance(e, A.Ident):
        return A.Ident(aliases.get(e.name, e.name))
    if isinstance(e, A.Unary):
        return A.Unary(e.op, _subst_reads(e.operand, aliases))
    if isinstance(e, A.Binary):
        return A.Binary(e.op, _subst_reads(e.left, aliases),
                        _subst_reads(e.right, aliases))
    if isinstance(e, A.Ternary):
        return A.Ternary(
            _subst_reads(e.cond, aliases),
            _subst_reads(e.then, aliases),
            _subst_reads(e.other, aliases),
        )
    if isinstance(e, A.Concat):
        return A.Concat([_subst_reads(p, aliases) for p in e.parts])
    if isinstance(e, A.Repeat):
        return A.Repeat(e.count, _subst_reads(e.value, aliases))
    if isinstance(e, A.Index):
        base = aliases.get(e.base, e.base)
        return A.Index(base, _subst_reads(e.index, aliases), e.is_memory)
    if isinstance(e, A.PartSelect):
        base = aliases.get(e.base, e.base)
        return A.PartSelect(base, e.msb, e.lsb)
    if isinstance(e, A.IndexedPartSelect):
        base = aliases.get(e.base, e.base)
        return A.IndexedPartSelect(base, _subst_reads(e.start, aliases),
                                   e.part_width, e.descending)
    return e


def _resolve(aliases: Dict[str, str], name: str) -> str:
    seen = set()
    while name in aliases and name not in seen:
        seen.add(name)
        name = aliases[name]
    return name


def optimize_design(design: LoweredDesign, inverters: bool = True) -> LoweredDesign:
    """Run copy propagation + DCE (+ inverter pushing) in place-ish.

    Returns a new LoweredDesign sharing the signal objects of the input.
    """
    keep: Set[str] = {s.name for s in design.outputs}
    keep |= {s.name for s in design.inputs}
    for blk in design.seq:
        keep.add(blk.clock)
        keep |= set(blk.pseudo_async)
        for upd in blk.updates:
            keep.add(upd.target)  # registers are architectural state

    # Pass 1: collect aliases t = y with equal widths, t not kept.
    aliases: Dict[str, str] = {}
    for ca in design.comb:
        if (
            isinstance(ca.expr, A.Ident)
            and ca.target not in keep
            and ca.expr.name not in design.memories
            and ca.expr.name in design.signals
            and design.signals[ca.target].width
            == design.signals[ca.expr.name].width
        ):
            aliases[ca.target] = ca.expr.name
    # Flatten alias chains (a -> b -> c becomes a -> c).
    aliases = {t: _resolve(aliases, t) for t in aliases}

    def rewrite(e: A.Expr) -> A.Expr:
        e = _subst_reads(e, aliases)
        return push_inverters(e) if inverters else e

    comb = [
        CombAssign(ca.target, rewrite(ca.expr))
        for ca in design.comb
        if ca.target not in aliases
    ]
    seq: List[SeqBlock] = []
    for blk in design.seq:
        nb = SeqBlock(blk.clock, blk.edge, pseudo_async=list(blk.pseudo_async))
        for upd in blk.updates:
            nb.updates.append(type(upd)(upd.target, rewrite(upd.expr)))
        for mw in blk.mem_writes:
            nb.mem_writes.append(
                MemWrite(mw.mem, rewrite(mw.cond), rewrite(mw.addr),
                         rewrite(mw.data))
            )
        seq.append(nb)

    # Pass 2: liveness from outputs / seq / memw reads, backwards fixpoint.
    # Each producer's reads are computed once, on its first visit; ``live``
    # then holds every name a surviving expression reads.
    producers = {ca.target: ca for ca in comb}
    live: Set[str] = set(keep)
    for blk in seq:
        for upd in blk.updates:
            live.update(A.expr_reads(upd.expr))
        for mw in blk.mem_writes:
            live.update(A.expr_reads(mw.cond))
            live.update(A.expr_reads(mw.addr))
            live.update(A.expr_reads(mw.data))
    worklist = [s for s in live if s in producers]
    visited: Set[str] = set()
    while worklist:
        name = worklist.pop()
        if name in visited:
            continue
        visited.add(name)
        reads = set(A.expr_reads(producers[name].expr))
        live |= reads
        worklist.extend(r for r in reads if r in producers and r not in visited)

    comb = [ca for ca in comb if ca.target in live]
    signals = {name: sig for name, sig in design.signals.items() if name in live}

    return LoweredDesign(
        top=design.top,
        signals=signals,
        memories=design.memories,
        comb=comb,
        seq=seq,
        n_cells=design.n_cells,
        filename=design.filename,
    )
