"""Always-block lowering via symbolic execution.

Full-cycle simulators (Verilator, and the paper's RTLflow) turn procedural
code into straight-line assignments.  This module performs that lowering:

* combinational ``always @*`` blocks and continuous assigns become one
  mux-tree expression per driven signal (:class:`CombAssign`);
* sequential ``always @(posedge clk)`` blocks become per-register
  next-state expressions (:class:`SeqUpdate`) plus an ordered list of
  guarded memory writes (:class:`MemWrite`), all with correct
  blocking/non-blocking semantics.

The result, :class:`LoweredDesign`, is the input to width annotation,
RTL-graph construction and every code generator in the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.elaborate.constfold import eval_const, fold_expr, try_const
from repro.elaborate.elaborator import FlatDesign, Memory, Signal
from repro.utils.errors import ElaborationError, UnsupportedFeatureError
from repro.verilog import ast_nodes as A

_CLOCK_NAME_RE = re.compile(r"(^|[._])(clk|clock|ck)\w*$", re.IGNORECASE)


@dataclass
class CombAssign:
    """``target = expr`` — one combinational driver for a full signal."""

    target: str
    expr: A.Expr


@dataclass
class SeqUpdate:
    """``target <= expr`` at a clock edge (expr reads pre-edge state)."""

    target: str
    expr: A.Expr


@dataclass
class MemWrite:
    """A guarded memory write ``if (cond) mem[addr] <= data`` at an edge.

    Writes are applied in program order, so a later write to the same
    address in the same block wins — matching non-blocking semantics.
    """

    mem: str
    cond: A.Expr
    addr: A.Expr
    data: A.Expr


@dataclass
class SeqBlock:
    """One lowered sequential always block."""

    clock: str
    edge: str  # 'posedge' | 'negedge'
    updates: List[SeqUpdate] = field(default_factory=list)
    mem_writes: List[MemWrite] = field(default_factory=list)
    # Additional edge events in the sensitivity list (async resets).  We
    # simulate them synchronously; see DESIGN.md §5.
    pseudo_async: List[str] = field(default_factory=list)


@dataclass
class LoweredDesign:
    """Flat design with all procedural code lowered to assignments."""

    top: str
    signals: Dict[str, Signal]
    memories: Dict[str, Memory]
    comb: List[CombAssign]
    seq: List[SeqBlock]
    n_cells: int = 0
    filename: str = "<input>"

    @property
    def inputs(self) -> List[Signal]:
        return [s for s in self.signals.values() if s.kind == "input"]

    @property
    def outputs(self) -> List[Signal]:
        return [s for s in self.signals.values() if s.kind == "output"]

    def clocks(self) -> List[str]:
        out = []
        for blk in self.seq:
            if blk.clock not in out:
                out.append(blk.clock)
        return out


# ---------------------------------------------------------------------------
# Expression utilities
# ---------------------------------------------------------------------------


def _mask_const(width: int) -> A.Number:
    return A.Number((1 << width) - 1, None)


def _clone(e: A.Expr) -> A.Expr:
    """A fresh copy of the tree under ``e`` (annotation fields unset)."""
    t = type(e)
    if t is A.Number:
        return A.Number(e.value, e.size, e.xz_mask)
    if t is A.Ident:
        return A.Ident(e.name)
    if t is A.Unary:
        return A.Unary(e.op, _clone(e.operand))
    if t is A.Binary:
        return A.Binary(e.op, _clone(e.left), _clone(e.right))
    if t is A.Ternary:
        return A.Ternary(_clone(e.cond), _clone(e.then), _clone(e.other))
    if t is A.Concat:
        return A.Concat([_clone(p) for p in e.parts])
    if t is A.Repeat:
        return A.Repeat(_clone(e.count), _clone(e.value))
    if t is A.Index:
        return A.Index(e.base, _clone(e.index), e.is_memory)
    if t is A.PartSelect:
        return A.PartSelect(e.base, _clone(e.msb), _clone(e.lsb))
    if t is A.IndexedPartSelect:
        return A.IndexedPartSelect(
            e.base, _clone(e.start), _clone(e.part_width), e.descending
        )
    if t is A.FuncCall:
        return A.FuncCall(e.name, [_clone(a) for a in e.args], e.resolved)
    raise ElaborationError(f"cannot clone {t.__name__}")


# Child slots of each node type; Concat.parts / FuncCall.args are lists.
_SLOTS = {
    A.Unary: ("operand",),
    A.Binary: ("left", "right"),
    A.Ternary: ("cond", "then", "other"),
    A.Repeat: ("count", "value"),
    A.Index: ("index",),
    A.PartSelect: ("msb", "lsb"),
    A.IndexedPartSelect: ("start", "part_width"),
}


def _unshare(root: A.Expr, seen: Set[int]) -> A.Expr:
    """Return ``root`` as a tree none of whose nodes is in ``seen``.

    Symbolic execution shares subtrees instead of copying them; width
    annotation then writes ``width``/``ctx_width`` in place, so a node
    reached twice (``seen`` holds the ids of every node reached so far
    in the design) is replaced by a clone.  Linear in the result.
    """
    if id(root) in seen:
        return _clone(root)
    seen.add(id(root))
    stack = [root]
    while stack:
        n = stack.pop()
        slots = _SLOTS.get(type(n))
        if slots is not None:
            for name in slots:
                c = getattr(n, name)
                if id(c) in seen:
                    setattr(n, name, _clone(c))
                else:
                    seen.add(id(c))
                    stack.append(c)
        elif type(n) is A.Concat or type(n) is A.FuncCall:
            items = n.parts if type(n) is A.Concat else n.args
            for i, c in enumerate(items):
                if id(c) in seen:
                    items[i] = _clone(c)
                else:
                    seen.add(id(c))
                    stack.append(c)
    return root


class _Lowerer:
    def __init__(self, design: FlatDesign):
        self.design = design
        self._call_depth = 0

    # -- function inlining -----------------------------------------------------

    _MAX_CALL_DEPTH = 32

    def _inline_call(self, e: A.FuncCall, env: Dict[str, A.Expr]) -> A.Expr:
        """Inline a function call: symbolically execute the body with the
        actuals (evaluated in the caller's blocking environment) bound to
        the formals, and return the accumulated return-value expression."""
        fdef = self.design.functions.get(e.resolved)
        if fdef is None:
            raise ElaborationError(f"call to unknown function {e.name!r}")
        if len(e.args) != len(fdef.formals):
            raise ElaborationError(
                f"function {e.name!r} takes {len(fdef.formals)} arguments, "
                f"got {len(e.args)}"
            )
        if self._call_depth >= self._MAX_CALL_DEPTH:
            raise ElaborationError(
                f"function call depth exceeds {self._MAX_CALL_DEPTH} "
                f"(recursive function {e.name!r}?)"
            )
        env_f: Dict[str, A.Expr] = dict(env)
        for formal, width, arg in zip(fdef.formals, fdef.formal_widths, e.args):
            actual = self.subst(arg, env)
            # Verilog truncates the actual at the formal's width.
            env_f[formal] = A.Binary(
                "&", actual, A.Number((1 << width) - 1, None)
            )
        for lname in fdef.locals_:
            env_f[lname] = A.Number(0, None)
        env_f[fdef.ret] = A.Number(0, None)
        self._call_depth += 1
        try:
            # Functions are purely combinational: no NBA, no memory writes.
            self.exec_stmt(fdef.body, env_f, {}, [], [], sequential=False)
        finally:
            self._call_depth -= 1
        result = env_f[fdef.ret]
        return A.Binary(
            "&", result, A.Number((1 << fdef.ret_width) - 1, None)
        )

    # -- reads ---------------------------------------------------------------

    def subst(self, e: A.Expr, env: Dict[str, A.Expr]) -> A.Expr:
        """Substitute blocking-assignment values into a read expression.

        Nodes of the result are fresh except the ``env`` values, which
        are shared, not copied (see :func:`_unshare`).
        """
        if isinstance(e, A.Number):
            return A.Number(e.value, e.size, e.xz_mask)
        if isinstance(e, A.Ident):
            if e.name in env:
                return env[e.name]
            return A.Ident(e.name)
        if isinstance(e, A.FuncCall):
            return self._inline_call(e, env)
        if isinstance(e, A.Unary):
            return A.Unary(e.op, self.subst(e.operand, env))
        if isinstance(e, A.Binary):
            return A.Binary(e.op, self.subst(e.left, env), self.subst(e.right, env))
        if isinstance(e, A.Ternary):
            return A.Ternary(
                self.subst(e.cond, env),
                self.subst(e.then, env),
                self.subst(e.other, env),
            )
        if isinstance(e, A.Concat):
            return A.Concat([self.subst(p, env) for p in e.parts])
        if isinstance(e, A.Repeat):
            return A.Repeat(self.subst(e.count, env), self.subst(e.value, env))
        if isinstance(e, A.Index):
            idx = self.subst(e.index, env)
            if e.base in self.design.memories:
                return A.Index(e.base, idx, is_memory=True)
            if e.base in env:
                # Bit select of a blocking-assigned value: (val >> i) & 1.
                return A.Binary(
                    "&", A.Binary(">>", env[e.base], idx), A.Number(1, None)
                )
            return A.Index(e.base, idx)
        if isinstance(e, A.PartSelect):
            if e.base in env:
                lsb = eval_const(e.lsb)
                msb = eval_const(e.msb)
                return A.Binary(
                    "&",
                    A.Binary(">>", env[e.base], A.Number(lsb, None)),
                    _mask_const(msb - lsb + 1),
                )
            return A.PartSelect(e.base, self.subst(e.msb, env), self.subst(e.lsb, env))
        if isinstance(e, A.IndexedPartSelect):
            if e.base in env:
                w = eval_const(e.part_width)
                start = self.subst(e.start, env)
                if e.descending:
                    start = A.Binary("-", start, A.Number(w - 1, None))
                return A.Binary(
                    "&",
                    A.Binary(">>", env[e.base], start),
                    _mask_const(w),
                )
            return A.IndexedPartSelect(
                e.base, self.subst(e.start, env), self.subst(e.part_width, env), e.descending
            )
        raise ElaborationError(f"cannot substitute {type(e).__name__}")

    # -- writes ----------------------------------------------------------------

    def _sig(self, name: str) -> Signal:
        try:
            return self.design.signals[name]
        except KeyError:
            raise ElaborationError(f"assignment to undeclared signal {name!r}")

    def _current(self, view: Dict[str, A.Expr], name: str) -> A.Expr:
        if name in view:
            return view[name]
        return A.Ident(name)

    def store(self, lhs: A.Expr, val: A.Expr, view: Dict[str, A.Expr]) -> None:
        """Apply an assignment to ``view`` (read-modify-write for selects)."""
        if isinstance(lhs, A.Ident):
            view[lhs.name] = val
            return
        if isinstance(lhs, A.Index):
            if lhs.base in self.design.memories:
                raise ElaborationError(
                    "internal: memory writes must be routed through store_mem"
                )
            sig = self._sig(lhs.base)
            # L-value selects belong to the elaborated AST: clone them so
            # that width annotation never writes into the flat design.
            pos = A.Binary("-", _clone(lhs.index), A.Number(sig.lsb, None)) \
                if sig.lsb else _clone(lhs.index)
            old = self._current(view, lhs.base)
            bitmask = A.Binary("<<", A.Number(1, None), pos)
            cleared = A.Binary("&", old, A.Unary("~", bitmask))
            setbit = A.Binary(
                "<<", A.Binary("&", val, A.Number(1, None)), pos
            )
            view[lhs.base] = A.Binary("|", cleared, setbit)
            return
        if isinstance(lhs, A.PartSelect):
            sig = self._sig(lhs.base)
            msb = eval_const(lhs.msb) - sig.lsb
            lsb = eval_const(lhs.lsb) - sig.lsb
            w = msb - lsb + 1
            old = self._current(view, lhs.base)
            clear = A.Number(
                (((1 << sig.width) - 1) ^ (((1 << w) - 1) << lsb)), None
            )
            cleared = A.Binary("&", old, clear)
            part = A.Binary(
                "<<", A.Binary("&", val, _mask_const(w)), A.Number(lsb, None)
            )
            view[lhs.base] = A.Binary("|", cleared, part)
            return
        if isinstance(lhs, A.IndexedPartSelect):
            sig = self._sig(lhs.base)
            w = eval_const(lhs.part_width)
            start = _clone(lhs.start)
            if lhs.descending:
                start = A.Binary("-", start, A.Number(w - 1, None))
            if sig.lsb:
                start = A.Binary("-", start, A.Number(sig.lsb, None))
            old = self._current(view, lhs.base)
            maskshift = A.Binary("<<", _mask_const(w), start)
            cleared = A.Binary("&", old, A.Unary("~", maskshift))
            part = A.Binary(
                "<<", A.Binary("&", val, _mask_const(w)), start
            )
            view[lhs.base] = A.Binary("|", cleared, part)
            return
        if isinstance(lhs, A.Concat):
            widths = []
            for p in lhs.parts:
                widths.append(self._lvalue_width(p))
            total = sum(widths)
            pos = total
            for p, w in zip(lhs.parts, widths):
                pos -= w
                piece = A.Binary(
                    "&", A.Binary(">>", val, A.Number(pos, None)), _mask_const(w)
                )
                self.store(p, piece, view)
            return
        raise ElaborationError(f"invalid l-value {type(lhs).__name__}")

    def _lvalue_width(self, lv: A.Expr) -> int:
        if isinstance(lv, A.Ident):
            return self._sig(lv.name).width
        if isinstance(lv, A.Index):
            return 1
        if isinstance(lv, A.PartSelect):
            return eval_const(lv.msb) - eval_const(lv.lsb) + 1
        if isinstance(lv, A.IndexedPartSelect):
            return eval_const(lv.part_width)
        if isinstance(lv, A.Concat):
            return sum(self._lvalue_width(p) for p in lv.parts)
        raise ElaborationError(f"invalid l-value {type(lv).__name__}")

    # -- statements ---------------------------------------------------------

    def exec_stmt(
        self,
        stmt: A.Stmt,
        env: Dict[str, A.Expr],
        nba: Dict[str, A.Expr],
        memw: List[MemWrite],
        path: List[A.Expr],
        sequential: bool,
    ) -> None:
        if isinstance(stmt, A.Block):
            for s in stmt.stmts:
                self.exec_stmt(s, env, nba, memw, path, sequential)
            return
        if isinstance(stmt, A.BlockingAssign):
            if isinstance(stmt.lhs, A.Index) and stmt.lhs.base in self.design.memories:
                raise UnsupportedFeatureError(
                    f"blocking writes to memory {stmt.lhs.base!r} are not supported; "
                    "use '<=' in a clocked block"
                )
            val = self.subst(stmt.rhs, env)
            self.store(stmt.lhs, val, env)
            return
        if isinstance(stmt, A.NonBlockingAssign):
            if not sequential:
                raise UnsupportedFeatureError(
                    "non-blocking assignment in a combinational block"
                )
            val = self.subst(stmt.rhs, env)
            if isinstance(stmt.lhs, A.Index) and stmt.lhs.base in self.design.memories:
                cond = self._conj(path)
                addr = self.subst(stmt.lhs.index, env)
                memw.append(MemWrite(stmt.lhs.base, cond, addr, val))
                return
            self.store(stmt.lhs, val, nba)
            return
        if isinstance(stmt, A.If):
            cond = self.subst(stmt.cond, env)
            self._branch(
                cond,
                stmt.then,
                stmt.other,
                env,
                nba,
                memw,
                path,
                sequential,
            )
            return
        if isinstance(stmt, A.Case):
            self._exec_case(stmt, env, nba, memw, path, sequential)
            return
        if isinstance(stmt, A.For):
            self._exec_for(stmt, env, nba, memw, path, sequential)
            return
        raise ElaborationError(f"cannot lower statement {type(stmt).__name__}")

    _MAX_UNROLL = 4096

    def _exec_for(
        self,
        stmt: A.For,
        env: Dict[str, A.Expr],
        nba: Dict[str, A.Expr],
        memw: List[MemWrite],
        path: List[A.Expr],
        sequential: bool,
    ) -> None:
        """Fully unroll a constant-bounded for loop.

        The loop variable is driven through the blocking environment as a
        constant per iteration, so body statements that index with it fold
        to static selects (note: comparisons are unsigned two-state —
        count upward with ``<`` bounds).
        """
        sig = self.design.signals.get(stmt.var)
        if sig is None:
            raise ElaborationError(
                f"for-loop variable {stmt.var!r} is not declared "
                "(declare it as `integer` or a reg)"
            )
        from repro.utils import bitvec as _bv

        m = _bv.mask(sig.width)
        value = try_const(self.subst(stmt.init, env))
        if value is None:
            raise UnsupportedFeatureError(
                "for-loop initial value must be elaboration-time constant"
            )
        env[stmt.var] = A.Number(value & m, None)
        iters = 0
        while True:
            cond = try_const(self.subst(stmt.cond, env))
            if cond is None:
                raise UnsupportedFeatureError(
                    "for-loop condition must fold to a constant each "
                    "iteration (did the body assign the loop variable?)"
                )
            if not cond:
                break
            try:
                self.exec_stmt(stmt.body, env, nba, memw, path, sequential)
            except RecursionError:
                raise ElaborationError(
                    f"unrolling the for loop over {stmt.var!r} produced "
                    "expressions too deep to lower (unsigned-wrapping "
                    "condition, or an accumulation that never terminates?)"
                )
            nxt = try_const(self.subst(stmt.step, env))
            if nxt is None:
                raise UnsupportedFeatureError(
                    "for-loop step must fold to a constant each iteration"
                )
            env[stmt.var] = A.Number(nxt & m, None)
            iters += 1
            if iters > self._MAX_UNROLL:
                raise ElaborationError(
                    f"for-loop exceeds {self._MAX_UNROLL} iterations; "
                    "is the condition unsigned-wrapping?"
                )

    def _branch(
        self,
        cond: A.Expr,
        then_stmt: Optional[A.Stmt],
        else_stmt: Optional[A.Stmt],
        env: Dict[str, A.Expr],
        nba: Dict[str, A.Expr],
        memw: List[MemWrite],
        path: List[A.Expr],
        sequential: bool,
    ) -> None:
        # Constant conditions collapse to one branch (common after
        # parameter substitution).
        cval = try_const(cond)
        if cval is not None:
            taken = then_stmt if cval else else_stmt
            if taken is not None:
                self.exec_stmt(taken, env, nba, memw, path, sequential)
            return

        t_env, t_nba = dict(env), dict(nba)
        e_env, e_nba = dict(env), dict(nba)
        if then_stmt is not None:
            self.exec_stmt(
                then_stmt, t_env, t_nba, memw, path + [cond], sequential
            )
        if else_stmt is not None:
            self.exec_stmt(
                else_stmt, e_env, e_nba, memw, path + [A.Unary("!", cond)],
                sequential,
            )
        self._merge(cond, env, t_env, e_env)
        self._merge(cond, nba, t_nba, e_nba)

    def _merge(
        self,
        cond: A.Expr,
        base: Dict[str, A.Expr],
        t: Dict[str, A.Expr],
        e: Dict[str, A.Expr],
    ) -> None:
        # Insertion-ordered union: this order becomes the SeqBlock update
        # order, hence graph.seq_nodes, the partition and the generated
        # source — a set here would make all of them hash-seed dependent.
        for k in dict.fromkeys((*t, *e)):
            tv = t.get(k)
            ev = e.get(k)
            old = base.get(k)
            if tv is ev is None:
                continue
            default = old if old is not None else A.Ident(k)
            tval = tv if tv is not None else default
            eval_ = ev if ev is not None else default
            base[k] = tval if tval is eval_ else A.Ternary(cond, tval, eval_)

    def _exec_case(
        self,
        stmt: A.Case,
        env: Dict[str, A.Expr],
        nba: Dict[str, A.Expr],
        memw: List[MemWrite],
        path: List[A.Expr],
        sequential: bool,
    ) -> None:
        subject = self.subst(stmt.subject, env)
        default_body: Optional[A.Stmt] = None
        chain: List[Tuple[A.Expr, A.Stmt]] = []
        for item in stmt.items:
            if not item.labels:
                if default_body is not None:
                    raise ElaborationError("multiple default labels in case")
                default_body = item.body
                continue
            conds: List[A.Expr] = []
            for label in item.labels:
                lab = self.subst(label, env)
                if stmt.casez and isinstance(lab, A.Number) and lab.xz_mask:
                    care = ~lab.xz_mask
                    conds.append(
                        A.Binary(
                            "==",
                            A.Binary("&", subject, A.Number(care & _care_mask(lab), None)),
                            A.Number(lab.value & care, None),
                        )
                    )
                else:
                    conds.append(A.Binary("==", subject, lab))
            cond = conds[0]
            for extra in conds[1:]:
                cond = A.Binary("||", cond, extra)
            chain.append((cond, item.body))

        def build(i: int, env_, nba_, path_):
            if i >= len(chain):
                if default_body is not None:
                    self.exec_stmt(default_body, env_, nba_, memw, path_, sequential)
                return
            cond, body = chain[i]
            cval = try_const(cond)
            if cval is not None:
                if cval:
                    self.exec_stmt(body, env_, nba_, memw, path_, sequential)
                else:
                    build(i + 1, env_, nba_, path_)
                return
            t_env, t_nba = dict(env_), dict(nba_)
            e_env, e_nba = dict(env_), dict(nba_)
            self.exec_stmt(body, t_env, t_nba, memw, path_ + [cond], sequential)
            build(i + 1, e_env, e_nba, path_ + [A.Unary("!", cond)])
            self._merge(cond, env_, t_env, e_env)
            self._merge(cond, nba_, t_nba, e_nba)
            for k in t_env:
                if k not in env_:
                    env_[k] = t_env[k]
            for k in t_nba:
                if k not in nba_:
                    nba_[k] = t_nba[k]

        build(0, env, nba, path)

    def _conj(self, path: List[A.Expr]) -> A.Expr:
        if not path:
            return A.Number(1, 1)
        cond = path[0]
        for p in path[1:]:
            cond = A.Binary("&&", cond, p)
        return cond


def _care_mask(lab: A.Number) -> int:
    width = lab.size if lab.size else max(32, lab.value.bit_length() or 1)
    return (1 << width) - 1


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _pick_clock(events: List[A.EdgeEvent]) -> Tuple[A.EdgeEvent, List[str]]:
    """Choose the clock among sensitivity events; others become pseudo-async."""
    for ev in events:
        if _CLOCK_NAME_RE.search(ev.signal):
            rest = [e.signal for e in events if e is not ev]
            return ev, rest
    return events[0], [e.signal for e in events[1:]]


def lower(flat: FlatDesign) -> LoweredDesign:
    """Lower a flat design's procedural code to assignments."""
    lw = _Lowerer(flat)
    comb: List[CombAssign] = []
    seq: List[SeqBlock] = []

    for lhs, rhs in flat.assigns:
        if not isinstance(lhs, A.Ident):  # elaborator guarantees this
            raise ElaborationError("continuous assign target must be a signal")
        # subst with an empty environment inlines any function calls.
        comb.append(CombAssign(lhs.name, fold_expr(lw.subst(rhs, {}))))

    for raw in flat.always:
        env: Dict[str, A.Expr] = {}
        nba: Dict[str, A.Expr] = {}
        memw: List[MemWrite] = []
        lw.exec_stmt(raw.body, env, nba, memw, [], sequential=raw.is_sequential)
        if raw.is_sequential:
            clock_ev, pseudo = _pick_clock(raw.events)
            block = SeqBlock(clock_ev.signal, clock_ev.edge, pseudo_async=pseudo)
            overlap = set(env) & set(nba)
            if overlap:
                raise UnsupportedFeatureError(
                    "signals assigned with both '=' and '<=' in one block: "
                    + ", ".join(sorted(overlap))
                )
            for target, expr in {**env, **nba}.items():
                if target in flat.memories:
                    raise ElaborationError(f"memory {target!r} assigned as scalar")
                block.updates.append(SeqUpdate(target, fold_expr(expr)))
            block.mem_writes = [
                MemWrite(w.mem, fold_expr(w.cond), fold_expr(w.addr), fold_expr(w.data))
                for w in memw
            ]
            seq.append(block)
        else:
            if memw:
                raise UnsupportedFeatureError(
                    "memory writes are only supported in clocked blocks"
                )
            for target, expr in env.items():
                comb.append(CombAssign(target, fold_expr(expr)))

    # Duplicate-driver check: each signal may have exactly one comb driver.
    seen: Dict[str, int] = {}
    for ca in comb:
        seen[ca.target] = seen.get(ca.target, 0) + 1
    dupes = sorted(name for name, cnt in seen.items() if cnt > 1)
    if dupes:
        raise ElaborationError(
            "multiple combinational drivers for: " + ", ".join(dupes)
        )

    # A register must have exactly one sequential driver block.
    seq_seen: Dict[str, int] = {}
    for blk in seq:
        for u in blk.updates:
            seq_seen[u.target] = seq_seen.get(u.target, 0) + 1
    seq_dupes = sorted(t for t, c in seq_seen.items() if c > 1)
    if seq_dupes:
        raise ElaborationError(
            "registers driven from multiple always blocks: " + ", ".join(seq_dupes)
        )

    # A signal must not be driven both combinationally and sequentially.
    seq_targets = {u.target for blk in seq for u in blk.updates}
    both = sorted(seq_targets & set(seen))
    if both:
        raise ElaborationError(
            "signals driven by both comb and seq logic: " + ", ".join(both)
        )

    # Expressions may share subtrees up to here; the returned design holds
    # trees (the ids in ``reached`` stay valid: every node is still
    # referenced).
    reached: Set[int] = set()
    for ca in comb:
        ca.expr = _unshare(ca.expr, reached)
    for blk in seq:
        for upd in blk.updates:
            upd.expr = _unshare(upd.expr, reached)
        for mw in blk.mem_writes:
            mw.cond = _unshare(mw.cond, reached)
            mw.addr = _unshare(mw.addr, reached)
            mw.data = _unshare(mw.data, reached)

    return LoweredDesign(
        top=flat.top,
        signals=flat.signals,
        memories=flat.memories,
        comb=comb,
        seq=seq,
        n_cells=flat.n_cells,
        filename=flat.filename,
    )
