"""The bundled lint rule pack.

Each rule is a function from a :class:`LintContext` to an iterable of
:class:`~repro.lint.diagnostics.Diagnostic`, registered under a stable
rule id with a default severity.  Rules run against the artifacts the
front end already produces:

* ``flat`` — the elaborated :class:`~repro.elaborate.elaborator.FlatDesign`
  (typed AST statements, pre-lowering), used by the width and
  multi-driver rules so findings map to source constructs;
* ``lowered`` — the *unoptimized*
  :class:`~repro.elaborate.symexec.LoweredDesign`, used by the
  structural rules (the same node/edge shape
  :func:`repro.rtlir.build.build_graph` builds — lint mirrors its edge
  construction so it can report cycles build_graph would reject);
* ``optimized`` / ``graph`` — the optimizer's output and the final
  :class:`~repro.rtlir.graph.RtlGraph` when available, used to
  cross-check dead logic against the DCE pass.

Rules never mutate the design and never require width annotation — the
``_natural_width`` walker below computes conservative self-determined
widths without touching node fields, so lint can run on designs the
width annotator would reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.elaborate.constfold import try_const
from repro.elaborate.elaborator import FlatDesign
from repro.elaborate.symexec import LoweredDesign
from repro.lint.diagnostics import Diagnostic, Severity, SourceLoc
from repro.rtlir.graph import RtlGraph
from repro.verilog import ast_nodes as A

# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    rule_id: str
    severity: Severity
    summary: str
    stage: str  # 'flat' | 'lowered'
    fn: Callable[["LintContext"], Iterable[Diagnostic]]


RULES: Dict[str, Rule] = {}

# Pipeline failures surfaced as diagnostics (not callable rules).
PASSTHROUGH_RULES = {
    "syntax": "the source failed to lex/parse",
    "elab": "elaboration or lowering failed",
}


def rule(rule_id: str, severity: Severity, stage: str, summary: str):
    def deco(fn):
        RULES[rule_id] = Rule(rule_id, severity, summary, stage, fn)
        return fn

    return deco


def all_rules() -> List[Rule]:
    return [RULES[k] for k in sorted(RULES)]


# ---------------------------------------------------------------------------
# Context
# ---------------------------------------------------------------------------


@dataclass
class LintContext:
    """Everything a rule may inspect.  Later-stage fields are ``None``
    when the pipeline failed before producing them."""

    top: str
    filename: str = "<input>"
    unit: Optional[A.SourceUnit] = None
    flat: Optional[FlatDesign] = None
    lowered: Optional[LoweredDesign] = None  # pre-optimization
    optimized: Optional[LoweredDesign] = None
    graph: Optional[RtlGraph] = None
    # Verifier stages (see repro.verify): the partitioned TaskGraph and
    # the CompiledModel.  Kept untyped to avoid importing the heavy
    # partition/codegen modules for plain lint runs.
    taskgraph: Optional[object] = None
    model: Optional[object] = None
    _synthetic: Optional[Set[str]] = field(default=None, repr=False)
    _kb_env: Optional[Dict[str, object]] = field(default=None, repr=False)
    _reads: Optional[Set[str]] = field(default=None, repr=False)
    _edges: Optional[tuple] = field(default=None, repr=False)

    # -- helpers shared by rules -------------------------------------------

    def loc_of(self, name: str) -> Optional[SourceLoc]:
        """Declaration location of a flat signal or memory, if known."""
        design = self.flat or self.lowered
        if design is None:
            return None
        obj = design.signals.get(name) or design.memories.get(name)
        if obj is None or not obj.line:
            return None
        return SourceLoc(self.filename, obj.line, obj.col)

    def synthetic_names(self) -> Set[str]:
        """Names the toolchain invented (concat temps, split pieces,
        function formals/returns/locals) — never user-actionable."""
        if self._synthetic is None:
            syn: Set[str] = set()
            if self.flat is not None:
                for fn in self.flat.functions.values():
                    syn.add(fn.ret)
                    syn.update(fn.formals)
                    syn.update(fn.locals_)
            if self.flat is not None:
                # Loop variables are consumed by unrolling; after lowering
                # they look like dead state but are not user-actionable.
                for raw in self.flat.always:
                    syn.update(_walk_for_vars(raw.body))
            design = self.flat or self.lowered
            if design is not None:
                for name in design.signals:
                    if name.startswith("__t") or "$" in name:
                        syn.add(name)
            self._synthetic = syn
        return self._synthetic

    def display_name(self, name: str) -> str:
        """User-facing form of a flat name (split pieces map back to the
        driven range of their base signal)."""
        if "$" in name:
            base, _, tail = name.partition("$")
            lsb, _, width = tail.partition("+")
            try:
                lo = int(lsb)
                hi = lo + int(width) - 1
                return f"{base}[{hi}:{lo}]"
            except ValueError:
                return base
        return name

    def design_reads(self) -> Set[str]:
        """Cached :func:`_all_design_reads` of ``lowered``."""
        if self._reads is None:
            assert self.lowered is not None
            self._reads = _all_design_reads(self.lowered)
        return self._reads

    def comb_edges(self):
        """Cached :func:`_comb_edges` of ``lowered``."""
        if self._edges is None:
            assert self.lowered is not None
            self._edges = _comb_edges(self.lowered)
        return self._edges

    def knownbits_env(self) -> Dict[str, object]:
        """Cached known-bits facts per signal (requires ``graph``)."""
        if self._kb_env is None:
            from repro.verify.knownbits import analyze_graph

            self._kb_env = analyze_graph(self.graph)
        return self._kb_env


# ---------------------------------------------------------------------------
# Natural (self-determined) widths without annotation
# ---------------------------------------------------------------------------

_CMP_OPS = {"==", "!=", "===", "!==", "<", "<=", ">", ">="}
_LOGICAL = {"&&", "||"}
_SHIFTS = {"<<", ">>", "<<<", ">>>"}


def _natural_width(e: A.Expr, design) -> Optional[int]:
    """Self-determined width of ``e`` with unsized literals at their
    minimal width (so ``a + 1`` is not inflated to 32 bits the way
    formal Verilog sizing would — the point is catching *real* value
    loss, not integer-promotion pedantry).  ``None`` = unknown; callers
    must skip the check."""
    if isinstance(e, A.Number):
        if e.size is not None:
            return e.size
        return max(1, e.value.bit_length())
    if isinstance(e, A.Ident):
        sig = design.signals.get(e.name)
        return sig.width if sig is not None else None
    if isinstance(e, A.Unary):
        if e.op in ("~", "-", "+"):
            return _natural_width(e.operand, design)
        return 1  # reductions and !
    if isinstance(e, A.Binary):
        lw = _natural_width(e.left, design)
        rw = _natural_width(e.right, design)
        if e.op in _CMP_OPS or e.op in _LOGICAL:
            return 1
        if e.op in _SHIFTS or e.op == "**":
            return lw
        if lw is None or rw is None:
            return None
        return max(lw, rw)
    if isinstance(e, A.Ternary):
        tw = _natural_width(e.then, design)
        ow = _natural_width(e.other, design)
        if tw is None or ow is None:
            return None
        return max(tw, ow)
    if isinstance(e, A.Concat):
        total = 0
        for p in e.parts:
            w = _natural_width(p, design)
            if w is None:
                return None
            total += w
        return total
    if isinstance(e, A.Repeat):
        count = try_const(e.count)
        vw = _natural_width(e.value, design)
        if count is None or vw is None or count <= 0:
            return None
        return count * vw
    if isinstance(e, A.Index):
        if e.base in design.memories:
            return design.memories[e.base].width
        return 1 if e.base in design.signals else None
    if isinstance(e, A.PartSelect):
        msb = try_const(e.msb)
        lsb = try_const(e.lsb)
        if msb is None or lsb is None or msb < lsb:
            return None
        return msb - lsb + 1
    if isinstance(e, A.IndexedPartSelect):
        return try_const(e.part_width)
    if isinstance(e, A.FuncCall):
        fns = getattr(design, "functions", None)
        if fns and e.resolved in fns:
            return fns[e.resolved].ret_width
        return None
    return None


def _lvalue_bases(lhs: A.Expr) -> List[str]:
    """Base signal/memory names assigned by an l-value."""
    if isinstance(lhs, A.Ident):
        return [lhs.name]
    if isinstance(lhs, (A.Index, A.PartSelect, A.IndexedPartSelect)):
        return [lhs.base]
    if isinstance(lhs, A.Concat):
        out: List[str] = []
        for p in lhs.parts:
            out.extend(_lvalue_bases(p))
        return out
    return []


def _lvalue_width(lhs: A.Expr, design) -> Optional[int]:
    if isinstance(lhs, A.Ident):
        sig = design.signals.get(lhs.name)
        return sig.width if sig is not None else None
    if isinstance(lhs, A.Index):
        if lhs.base in design.memories:
            return design.memories[lhs.base].width
        return 1
    if isinstance(lhs, A.PartSelect):
        msb = try_const(lhs.msb)
        lsb = try_const(lhs.lsb)
        if msb is None or lsb is None or msb < lsb:
            return None
        return msb - lsb + 1
    if isinstance(lhs, A.IndexedPartSelect):
        return try_const(lhs.part_width)
    if isinstance(lhs, A.Concat):
        total = 0
        for p in lhs.parts:
            w = _lvalue_width(p, design)
            if w is None:
                return None
            total += w
        return total
    return None


def _walk_stmt_assigns(stmt: A.Stmt):
    """Yield every (lhs, rhs, blocking) assignment in a statement tree."""
    if isinstance(stmt, A.Block):
        for s in stmt.stmts:
            yield from _walk_stmt_assigns(s)
    elif isinstance(stmt, A.BlockingAssign):
        yield stmt.lhs, stmt.rhs, True
    elif isinstance(stmt, A.NonBlockingAssign):
        yield stmt.lhs, stmt.rhs, False
    elif isinstance(stmt, A.If):
        yield from _walk_stmt_assigns(stmt.then)
        if stmt.other is not None:
            yield from _walk_stmt_assigns(stmt.other)
    elif isinstance(stmt, A.Case):
        for item in stmt.items:
            yield from _walk_stmt_assigns(item.body)
    elif isinstance(stmt, A.For):
        yield from _walk_stmt_assigns(stmt.body)


def _all_design_reads(design: LoweredDesign) -> Set[str]:
    """Every signal/memory name read by any surviving expression."""
    reads: Set[str] = set()
    for ca in design.comb:
        reads.update(A.expr_reads(ca.expr))
    for blk in design.seq:
        for upd in blk.updates:
            reads.update(A.expr_reads(upd.expr))
        for mw in blk.mem_writes:
            reads.update(A.expr_reads(mw.cond))
            reads.update(A.expr_reads(mw.addr))
            reads.update(A.expr_reads(mw.data))
    return reads


# ---------------------------------------------------------------------------
# Structural rules (flat stage)
# ---------------------------------------------------------------------------


@rule(
    "multi-driven",
    Severity.ERROR,
    "flat",
    "a net with more than one driver (assigns and/or always blocks)",
)
def check_multi_driven(ctx: LintContext) -> Iterable[Diagnostic]:
    flat = ctx.flat
    assert flat is not None
    drivers: Dict[str, List[str]] = {}

    for lhs, _rhs in flat.assigns:
        for base in _lvalue_bases(lhs):
            if base in flat.memories:
                continue
            drivers.setdefault(base, []).append("continuous assign")

    for i, raw in enumerate(flat.always):
        kind = "sequential" if raw.is_sequential else "combinational"
        assigned: Set[str] = set()
        for lhs, _rhs, _blocking in _walk_stmt_assigns(raw.body):
            for base in _lvalue_bases(lhs):
                # Guarded memory write ports may legally coexist.
                if base not in flat.memories:
                    assigned.add(base)
        for s in _walk_for_vars(raw.body):
            assigned.add(s)
        for base in assigned:
            drivers.setdefault(base, []).append(f"{kind} always block #{i}")

    syn = ctx.synthetic_names()
    for name in sorted(drivers):
        who = drivers[name]
        if len(who) < 2 or name in syn:
            continue
        yield Diagnostic(
            "multi-driven",
            Severity.ERROR,
            f"net {ctx.display_name(name)!r} has {len(who)} drivers: "
            + ", ".join(who),
            hint="merge the drivers into one always block or one assign; "
            "use a mux for shared buses",
            loc=ctx.loc_of(name),
            subject=name,
        )


def _walk_for_vars(stmt: A.Stmt):
    """Loop variables are driven by their for statement."""
    if isinstance(stmt, A.Block):
        for s in stmt.stmts:
            yield from _walk_for_vars(s)
    elif isinstance(stmt, A.If):
        yield from _walk_for_vars(stmt.then)
        if stmt.other is not None:
            yield from _walk_for_vars(stmt.other)
    elif isinstance(stmt, A.Case):
        for item in stmt.items:
            yield from _walk_for_vars(item.body)
    elif isinstance(stmt, A.For):
        yield stmt.var
        yield from _walk_for_vars(stmt.body)


# ---------------------------------------------------------------------------
# Width rules (flat stage)
# ---------------------------------------------------------------------------


def _flat_assignments(flat: FlatDesign):
    """All (lhs, rhs) pairs of the flat design: continuous + procedural."""
    for lhs, rhs in flat.assigns:
        yield lhs, rhs
    for raw in flat.always:
        for lhs, rhs, _blocking in _walk_stmt_assigns(raw.body):
            yield lhs, rhs


@rule(
    "width-trunc",
    Severity.WARNING,
    "flat",
    "assignment silently drops high bits of the source expression",
)
def check_width_trunc(ctx: LintContext) -> Iterable[Diagnostic]:
    flat = ctx.flat
    assert flat is not None
    seen: Set[Tuple[str, int, int]] = set()
    for lhs, rhs in _flat_assignments(flat):
        tw = _lvalue_width(lhs, flat)
        nat = _natural_width(rhs, flat)
        if tw is None or nat is None or nat <= tw:
            continue
        bases = _lvalue_bases(lhs)
        name = bases[0] if bases else "<concat>"
        key = (name, nat, tw)
        if key in seen:
            continue
        seen.add(key)
        yield Diagnostic(
            "width-trunc",
            Severity.WARNING,
            f"expression of width {nat} is implicitly truncated to "
            f"{tw} bits when assigned to {ctx.display_name(name)!r}",
            hint="widen the target or select the intended bits explicitly "
            "(e.g. expr[hi:lo])",
            loc=ctx.loc_of(name),
            subject=name,
        )


@rule(
    "width-ext",
    Severity.INFO,
    "flat",
    "a plain copy implicitly zero-extends a narrower signal",
)
def check_width_ext(ctx: LintContext) -> Iterable[Diagnostic]:
    flat = ctx.flat
    assert flat is not None
    syn = ctx.synthetic_names()
    seen: Set[Tuple[str, int, int]] = set()
    for lhs, rhs in _flat_assignments(flat):
        # Only pure identifier/part-select copies; arithmetic results are
        # routinely narrower than their target and warning there is noise.
        if not isinstance(rhs, (A.Ident, A.PartSelect, A.IndexedPartSelect)):
            continue
        tw = _lvalue_width(lhs, flat)
        nat = _natural_width(rhs, flat)
        if tw is None or nat is None or nat >= tw:
            continue
        bases = _lvalue_bases(lhs)
        name = bases[0] if bases else "<concat>"
        if name in syn:
            continue
        key = (name, nat, tw)
        if key in seen:
            continue
        seen.add(key)
        yield Diagnostic(
            "width-ext",
            Severity.INFO,
            f"{ctx.display_name(name)!r} ({tw} bits) is assigned a "
            f"{nat}-bit value; high bits are implicitly zero",
            hint="pad explicitly ({{N'b0, src}}) if the extension is "
            "intentional",
            loc=ctx.loc_of(name),
            subject=name,
        )


# ---------------------------------------------------------------------------
# Combinational-graph rules (lowered stage)
# ---------------------------------------------------------------------------


def _comb_edges(design: LoweredDesign):
    """(producer, preds, succs, selfdep) over comb assignments — the same
    edge construction :func:`repro.rtlir.build.build_graph` performs over
    ``RtlGraph.comb_nodes``, tolerant of cyclic designs."""
    producer: Dict[str, int] = {}
    for i, ca in enumerate(design.comb):
        producer.setdefault(ca.target, i)
    preds: Dict[int, Set[int]] = {i: set() for i in range(len(design.comb))}
    succs: Dict[int, Set[int]] = {i: set() for i in range(len(design.comb))}
    selfdep: List[int] = []
    for i, ca in enumerate(design.comb):
        for read in set(A.expr_reads(ca.expr)):
            if read == ca.target:
                selfdep.append(i)
                continue
            p = producer.get(read)
            if p is not None and p != i:
                preds[i].add(p)
                succs[p].add(i)
    return producer, preds, succs, selfdep


def _sccs(n: int, succs: Dict[int, Set[int]]) -> List[List[int]]:
    """Iterative Tarjan: strongly connected components with > 1 node."""
    index_of: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    next_index = 0
    out: List[List[int]] = []

    for root in range(n):
        if root in index_of:
            continue
        work: List[Tuple[int, Iterable[int]]] = [(root, iter(succs.get(root, ())))]
        index_of[root] = low[root] = next_index
        next_index += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for s in it:
                if s not in index_of:
                    index_of[s] = low[s] = next_index
                    next_index += 1
                    stack.append(s)
                    on_stack.add(s)
                    work.append((s, iter(succs.get(s, ()))))
                    advanced = True
                    break
                if s in on_stack:
                    low[node] = min(low[node], index_of[s])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                comp: List[int] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                if len(comp) > 1:
                    out.append(sorted(comp))
    return out


@rule(
    "comb-loop",
    Severity.ERROR,
    "lowered",
    "a cycle through combinational logic (unsettleable in one pass)",
)
def check_comb_loop(ctx: LintContext) -> Iterable[Diagnostic]:
    design = ctx.lowered
    assert design is not None
    _producer, _preds, succs, _selfdep = ctx.comb_edges()
    for comp in _sccs(len(design.comb), succs):
        names = [ctx.display_name(design.comb[i].target) for i in comp]
        path = " -> ".join(names + [names[0]])
        yield Diagnostic(
            "comb-loop",
            Severity.ERROR,
            f"combinational loop through signals: {path}",
            hint="break the feedback with a register, or restructure so "
            "each signal depends only on earlier logic",
            loc=ctx.loc_of(design.comb[comp[0]].target),
            subject=design.comb[comp[0]].target,
        )


@rule(
    "inferred-latch",
    Severity.ERROR,
    "lowered",
    "a combinational signal keeps its previous value on some path",
)
def check_inferred_latch(ctx: LintContext) -> Iterable[Diagnostic]:
    design = ctx.lowered
    assert design is not None
    _producer, _preds, _succs, selfdep = ctx.comb_edges()
    for i in sorted(set(selfdep)):
        target = design.comb[i].target
        yield Diagnostic(
            "inferred-latch",
            Severity.ERROR,
            f"combinational driver of {ctx.display_name(target)!r} reads "
            "its own value — some path through the always block leaves it "
            "unassigned (inferred latch)",
            hint="assign a default at the top of the block or complete "
            "every if/case branch",
            loc=ctx.loc_of(target),
            subject=target,
        )


# ---------------------------------------------------------------------------
# Connectivity rules (lowered stage)
# ---------------------------------------------------------------------------


@rule(
    "undriven",
    Severity.WARNING,
    "lowered",
    "a signal is read but has no driver (reads as constant zero)",
)
def check_undriven(ctx: LintContext) -> Iterable[Diagnostic]:
    design = ctx.lowered
    assert design is not None
    driven: Set[str] = {ca.target for ca in design.comb}
    clocks: Set[str] = set()
    for blk in design.seq:
        clocks.add(blk.clock)
        clocks.update(blk.pseudo_async)
        driven.update(upd.target for upd in blk.updates)
    syn = ctx.synthetic_names()
    reads = ctx.design_reads() | clocks
    for name in sorted(reads):
        sig = design.signals.get(name)
        if (
            sig is None  # memories / unknown: other rules handle them
            or name in driven
            or sig.kind == "input"
            or name in syn
        ):
            continue
        yield Diagnostic(
            "undriven",
            Severity.WARNING,
            f"signal {ctx.display_name(name)!r} is read but never driven; "
            "it reads as constant zero",
            hint="drive it, make it an input, or delete the reference",
            loc=ctx.loc_of(name),
            subject=name,
        )


@rule(
    "unused",
    Severity.WARNING,
    "lowered",
    "dead logic: a signal or memory that nothing ever reads",
)
def check_unused(ctx: LintContext) -> Iterable[Diagnostic]:
    design = ctx.lowered
    assert design is not None
    reads = ctx.design_reads()
    keep: Set[str] = {s.name for s in design.outputs}
    for blk in design.seq:
        keep.add(blk.clock)
        keep.update(blk.pseudo_async)
    # Cross-check against the optimizer: signals DCE removed are dead by
    # construction; mention it so the finding is self-evidently true.
    eliminated: Set[str] = set()
    if ctx.optimized is not None:
        eliminated = set(design.signals) - set(ctx.optimized.signals)
    syn = ctx.synthetic_names()
    for name, sig in design.signals.items():
        if name in reads or name in keep or name in syn:
            continue
        if sig.kind == "input":
            what = f"input {ctx.display_name(name)!r} is never read"
        elif sig.is_state or any(
            upd.target == name for blk in design.seq for upd in blk.updates
        ):
            what = f"register {ctx.display_name(name)!r} is never read (dead state)"
        else:
            what = f"signal {ctx.display_name(name)!r} is never read"
        if name in eliminated:
            what += " — the optimizer deletes it (dead logic)"
        yield Diagnostic(
            "unused",
            Severity.WARNING,
            what,
            hint="remove the declaration, or waive with "
            "`// repro lint_off unused` if it documents intent",
            loc=ctx.loc_of(name),
            subject=name,
        )
    for name in design.memories:
        if name not in reads:
            yield Diagnostic(
                "unused",
                Severity.WARNING,
                f"memory {ctx.display_name(name)!r} is never read",
                hint="remove it or waive with `// repro lint_off unused`",
                loc=ctx.loc_of(name),
                subject=name,
            )


# ---------------------------------------------------------------------------
# State rules (lowered stage)
# ---------------------------------------------------------------------------


def _has_constant_arm(e: A.Expr) -> bool:
    """True if any mux arm in ``e`` is a literal constant — the shape a
    synchronous reset lowers to (``rst ? CONST : next``)."""
    if isinstance(e, A.Number):
        return True
    if isinstance(e, A.Ternary):
        return (
            isinstance(e.then, A.Number)
            or isinstance(e.other, A.Number)
            or _has_constant_arm(e.then)
            or _has_constant_arm(e.other)
        )
    return False


@rule(
    "no-reset",
    Severity.WARNING,
    "lowered",
    "a state register has no reset path (powers up undefined on hardware)",
)
def check_no_reset(ctx: LintContext) -> Iterable[Diagnostic]:
    design = ctx.lowered
    assert design is not None
    for blk in design.seq:
        if blk.pseudo_async:
            continue  # an (async) reset event covers the whole block
        for upd in blk.updates:
            if _has_constant_arm(upd.expr):
                continue
            yield Diagnostic(
                "no-reset",
                Severity.WARNING,
                f"state register {ctx.display_name(upd.target)!r} is never "
                "reset to a constant; simulation starts it at zero but "
                "hardware powers up undefined",
                hint="add a reset branch (if (rst) q <= 0;) or waive if "
                "the register is flushed by protocol",
                loc=ctx.loc_of(upd.target),
                subject=upd.target,
            )


# ---------------------------------------------------------------------------
# Batch-hazard rules (lowered stage) — specific to this flow
# ---------------------------------------------------------------------------


@rule(
    "derived-clock",
    Severity.WARNING,
    "lowered",
    "a sequential block is clocked by design logic, not a top-level input "
    "(batch lanes may see divergent edges)",
)
def check_derived_clock(ctx: LintContext) -> Iterable[Diagnostic]:
    design = ctx.lowered
    assert design is not None
    seen: Set[str] = set()
    for blk in design.seq:
        clk = blk.clock
        if clk in seen:
            continue
        seen.add(clk)
        sig = design.signals.get(clk)
        if sig is None or sig.kind == "input":
            continue
        yield Diagnostic(
            "derived-clock",
            Severity.WARNING,
            f"clock {ctx.display_name(clk)!r} is driven by design logic "
            f"(declared {sig.kind!r}); clocks are batch-uniform by "
            "contract, and lanes whose derived edges diverge are rejected "
            "at runtime",
            hint="clock from a top-level input (drive it with set_clock) "
            "and gate enables instead of gating the clock",
            loc=ctx.loc_of(clk),
            subject=clk,
        )


@rule(
    "mem-bounds",
    Severity.WARNING,
    "lowered",
    "a memory address can exceed the depth; lanes clamp/drop silently "
    "inside the var8/16/32/64 pool layout",
)
def check_mem_bounds(ctx: LintContext) -> Iterable[Diagnostic]:
    design = ctx.lowered
    assert design is not None
    seen: Set[Tuple[str, str]] = set()

    def check(mem_name: str, addr: A.Expr, access: str):
        mem = design.memories.get(mem_name)
        if mem is None:
            return None
        aw = _natural_width(addr, design)
        need = max(1, math.ceil(math.log2(mem.depth))) if mem.depth > 1 else 1
        if aw is None or aw <= need or (1 << aw) <= mem.depth:
            return None
        key = (mem_name, access)
        if key in seen:
            return None
        seen.add(key)
        behaviour = (
            "out-of-range lanes clamp to the last element"
            if access == "read"
            else "out-of-range lanes silently drop the write"
        )
        return Diagnostic(
            "mem-bounds",
            Severity.WARNING,
            f"memory {ctx.display_name(mem_name)!r} (depth {mem.depth}) is "
            f"{access}-addressed by a {aw}-bit expression (up to "
            f"{1 << aw} slots); {behaviour}, so affected lanes diverge "
            "from real hardware with no error",
            hint=f"address with exactly {need} bits "
            f"(e.g. addr[{need - 1}:0]) or guard the access with a range "
            "check",
            loc=ctx.loc_of(mem_name),
            subject=mem_name,
        )

    for blk in design.seq:
        for mw in blk.mem_writes:
            d = check(mw.mem, mw.addr, "write")
            if d:
                yield d

    def scan_reads(e: A.Expr):
        for node in A.walk_expr(e):
            if isinstance(node, A.Index) and node.base in design.memories:
                d = check(node.base, node.index, "read")
                if d:
                    yield d

    for ca in design.comb:
        yield from scan_reads(ca.expr)
    for blk in design.seq:
        for upd in blk.updates:
            yield from scan_reads(upd.expr)
        for mw in blk.mem_writes:
            for e in (mw.cond, mw.data):
                yield from scan_reads(e)


# ---------------------------------------------------------------------------
# Dataflow rules (graph stage) — powered by the known-bits engine
# ---------------------------------------------------------------------------


def _kb_describe(always: bool) -> str:
    return "always true" if always else "always false"


@rule(
    "const-cond",
    Severity.WARNING,
    "graph",
    "a mux/branch condition is provably constant, so one branch is dead",
)
def check_const_cond(ctx: LintContext) -> Iterable[Diagnostic]:
    from repro.verify import knownbits as kb

    graph = ctx.graph
    assert graph is not None
    env = ctx.knownbits_env()
    seen: Set[Tuple[str, str, bool]] = set()
    for node in graph.nodes:
        for expr in node.exprs():
            for sub in A.walk_expr(expr):
                if not isinstance(sub, A.Ternary):
                    continue
                if try_const(sub.cond) is not None:
                    continue  # literal constant: parameter math, not a bug
                t = kb.expr_bits(sub.cond, env, graph).truth()
                if t is None:
                    continue
                key = (node.target, _expr_text(sub.cond), t)
                if key in seen:
                    continue
                seen.add(key)
                yield Diagnostic(
                    "const-cond",
                    Severity.WARNING,
                    f"condition {_expr_text(sub.cond)!r} in the logic of "
                    f"{ctx.display_name(node.target)!r} is "
                    f"{_kb_describe(t)}; the "
                    f"{'else' if t else 'then'} branch is dead",
                    hint="the known-bits analysis proves the condition "
                    "constant for every reachable value; simplify the "
                    "expression or fix the width/reset logic",
                    loc=ctx.loc_of(node.target),
                    subject=node.target,
                )


@rule(
    "const-compare",
    Severity.WARNING,
    "graph",
    "a comparison always evaluates the same way",
)
def check_const_compare(ctx: LintContext) -> Iterable[Diagnostic]:
    from repro.verify import knownbits as kb

    graph = ctx.graph
    assert graph is not None
    env = ctx.knownbits_env()
    seen: Set[Tuple[str, str, bool]] = set()
    for node in graph.nodes:
        for expr in node.exprs():
            for sub in A.walk_expr(expr):
                if not (isinstance(sub, A.Binary)
                        and sub.op in ("==", "!=", "<", "<=", ">", ">=")):
                    continue
                if try_const(sub) is not None:
                    continue  # fully constant: folded parameter math
                cw = max(sub.left.ctx_width or sub.left.width,
                         sub.right.ctx_width or sub.right.width)
                if cw <= 0:
                    continue
                left = kb.expr_bits(sub.left, env, graph, width=cw)
                right = kb.expr_bits(sub.right, env, graph, width=cw)
                r = kb.compare(sub.op, left, right)
                if r is None:
                    continue
                key = (node.target, _expr_text(sub), r)
                if key in seen:
                    continue
                seen.add(key)
                yield Diagnostic(
                    "const-compare",
                    Severity.WARNING,
                    f"comparison {_expr_text(sub)!r} in the logic of "
                    f"{ctx.display_name(node.target)!r} is "
                    f"{_kb_describe(r)}",
                    hint="the operand ranges can never make this "
                    "comparison vary (often a width mismatch: a narrow "
                    "counter compared against an unreachable bound)",
                    loc=ctx.loc_of(node.target),
                    subject=node.target,
                )


@rule(
    "redundant-mask",
    Severity.INFO,
    "graph",
    "an AND mask keeps every bit that can be set — it does nothing",
)
def check_redundant_mask(ctx: LintContext) -> Iterable[Diagnostic]:
    from repro.verify import knownbits as kb

    graph = ctx.graph
    assert graph is not None
    env = ctx.knownbits_env()
    seen: Set[Tuple[str, str]] = set()
    for node in graph.nodes:
        for expr in node.exprs():
            for sub in A.walk_expr(expr):
                if not (isinstance(sub, A.Binary) and sub.op == "&"):
                    continue
                w = sub.ctx_width or sub.width
                if w <= 0 or w > 64:
                    continue
                full = (1 << w) - 1
                for m_e, x_e in ((sub.left, sub.right),
                                 (sub.right, sub.left)):
                    m = try_const(m_e)
                    if m is None or (m & full) == full:
                        continue  # no mask, or an all-ones literal
                    if try_const(x_e) is not None:
                        continue
                    x = kb.expr_bits(x_e, env, graph, width=w)
                    if x.max_value & ~m & full:
                        continue  # the mask clears at least one live bit
                    key = (node.target, _expr_text(sub))
                    if key in seen:
                        continue
                    seen.add(key)
                    yield Diagnostic(
                        "redundant-mask",
                        Severity.INFO,
                        f"mask {_expr_text(sub)!r} in the logic of "
                        f"{ctx.display_name(node.target)!r} keeps every "
                        "bit the operand can set; the AND is a no-op",
                        hint="drop the mask, or widen it if the operand "
                        "was meant to carry more bits",
                        loc=ctx.loc_of(node.target),
                        subject=node.target,
                    )
                    break


def _expr_text(e: A.Expr, depth: int = 0) -> str:
    """Compact single-line rendering of an expression for messages."""
    if depth > 4:
        return "..."
    if isinstance(e, A.Number):
        return str(e.value)
    if isinstance(e, A.Ident):
        return e.name
    if isinstance(e, A.Unary):
        return f"{e.op}{_expr_text(e.operand, depth + 1)}"
    if isinstance(e, A.Binary):
        return (f"{_expr_text(e.left, depth + 1)} {e.op} "
                f"{_expr_text(e.right, depth + 1)}")
    if isinstance(e, A.Ternary):
        return (f"{_expr_text(e.cond, depth + 1)} ? "
                f"{_expr_text(e.then, depth + 1)} : "
                f"{_expr_text(e.other, depth + 1)}")
    if isinstance(e, A.Index):
        return f"{e.base}[{_expr_text(e.index, depth + 1)}]"
    if isinstance(e, A.PartSelect):
        return (f"{e.base}[{_expr_text(e.msb, depth + 1)}:"
                f"{_expr_text(e.lsb, depth + 1)}]")
    return type(e).__name__.lower()
