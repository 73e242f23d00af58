"""AST node classes for the supported Verilog subset.

The node taxonomy intentionally mirrors the Verilator AST concepts the
paper manipulates in §3.1 (MODULE, CELL, VAR, VARREF, ASSIGN, CFUNC,
ARRSEL, CONST ...) so that the annotation / memory-mapping stages of
``repro.core`` read like the paper.

All nodes are plain dataclasses; expression nodes carry two width
attributes filled in by :mod:`repro.verilog.width`:

* ``width`` — the self-determined width of the expression, and
* ``ctx_width`` — the context-determined width at which arithmetic on the
  node must wrap (Verilog-2001 expression sizing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for expressions."""

    # Filled by width inference; declared here so every node has the slots.
    width: int = field(default=0, init=False, compare=False, repr=False)
    ctx_width: int = field(default=0, init=False, compare=False, repr=False)


@dataclass
class Number(Expr):
    """A literal constant, e.g. ``10'h1`` or ``42``.

    ``sized`` records whether the literal had an explicit width, which
    matters for concat legality and expression sizing.
    """

    value: int
    size: Optional[int] = None  # explicit bit width, if any
    xz_mask: int = 0  # bit positions that were x/z/? (casez wildcards)

    @property
    def sized(self) -> bool:
        return self.size is not None


@dataclass
class Ident(Expr):
    """A reference to a declared signal (the paper's VARREF)."""

    name: str


@dataclass
class Unary(Expr):
    """Unary operator: ``~ ! - + & | ^ ~& ~| ~^``."""

    op: str
    operand: Expr


@dataclass
class Binary(Expr):
    """Binary operator: arithmetic, bitwise, shifts, comparisons, logical."""

    op: str
    left: Expr
    right: Expr


@dataclass
class Ternary(Expr):
    """Conditional operator ``cond ? t : f``."""

    cond: Expr
    then: Expr
    other: Expr


@dataclass
class Concat(Expr):
    """Concatenation ``{a, b, c}`` (MSB first)."""

    parts: List[Expr]


@dataclass
class Repeat(Expr):
    """Replication ``{n{expr}}``; ``count`` must elaborate to a constant."""

    count: Expr
    value: Expr


@dataclass
class Index(Expr):
    """Single index ``base[idx]``.

    After elaboration this is either a *bit select* on a vector signal or an
    *element select* on a memory (the paper's ARRSEL).  ``is_memory`` is
    resolved during width inference.
    """

    base: str
    index: Expr
    is_memory: bool = field(default=False, compare=False)


@dataclass
class PartSelect(Expr):
    """Constant part select ``base[msb:lsb]``."""

    base: str
    msb: Expr
    lsb: Expr


@dataclass
class IndexedPartSelect(Expr):
    """Indexed part select ``base[start +: width]`` (width must be const)."""

    base: str
    start: Expr
    part_width: Expr
    descending: bool = True  # ``+:`` vs ``-:``


# ---------------------------------------------------------------------------
# L-values
# ---------------------------------------------------------------------------

# An l-value reuses expression nodes: Ident, Index, PartSelect,
# IndexedPartSelect, or a Concat of those.
LValue = Union[Ident, Index, PartSelect, IndexedPartSelect, Concat]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class for procedural statements."""


@dataclass
class Block(Stmt):
    """``begin ... end`` sequence."""

    stmts: List[Stmt]


@dataclass
class BlockingAssign(Stmt):
    """``lhs = rhs`` inside a procedural block."""

    lhs: LValue
    rhs: Expr


@dataclass
class NonBlockingAssign(Stmt):
    """``lhs <= rhs`` inside a procedural block."""

    lhs: LValue
    rhs: Expr


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    other: Optional[Stmt] = None


@dataclass
class CaseItem:
    labels: List[Expr]  # empty list == default
    body: Stmt


@dataclass
class Case(Stmt):
    """``case``/``casez`` statement; lowered to a mux tree at elaboration."""

    subject: Expr
    items: List[CaseItem]
    casez: bool = False


@dataclass
class For(Stmt):
    """``for (var = init; cond; var = step) body``.

    Bounds must elaborate to constants; the loop is fully unrolled during
    symbolic execution (the full-cycle transformation Verilator applies).
    """

    var: str
    init: Expr
    cond: Expr
    step: Expr  # the full RHS of the update assignment
    body: Stmt


# ---------------------------------------------------------------------------
# Module items
# ---------------------------------------------------------------------------


@dataclass
class Range:
    """A ``[msb:lsb]`` range with (possibly parameterized) bound expressions."""

    msb: Expr
    lsb: Expr


@dataclass
class NetDecl:
    """Declaration of a wire/reg, optionally a memory (``array`` set).

    ``line``/``col`` locate the declared name in the source (0 = unknown);
    they flow into :class:`repro.elaborate.elaborator.Signal` so that
    elaboration errors and lint diagnostics can point at the declaration.
    """

    name: str
    kind: str  # 'wire' | 'reg'
    rng: Optional[Range] = None  # None -> 1 bit
    array: Optional[Range] = None  # memory depth range, e.g. [0:255]
    signed: bool = False
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class PortDecl:
    name: str
    direction: str  # 'input' | 'output'
    kind: str = "wire"  # 'wire' | 'reg'
    rng: Optional[Range] = None
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class ParamDecl:
    name: str
    value: Expr
    local: bool = False


@dataclass
class ContinuousAssign:
    lhs: LValue
    rhs: Expr


@dataclass
class EdgeEvent:
    """One entry of a sensitivity list: ``posedge clk`` / ``negedge rst``."""

    edge: str  # 'posedge' | 'negedge'
    signal: str


@dataclass
class Always:
    """An always block.

    ``events`` is empty for combinational blocks (``always @*`` or an
    explicit signal list, which we treat as comb), and holds edge events
    for sequential blocks.
    """

    events: List[EdgeEvent]
    body: Stmt

    @property
    def is_sequential(self) -> bool:
        return bool(self.events)


@dataclass
class FuncCall(Expr):
    """A call to a user-defined function (inlined during lowering).

    ``resolved`` holds the flat function key once elaboration has renamed
    the call into the flat namespace.
    """

    name: str
    args: List[Expr]
    resolved: str = ""


@dataclass
class FuncDecl:
    """A Verilog function: pure combinational, returns ``name``.

    The paper's AST annotation stage tags these ``__device__`` (functions
    are called from macro-task kernels); here they are inlined outright.
    """

    name: str
    rng: Optional["Range"]  # return range (None -> 1 bit)
    inputs: List[Tuple[str, Optional["Range"]]]
    locals_: List[Tuple[str, Optional["Range"]]]
    body: Stmt


@dataclass
class Instance:
    """A module instantiation (the paper's CELL)."""

    module: str
    name: str
    connections: Dict[str, Optional[Expr]]
    param_overrides: Dict[str, Expr] = field(default_factory=dict)
    by_order: Optional[List[Expr]] = None  # positional connections, if used
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class GenvarDecl:
    """``genvar i, j;`` — loop indices for generate-for regions."""

    names: List[str]


@dataclass
class GenerateFor:
    """``for (i = a; i < b; i = i + s) begin : label ... end``.

    Expanded at elaboration: each iteration instantiates the body items
    under the scope ``label[i].`` with the genvar bound as a constant.
    """

    var: str
    init: "Expr"
    cond: "Expr"
    step: "Expr"
    label: str
    items: List["ModuleItem"]


@dataclass
class GenerateIf:
    """``if (COND) begin ... end else begin ... end`` at module level."""

    cond: "Expr"
    then_items: List["ModuleItem"]
    else_items: List["ModuleItem"]
    label: str = ""


ModuleItem = Union[
    NetDecl, PortDecl, ParamDecl, ContinuousAssign, Always, Instance,
    FuncDecl, GenvarDecl, GenerateFor, GenerateIf,
]


@dataclass
class Module:
    name: str
    port_order: List[str]
    items: List[ModuleItem]

    def ports(self) -> List[PortDecl]:
        return [i for i in self.items if isinstance(i, PortDecl)]

    def params(self) -> List[ParamDecl]:
        return [i for i in self.items if isinstance(i, ParamDecl)]


@dataclass
class SourceUnit:
    """A parsed collection of modules (one or more source files).

    ``filename`` is the label diagnostics use for locations in this unit
    (a real path, or ``<input>`` for in-memory source).
    """

    modules: List[Module]
    filename: str = field(default="<input>", compare=False)

    def module(self, name: str) -> Module:
        for m in self.modules:
            if m.name == name:
                return m
        raise KeyError(f"module {name!r} not found")


# ---------------------------------------------------------------------------
# Helpers used across the toolchain
# ---------------------------------------------------------------------------


def walk_expr(e: Expr) -> List[Expr]:
    """``e`` and all its sub-expressions, pre-order.

    An explicit-stack walk that returns a list: one call per tree, and no
    recursion limit on deep (unrolled) expressions.
    """
    out: List[Expr] = []
    stack = [e]
    pop, push, emit = stack.pop, stack.extend, out.append
    while stack:
        n = pop()
        emit(n)
        t = type(n)
        if t is Binary:
            push((n.right, n.left))
        elif t is Ident or t is Number:
            continue
        elif t is Ternary:
            push((n.other, n.then, n.cond))
        elif t is Unary:
            stack.append(n.operand)
        elif t is Index:
            stack.append(n.index)
        elif t is Concat:
            push(reversed(n.parts))
        elif t is Repeat:
            push((n.value, n.count))
        elif t is PartSelect:
            push((n.lsb, n.msb))
        elif t is IndexedPartSelect:
            push((n.part_width, n.start))
        elif t is FuncCall:
            push(reversed(n.args))
    return out


def expr_reads(e: Expr) -> List[str]:
    """Names of all signals read by expression ``e`` (with duplicates)."""
    out: List[str] = []
    for n in walk_expr(e):
        t = type(n)
        if t is Ident:
            out.append(n.name)
        elif t is Index or t is PartSelect or t is IndexedPartSelect:
            out.append(n.base)
    return out


def op_type_name(e: Expr) -> str:
    """A short node-type tag used for the partitioner's op histograms.

    These play the role of the "top k most frequently appeared RTL nodes"
    in the paper's weight function (Eq. 1).
    """
    t = type(e)
    if t is Binary:
        return "bin:" + e.op
    if t is Unary:
        return "un:" + e.op
    if t is Index:
        return "arrsel" if e.is_memory else "bitsel"
    tag = _OP_TAGS.get(t)
    return tag if tag is not None else t.__name__.lower()


_OP_TAGS = {
    Ternary: "mux",
    Concat: "concat",
    Repeat: "repeat",
    PartSelect: "partsel",
    IndexedPartSelect: "partsel",
    Ident: "varref",
    Number: "const",
}
