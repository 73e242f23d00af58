"""Batch kernel code generation.

Transpiles the RTL graph into vectorized Python source (the CUDA
analog) and compiles it with :func:`compile`.  A :class:`CompiledModel`
holds the graph and its one memory layout, and builds, on first use,
the two program sets the executors run — both emitted by
:class:`FusedProgramCodegen` on that layout: the fused flat programs
(:meth:`CompiledModel.fused`, the product engine) and the per-task
module over a macro-task partition (:meth:`CompiledModel.tasks`, the
Table 4 contrast engines and the MCMC estimator).

In the per-task module each macro task becomes one generated function

.. code-block:: python

    # __global__ task_0 (comb, 2 nodes, weight 6)
    def task_0(P8, P16, P32, P64, P1, N, W, LANE):
        # count = ...;  offset of count is 2 (P8)
        P8[2*N:3*N] = P8[0*N:1*N]
        # wrap = ...;  offset of wrap is 3 (P1, word-packed)
        P1[3*W:4*W] = ((P1[2*W:3*W])
                       & (pk.pack_bool((P8[0*N:1*N]) == (u8(255)), N)))

mirroring Listing 3: every access is a contiguous batch slice at
``offset*N`` (``offset*W`` words for a lane-packed 1-bit signal), and
the semantics match :func:`repro.baselines.reference.eval_expr` op for
op (the differential test suite enforces this).
"""

from __future__ import annotations

import hashlib
import linecache
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from types import CodeType
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.annotate import render_header
from repro.core.indexmap import IndexMapper
from repro.core.memory import PACKED_POOL, MemoryLayout
from repro.partition.merge import partition
from repro.partition.taskgraph import TaskGraph
from repro.partition.weights import WeightVector
from repro.rtlir.graph import NodeKind, RtlGraph, RtlNode
from repro.utils import bitvec as bv
from repro.utils.errors import SimulationError, UnsupportedFeatureError
from repro.verilog import ast_nodes as A

_CMP = {"==": "==", "===": "==", "!=": "!=", "!==": "!=",
        "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_SHIFTS = ("<<", "<<<", ">>", ">>>")
_M64 = (1 << 64) - 1

# A call of a runtime helper in generated source (``FusedPrograms.stats``).
_HELPER_RE = re.compile(r"(?:wv|bvb|pk|rt)\.\w+\(")

# Packed all-lanes constants (see FusedExprCodegen.emit_packed).
_PK_ZEROS = "pk.zeros(N)"
_PK_ONES = "pk.ones(N)"

# Native-dtype emission tables (pool index order: var8..var64).
_NATIVE_DT = ("u8", "u16", "u32", "u64")
_NATIVE_BITS = (8, 16, 32, 64)

# Roll-up: a run of same-shape statements is emitted once, as a loop over
# blocks of ``_ROW_BLOCK_ELEMS // N`` rows — every temporary of the loop
# body then stays cache-sized however large the batch is (one (k, N)
# statement over a 512-member run is 6x slower than the unrolled code at
# N=32768).  ``_ROW`` is the loop variable; any emitted value mentioning
# it is per-block.
_ROW_BLOCK_ELEMS = 32768
_ROW = "_row"
_MIN_RUN = 3

# Lookup lowerings (FusedExprCodegen._keyed_select / emit_table): a
# keyed select takes a selector of at most _KEY_BITS bits compared with
# at least _KEY_MIN distinct constants; a table reads at most
# _TABLE_BITS input bits.
_KEY_BITS = 8
_KEY_MIN = 3
_TABLE_BITS = 8


def _dt_name(bits: int) -> str:
    return _NATIVE_DT[_NATIVE_BITS.index(bits)]


@dataclass
class AuditRecord:
    """One rewrite claim the emitter made, kept for re-proving.

    The fused tier drops mux branches it folded to constant zero,
    collapses ``c ? x + 1 : x`` into a single add, truncates stores to
    the slot's demanded width, lane-packs 1-bit stores and folds packed
    constants, gathers keyed mux chains from a stack and looks
    small-input comb nodes up in tables; every tier lowers constant
    shifts, bit-selects, small replications and rotates as word ops.
    Each such rewrite appends a record naming the claim; the translation
    validator (:func:`repro.verify.ir_checks.check_audit`) re-establishes
    every claim through an independent known-bits analysis, so an emitter
    bug surfaces as a verification error instead of silent corruption.
    """

    # const0-branch | inc-mux | demand-store | packed-store | packed-const
    # | const-shift | const-index | replicate | rotate | cse | rollup
    # | keyed-select | table
    kind: str
    node: int  # RTL node id being emitted (-1 when unknown)
    target: str  # driven signal of that node
    expr: Optional[A.Expr] = None  # the expression the claim is about
    detail: Dict[str, object] = field(default_factory=dict)


# Compiled-code-object cache, keyed by the content-addressed pseudo-
# filename.  Cluster shards simulating the same design produce identical
# generated source, so they share one compile() instead of recompiling
# per shard; the digest in the filename also disambiguates tracebacks
# and ``repro profile`` attribution when two models of the same top
# coexist in one process.
_CODE_CACHE: Dict[str, CodeType] = {}
_CODE_CACHE_MAX = 128


def _clear_code_cache() -> None:
    """Drop every cached code object together with its ``linecache``
    entry (a long-lived ``repro serve`` worker cycling through designs
    would otherwise retain every generated source text forever)."""
    for filename in _CODE_CACHE:
        linecache.cache.pop(filename, None)
    _CODE_CACHE.clear()


def compile_source(source: str, top: str, tag: str = "") -> CodeType:
    """Compile generated kernel source under a content-addressed filename.

    The pseudo-filename is ``<rtlflow:{top}[:tag]:{digest}>`` where the
    digest hashes the full source, so two different designs sharing a
    ``top`` name never alias in tracebacks, and identical designs reuse
    the cached code object.  On a cache miss the source is registered
    with :mod:`linecache` (``mtime=None`` entries survive
    ``linecache.checkcache``) so tracebacks through generated kernels
    show the offending generated line; the registration lives exactly as
    long as the cached code object.
    """
    digest = hashlib.sha256(source.encode()).hexdigest()[:12]
    label = f"{top}:{tag}" if tag else top
    filename = f"<rtlflow:{label}:{digest}>"
    code = _CODE_CACHE.get(filename)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
            _clear_code_cache()
        code = compile(source, filename, "exec")
        _CODE_CACHE[filename] = code
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename
        )
    return code


def _limbs(width: int) -> int:
    """Representation limb count: 1 for <=64 bits, else ceil(width/64)."""
    return 1 if width <= 64 else (width + 63) // 64


class _Absent(dict):
    """A read-only stand-in for design state: every missing key reads
    ``default`` (folding evaluates only subtrees whose value does not
    depend on what it reads)."""

    def __init__(self, default):
        super().__init__()
        self.default = default

    def __missing__(self, key):
        return self.default


_ZERO_STATE = _Absent(0)
_NO_MEMS = _Absent(())
_UNSEEN = object()


@dataclass
class _KeyedChain:
    """A priority mux chain ``k == c1 ? a1 : k == c2 ? a2 : ... : d`` over
    one selector ``k`` whose value is below ``2**width`` (a condition may
    also be an ``||`` of such compares: a multi-label ``case`` arm).

    ``links`` chain conditions were consumed.  ``arms`` are the reachable
    arms in chain order with the constants that still select them — a
    repeated constant stays with its first arm and one of ``width`` or
    more bits never matches.  ``rows[v]`` is the stack row selector value
    ``v`` reads: arm ``i`` is row ``i``, ``default`` (None when every
    value has an arm) the last row.
    """

    key: A.Expr
    width: int
    links: int
    arms: List[Tuple[Tuple[int, ...], A.Expr]]
    default: Optional[A.Expr]
    rows: Tuple[int, ...]


class FusedExprCodegen:
    """Expression-to-source translation for the generated programs.

    Every expression lowers on the first of three tiers that takes it.
    Tier 1 — *packed*: 1-bit expressions over lane-packed operands emit
    word-level boolean ops on (W,) uint64 vectors (64 lanes per machine
    op; see :mod:`repro.utils.packbits`).  Tier 2 — *native dtype*:
    narrow expressions emit at their pool dtype (uint8/16/32/64) instead
    of round-tripping every operand through ``astype(uint64)``; sound
    because every emitted value is kept *exactly* equal to the reference
    scalar value of :func:`repro.baselines.reference.eval_expr` at that
    node (wrap-around ops require a compute dtype at least as wide as
    the context, otherwise emission bails).  Tier 3 — *uint64*: a (N,)
    uint64 array when the context width fits one limb, and a (L, N)
    little-endian limb matrix otherwise (L = ceil(ctx/64); the wide ops
    live in :mod:`repro.utils.widevec`, Verilator's VL_WIDE analog),
    with packed operands unpacked at the boundary by the
    :class:`~repro.core.indexmap.IndexMapper`.  Every emitted value is
    canonical — below ``2**ctx`` — and, unless the expression folds to a
    constant, a batch array.  An attempt on the packed or native tier
    that bails rolls back the temporaries and audit records it made
    (:meth:`_rollback`).

    Operators lower by operand kind on every tier (GSIM's word-level
    lowering, Verilator's constant-amount ``VL_SHIFTL``): a subtree whose
    value does not depend on design state is folded through the
    reference semantics once (:meth:`_fold`; parameterized reset values
    like ``{W{1'b1}}`` otherwise replay a chain of scalar ops every
    cycle); a wide constant is bound once at module level as a ``(L, 1)``
    column (:meth:`const_lines`); constant shift amounts, bit-select
    indices and small replications become plain word ops;
    ``(x << k) | (x >> (W-k))`` becomes one limb rotate; limb-aligned
    selects and concats become row slices.

    Two lookup lowerings apply in every program.  A *keyed select* — a
    mux chain whose conditions all compare one narrow selector with
    constants (a Verilog ``case``) — fills a per-evaluation stack with
    its arms and gathers one row per lane (:meth:`_keyed_select`).  A
    *table* replaces a comb node reading only a few input bits by a
    module-level lookup table built through the reference interpreter
    (:meth:`emit_table`).  Each rewrite leaves an :class:`AuditRecord`
    for the verifier.
    """

    def __init__(self, mapper: IndexMapper, graph: RtlGraph):
        self.mapper = mapper
        self.layout = mapper.layout
        self.graph = graph
        self.design = graph.design
        self._widths = {s.name: s.width for s in self.design.signals.values()}
        self._fold_cache: Dict[int, Optional[int]] = {}
        # Wide constants: (value, limbs) -> module-level column name.
        self.consts: Dict[Tuple[int, int], str] = {}
        # Rewrite audit trail for the translation validator; the program
        # generator stamps the program, unit position and node being
        # emitted into audit_program/audit_pos/audit_node/audit_target.
        self.audit: List[AuditRecord] = []
        self.audit_program = ""
        self.audit_pos = -1
        self.audit_node = -1
        self.audit_target = ""
        # Hoisted-subexpression statements (mask temporaries for the
        # branchless muxes below).  The program generator drains these
        # ahead of each node's store statement.
        self._prelude: List[str] = []
        self._tmp_n = 0
        # Value numbering, reset per program (begin_program): emitted
        # code -> temp name, and 0/1 condition code -> {mask bits: temp}.
        self._memo: Dict[str, str] = {}
        self._masks: Dict[str, Dict[int, str]] = {}
        # While a rolled-up run is being emitted (begin_run/end_run):
        # values that mention the row-block variable are per-block — their
        # memo dies with the run and they stay inside its loop — while
        # run-invariant ones are hoisted ahead of the loop (``_hoisted``)
        # and join the program-wide memo.
        self.rolled = False
        self._run_memo: Dict[str, str] = {}
        self._run_masks: Dict[str, Dict[int, str]] = {}
        self._hoisted: List[str] = []
        # temp name -> (defining node, its unit position in the program).
        self._defs: Dict[str, Tuple[int, int]] = {}
        # How to take back each binding made since the last drain.
        self._undo: List[Callable[[], object]] = []
        # Lookup lowerings: the analysed mux chains by expression id, the
        # module-level selector index tables ``_IXn`` and lookup tables
        # ``_LUTn`` by content, the stack counter and the time spent
        # building tables.
        self._chains: Dict[int, Optional[_KeyedChain]] = {}
        self._ix: Dict[Tuple[int, ...], str] = {}
        self._luts: Dict[Tuple[int, Tuple[int, ...]], str] = {}
        self._stack_n = 0
        self.table_build_s = 0.0

    def _record(self, kind: str, expr: Optional[A.Expr] = None,
                **detail) -> None:
        self.audit.append(AuditRecord(
            kind=kind, node=self.audit_node, target=self.audit_target,
            expr=expr, detail=detail))

    # -- public entry points -------------------------------------------------

    def emit(self, e: A.Expr) -> str:
        """Emit ``e`` at its context representation."""
        code, limbs = self._value(e)
        want = _limbs(e.ctx_width)
        if want == limbs:
            return code
        if want > 1:
            return f"wv.extend({code}, {want}, N)"
        raise SimulationError(  # pragma: no cover - ctx >= width by pass
            f"cannot narrow a wide value to ctx {e.ctx_width}"
        )

    def emit_bool(self, e: A.Expr) -> str:
        """(N,) truthiness of ``e`` (for conditions/guards)."""
        code, limbs = self._value(e)
        return code if limbs == 1 else f"wv.nonzero({code})"

    def emit_amount(self, e: A.Expr) -> str:
        """(N,) shift/address amount; wide amounts saturate."""
        code, limbs = self._value(e)
        return code if limbs == 1 else f"wv.saturate_narrow({code})"

    def emit_narrow(self, e: A.Expr) -> str:
        """(N,) low-64-bit value of ``e`` (for <=64-bit stores)."""
        code = self.emit(e)
        return code if _limbs(e.ctx_width) == 1 else f"wv.narrow({code})"

    def const_lines(self) -> List[str]:
        """Module-level bindings of the wide constants emitted so far."""
        return [f"{name} = wv.column({hex(value)}, {limbs})"
                for (value, limbs), name in self.consts.items()]

    # -- constant folding -----------------------------------------------------

    def _const_tree(self, e: A.Expr) -> bool:
        """True when ``e``'s value does not depend on design state:
        constant leaves, and the shapes whose value structure decides — a
        shift by at least the context width, a bit/part-select wholly
        above its signal, a mux whose condition (or whose pair of equal
        branches) is constant.  Children are asked through the memoised
        :meth:`_fold`, so each node is classified once."""
        fold = self._fold
        if isinstance(e, A.Number):
            return True
        if isinstance(e, A.Unary):
            return fold(e.operand) is not None
        if isinstance(e, A.Binary):
            # ``**`` is excluded: a huge constant exponent would make the
            # fold itself unbounded.
            if e.op == "**":
                return False
            if e.op in _SHIFTS:
                amt = fold(e.right)
                if amt is not None and amt >= e.ctx_width:
                    return True
            return fold(e.left) is not None and fold(e.right) is not None
        if isinstance(e, A.Ternary):
            c = fold(e.cond)
            if c is not None:
                return fold(e.then if c else e.other) is not None
            t = fold(e.then)
            return t is not None and t == fold(e.other)
        if isinstance(e, A.Concat):
            return all(fold(p) is not None for p in e.parts)
        if isinstance(e, A.Repeat):
            return fold(e.value) is not None
        if isinstance(e, A.Index) and not e.is_memory:
            idx = fold(e.index)
            return idx is not None and idx >= self._widths.get(e.base, idx + 1)
        if isinstance(e, A.PartSelect):
            return getattr(e, "_lsb_i") >= self._widths.get(e.base, 1 << 30)
        return False  # Ident / memory Index / IndexedPartSelect

    def _fold(self, e: A.Expr) -> Optional[int]:
        """Reference-semantics value of a state-independent subtree, else
        None."""
        key = id(e)
        val = self._fold_cache.get(key, _UNSEEN)
        if val is not _UNSEEN:
            return val
        val = None
        if self._const_tree(e):
            from repro.baselines.reference import eval_expr
            try:
                val = int(eval_expr(e, _ZERO_STATE, _NO_MEMS, self._widths))
            except Exception:
                val = None
        self._fold_cache[key] = val
        return val

    def _const(self, value: int, limbs: int) -> str:
        """A constant at ``limbs``: a uint64 scalar, or a wide column."""
        if limbs == 1:
            return f"u64({value & _M64})"
        return self.consts.setdefault((value, limbs), f"_k{len(self.consts)}")

    @classmethod
    def _same(cls, a: A.Expr, b: A.Expr) -> bool:
        """Structural equality of two (small) expressions."""
        if type(a) is not type(b):
            return False
        if isinstance(a, A.Ident):
            return a.name == b.name
        if isinstance(a, A.Number):
            return a.value == b.value
        if isinstance(a, A.Unary):
            return a.op == b.op and cls._same(a.operand, b.operand)
        if isinstance(a, A.Binary):
            return (a.op == b.op and cls._same(a.left, b.left)
                    and cls._same(a.right, b.right))
        return False

    @staticmethod
    def _masked(code: str, limbs: int, width: int) -> str:
        """``code`` — a ``(limbs, N)`` value — canonicalized to ``width``
        bits; a no-op (and so not emitted) when the limbs are exactly
        ``width`` bits."""
        if width == 64 * limbs:
            return code
        return f"wv.mask_width({code}, {width})"

    # -- tier 3: uint64 emission (returns (code, repr_limbs)) -------------------

    def _value(self, e: A.Expr):
        if not isinstance(e, A.Ident):
            c = e.value if type(e) is A.Number else self._fold(e)
            if c is not None:
                L = _limbs(e.ctx_width)
                return self._const(c, L), L
        return self._lower(e)

    def _lower(self, e: A.Expr):
        if isinstance(e, A.Ident):
            return self._load(e.name)
        if isinstance(e, A.Unary):
            return self._unary(e)
        if isinstance(e, A.Binary):
            return self._binary(e)
        if isinstance(e, A.Ternary):
            L = _limbs(e.ctx_width)
            if L > 1:
                c = self.emit_bool(e.cond)
                return f"wv.mux({c}, {self.emit(e.then)}, {self.emit(e.other)})", L
            cf = self._fold(e.cond)
            if cf is not None:
                code, _ = self._value(e.then if cf else e.other)
                return code, 1
            m = self._cond_mask(e.cond, 64)
            if m is None:  # wide condition: a mask from its truthiness
                m = self._temp(f"(u64(0) - (({self.emit_bool(e.cond)}) != 0)"
                               f".view(u8))")
            # A constant-zero branch drops out of the blend entirely
            # (x & 0 == 0): common for reset muxes.
            if self._fold(e.then) == 0:
                self._record("const0-branch", e.then)
                return f"(({self.emit(e.other)}) & ~{m})", 1
            if self._fold(e.other) == 0:
                self._record("const0-branch", e.other)
                return f"(({self.emit(e.then)}) & {m})", 1
            t = self.emit(e.then)
            f = self.emit(e.other)
            return f"((({t}) & {m}) | (({f}) & ~{m}))", 1
        if isinstance(e, A.Concat):
            return self._concat(list(e.parts), e.width)
        if isinstance(e, A.Repeat):
            return self._repeat(e)
        if isinstance(e, A.Index):
            if e.is_memory:
                row = self._mem_row(e)
                if row is not None:
                    return f"{row[0]}.astype(u64, copy=False)", 1
                idx = self.emit_amount(e.index)
                return self.mapper.mem_read_call(e.base, idx), 1
            k = self._fold(e.index)
            if k is not None:
                return self._bit(e, k), 1
            idx = self.emit_amount(e.index)
            base, base_limbs = self._load(e.base)
            if base_limbs == 1:
                return f"(bvb.b_shr({base}, {idx}) & u64(1))", 1
            return f"(wv.narrow(wv.shr({base}, {idx})) & u64(1))", 1
        if isinstance(e, A.PartSelect):
            return self._part_select(e)
        if isinstance(e, A.IndexedPartSelect):
            w = getattr(e, "_width_i")
            sig_lsb = getattr(e, "_base_lsb_i", 0)
            m = bv.mask(min(w, 64)) if w <= 64 else bv.mask(w)
            start = self.emit_amount(e.start)
            shift_back = (w - 1 if e.descending else 0) + sig_lsb
            pos = f"(({start}) - u64({shift_back}))" if shift_back else f"({start})"
            base, base_limbs = self._load(e.base)
            if base_limbs == 1:
                return f"(bvb.b_shr({base}, {pos}) & u64({m}))", 1
            inner = f"wv.shr({base}, {pos})"
            if w <= 64:
                return f"(wv.narrow({inner}) & u64({m}))", 1
            return f"wv.mask_width({inner}, {w})", _limbs(w)
        raise SimulationError(f"cannot generate code for {type(e).__name__}")

    def _load(self, name: str):
        slot = self.mapper.layout.slot(name)
        if slot.limbs == 1:
            return self.mapper.load(name), 1
        lo, hi = slot.offset, slot.offset + slot.limbs
        return f"P64[{lo}*N:{hi}*N].reshape({slot.limbs}, N)", slot.limbs

    def _rows(self, name: str, lo: int, hi: int, matrix: bool = False) -> str:
        """Limb rows ``[lo, hi)`` of a wide signal, loaded directly: an
        (N,) uint64 row, or (``matrix``/several rows) a (k, N) view."""
        off = self.mapper.layout.slot(name).offset
        code = f"P64[{off + lo}*N:{off + hi}*N]"
        return f"{code}.reshape({hi - lo}, N)" if matrix or hi - lo > 1 else code

    def _bit(self, e: A.Index, k: int) -> str:
        """Constant bit-select ``x[k]`` (``k`` inside the signal: a select
        above it folds to 0): a shift and an AND, on a wide base one limb
        row."""
        self._record("const-index", e, k=k)
        if self.mapper.layout.slot(e.base).limbs > 1:
            base, k = self._rows(e.base, k // 64, k // 64 + 1), k % 64
        else:
            base = self._load(e.base)[0]
        word = f"(({base}) >> u64({k}))" if k else f"({base})"
        return f"({word} & u64(1))"

    def _part_select(self, e: A.PartSelect):
        lsb = getattr(e, "_lsb_i")
        w = e.width
        m = bv.mask(w)
        slot = self.mapper.layout.slot(e.base)
        if slot.limbs == 1:
            base = self._load(e.base)[0]
            if lsb == 0:
                return f"(({base}) & u64({m}))", 1
            return f"((({base}) >> u64({lsb})) & u64({m}))", 1
        row, s = divmod(lsb, 64)
        top = (lsb + w - 1) // 64
        if top < slot.limbs and (w <= 64 or s == 0):
            if w > 64:  # limb-aligned: a row slice
                return self._masked(self._rows(e.base, row, top + 1), top + 1 - row,
                                    w), top + 1 - row
            lo = self._rows(e.base, row, row + 1)
            word = f"(({lo}) >> u64({s}))" if s else lo
            if top != row:  # straddles two limbs
                hi = self._rows(e.base, top, top + 1)
                word = f"({word} | (({hi}) << u64({64 - s})))"
            return (f"(({word}) & u64({m}))" if s + w < 64 or top != row
                    else word), 1
        base = self._load(e.base)[0]
        inner = f"wv.shr_const({base}, {lsb})" if lsb else base
        if w <= 64:
            return f"(wv.narrow({inner}) & u64({m}))", 1
        return f"wv.mask_width({inner}, {w})", _limbs(w)

    def _repeat(self, e: A.Repeat):
        count = getattr(e, "_count_i")
        w = e.value.width
        if count * w > 64:
            return self._concat([e.value] * count, e.width)
        # {c{v}} fits a word: one multiply by the repeating constant
        # sum(2**(i*w)) — v < 2**w, so the copies never carry into each
        # other (a 1-bit v times all-ones is the sign-extension idiom).
        self._record("replicate", e, count=count, width=w)
        x = self.emit(e.value)
        if count == 1:
            return x, 1
        k = sum(1 << (i * w) for i in range(count))
        return f"(({x}) * u64({k}))", 1

    def _concat(self, parts: List[A.Expr], width: int):
        """Concat/replicate ``parts`` (MSB first) into ``width`` bits."""
        # Leading constant-zero parts are zero extension.
        while len(parts) > 1 and self._fold(parts[0]) == 0:
            width -= parts[0].width
            parts = parts[1:]
        if len(parts) == 1:
            return self._value(parts[0])
        L = _limbs(width)
        if L == 1:
            acc = self.emit(parts[0])
            for p in parts[1:]:
                acc = f"(({acc}) << u64({p.width}))"
                if self._fold(p) != 0:
                    acc = f"({acc} | ({self.emit(p)}))"
            return acc, 1
        rows = self._aligned_rows(parts)
        if rows is not None:
            return f"np.concatenate(({', '.join(reversed(rows))}))", L

        def as_limbs(p: A.Expr) -> str:
            c = self._fold(p)
            if c is not None:
                return self._const(c, L)
            pc, _ = self._value(p)
            return f"wv.extend({pc}, {L}, N)"

        acc = as_limbs(parts[0])
        for p in parts[1:]:
            acc = f"(wv.shl_const({acc}, {p.width}) | {as_limbs(p)})"
        return acc, L

    def _aligned_rows(self, parts: List[A.Expr]) -> Optional[List[str]]:
        """(k, N) limb-row code per part (MSB first) when every part below
        the top one fills whole limbs and none is constant, else None."""
        if any(p.width % 64 for p in parts[1:]):
            return None
        rows = []
        for p in parts:
            if self._fold(p) is not None:
                return None
            if isinstance(p, A.PartSelect):
                slot = self.mapper.layout.slot(p.base)
                lsb = getattr(p, "_lsb_i")
                hi = lsb // 64 + _limbs(p.width)
                if slot.limbs > 1 and lsb % 64 == 0 and hi <= slot.limbs:
                    code = self._rows(p.base, lsb // 64, hi, matrix=True)
                    rows.append(self._masked(code, hi - lsb // 64, p.width))
                    continue
            code, limbs = self._value(p)
            want = _limbs(p.width)
            if limbs != want:
                code = f"wv.extend({code}, {want}, N)"
            elif want == 1:
                code = f"({code})[None]"
            rows.append(code)
        return rows

    def _unary(self, e: A.Unary):
        L = _limbs(e.ctx_width)
        if e.op == "!":
            return f"(({self.emit_bool(e.operand)}) == 0).astype(u64)", 1
        if e.op in ("~", "-", "+"):
            x = self.emit(e.operand)
            if L == 1:
                m = bv.mask(min(e.ctx_width, 64))
                if e.op == "~":
                    return f"((~({x})) & u64({m}))", 1
                if e.op == "-":
                    return f"((u64(0) - ({x})) & u64({m}))", 1
                return x, 1
            xl = _limbs(e.operand.ctx_width)
            if e.op == "~":
                return self._masked(f"wv.bit_not({x})", xl, e.ctx_width), L
            if e.op == "-":
                return self._masked(f"wv.neg({x})", xl, e.ctx_width), L
            return x, L
        # Reductions: operand at its self-determined representation.
        x = self.emit(e.operand)
        xl = _limbs(e.operand.ctx_width)
        w = e.operand.width
        if xl == 1:
            table = {
                "&": f"bvb.b_red_and({x}, {w})",
                "|": f"bvb.b_red_or({x}, {w})",
                "^": f"bvb.b_red_xor({x}, {w})",
                "~&": f"(u64(1) - bvb.b_red_and({x}, {w}))",
                "~|": f"(u64(1) - bvb.b_red_or({x}, {w}))",
                "~^": f"(u64(1) - bvb.b_red_xor({x}, {w}))",
            }
        else:
            table = {
                "&": f"wv.red_and({x}, {w})",
                "|": f"wv.red_or({x})",
                "^": f"wv.red_xor({x})",
                "~&": f"(u64(1) - wv.red_and({x}, {w}))",
                "~|": f"(u64(1) - wv.red_or({x}))",
                "~^": f"(u64(1) - wv.red_xor({x}))",
            }
        if e.op in table:
            return table[e.op], 1
        raise SimulationError(f"unknown unary op {e.op!r}")

    def _const_shift(self, e: A.Binary, k: int):
        """``x << k`` / ``x >> k`` by a constant ``k`` below the context
        width (a larger one folds to 0): word shifts on one limb,
        ``shl_const``/``shr_const`` limb moves on a matrix."""
        self._record("const-shift", e, k=k)
        x = self.emit(e.left)
        L = _limbs(e.ctx_width)
        left = e.op in ("<<", "<<<")
        if not k:
            return x, L
        if L == 1:
            if left:
                m = bv.mask(e.ctx_width)
                return f"((({x}) << u64({k})) & u64({m}))", 1
            return f"(({x}) >> u64({k}))", 1
        if left:
            return self._masked(f"wv.shl_const({x}, {k})", L, e.ctx_width), L
        return f"wv.shr_const({x}, {k})", L

    def _rotate(self, e: A.Binary) -> Optional[str]:
        """``(x << k) | (x >> (W - k))`` at context width ``W``: one limb
        rotate (either arm order), else None."""
        l, r = e.left, e.right
        if not (isinstance(l, A.Binary) and isinstance(r, A.Binary)):
            return None
        if l.op in (">>", ">>>"):
            l, r = r, l
        if l.op not in ("<<", "<<<") or r.op not in (">>", ">>>"):
            return None
        k, k2, w = self._fold(l.right), self._fold(r.right), e.ctx_width
        if (k is None or k2 is None or k + k2 != w or not 0 < k < w
                or not self._same(l.left, r.left)):
            return None
        self._record("rotate", e, k=k, complement=k2, width=w)
        return f"wv.rotl_const({self.emit(l.left)}, {k}, {w})"

    def _binary(self, e: A.Binary):
        op = e.op
        L = _limbs(e.ctx_width)
        if op in _CMP or op in ("&&", "||"):
            if op == "&&":
                l = self.emit_bool(e.left)
                r = self.emit_bool(e.right)
                return f"(((({l}) != 0) & (({r}) != 0))).astype(u64)", 1
            if op == "||":
                l = self.emit_bool(e.left)
                r = self.emit_bool(e.right)
                return f"(((({l}) != 0) | (({r}) != 0))).astype(u64)", 1
            # Comparison operands share a self-determined context.
            wide = _limbs(e.left.ctx_width) > 1 or _limbs(e.right.ctx_width) > 1
            l = self.emit(e.left)
            r = self.emit(e.right)
            if not wide:
                return f"(({l}) {_CMP[op]} ({r})).astype(u64)", 1
            fn = {"==": "eq", "===": "eq", "!=": "ne", "!==": "ne",
                  "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}[op]
            return f"wv.{fn}({l}, {r})", 1

        if op in _SHIFTS:
            k = self._fold(e.right)
            if k is not None:
                return self._const_shift(e, k)
            l = self.emit(e.left)
            r = self.emit_amount(e.right)
            if L == 1:
                m = bv.mask(min(e.ctx_width, 64))
                if op in ("<<", "<<<"):
                    return f"(bvb.b_shl({l}, {r}) & u64({m}))", 1
                return f"bvb.b_shr({l}, {r})", 1
            if op in ("<<", "<<<"):
                return self._masked(f"wv.shl({l}, {r})", L, e.ctx_width), L
            return f"wv.shr({l}, {r})", L

        if op == "|" and L > 1:
            rot = self._rotate(e)
            if rot is not None:
                return rot, L
        l = self.emit(e.left)
        r = self.emit(e.right)
        if L == 1:
            m = bv.mask(min(e.ctx_width, 64))
            table = {
                "+": f"((({l}) + ({r})) & u64({m}))",
                "-": f"((({l}) - ({r})) & u64({m}))",
                "*": f"((({l}) * ({r})) & u64({m}))",
                "/": f"bvb.b_div({l}, {r})",
                "%": f"bvb.b_mod({l}, {r})",
                "**": f"(bvb.b_pow({l}, {r}) & u64({m}))",
                "&": f"(({l}) & ({r}))",
                "|": f"(({l}) | ({r}))",
                "^": f"(({l}) ^ ({r}))",
                "~^": f"((~(({l}) ^ ({r}))) & u64({m}))",
                "^~": f"((~(({l}) ^ ({r}))) & u64({m}))",
            }
            if op in table:
                return table[op], 1
            raise SimulationError(f"unknown binary op {op!r}")
        if op in ("*", "/", "%", "**"):
            raise UnsupportedFeatureError(
                f"operator {op!r} is not supported on values wider than 64 "
                f"bits (context width {e.ctx_width})"
            )
        w = e.ctx_width
        table = {
            "+": self._masked(f"wv.add({l}, {r})", L, w),
            "-": self._masked(f"wv.sub({l}, {r})", L, w),
            "&": f"(({l}) & ({r}))",
            "|": f"(({l}) | ({r}))",
            "^": f"(({l}) ^ ({r}))",
            "~^": self._masked(f"wv.bit_not(({l}) ^ ({r}))", L, w),
            "^~": self._masked(f"wv.bit_not(({l}) ^ ({r}))", L, w),
        }
        if op in table:
            return table[op], L
        raise SimulationError(f"unknown binary op {op!r}")


    def begin_program(self, name: str) -> None:
        """Open a value-numbering scope.  A memoised value never outlives
        its program: a seq program reads only current slots and writes
        only shadow/scratch slots, and the comb program stores each
        signal once, ahead of all its readers — so within one program no
        store can change what an already-bound temp was computed from."""
        self.audit_program = name
        self._memo.clear()
        self._masks.clear()
        self._defs.clear()

    def begin_run(self) -> None:
        self.rolled = True

    def end_run(self) -> None:
        self.rolled = False
        self._run_memo.clear()
        self._run_masks.clear()

    def _reused(self, name: str) -> str:
        def_node, def_pos = self._defs[name]
        self._record("cse", temp=name, program=self.audit_program,
                     def_node=def_node, def_pos=def_pos,
                     use_pos=self.audit_pos)
        return name

    def _temp(self, code: str) -> str:
        """The program-local temp holding ``code`` (bound on first use,
        reused from then on)."""
        per_block = self.rolled and _ROW in code
        memo = self._run_memo if per_block else self._memo
        name = memo.get(code)
        if name is not None:
            return self._reused(name)
        name = f"_t{self._tmp_n}{_ROW if per_block else ''}"
        self._tmp_n += 1
        memo[code] = name
        self._defs[name] = (self.audit_node, self.audit_pos)
        dest = (self._hoisted if self.rolled and not per_block
                else self._prelude)
        dest.append(f"{name} = {code}")

        def unbind():
            del memo[code], self._defs[name]
            dest.pop()
            self._tmp_n -= 1
        self._undo.append(unbind)
        return name

    def _rollback(self, mark: Tuple[int, int]) -> None:
        """Take back the temporaries and audit records made since
        ``mark`` (by an emission attempt whose result is discarded)."""
        bound, records = mark
        while len(self._undo) > bound:
            self._undo.pop()()
        del self.audit[records:]

    def _mask(self, c01: str, bits: int) -> str:
        """Temp holding the all-ones/zeros select mask of the 0/1
        condition ``c01`` at ``bits``.

        ``c01`` must be a uint8 batch (see :meth:`_cond_mask`), so each
        mask's dtype is exactly the width it is recorded under.  The
        condition is evaluated once per program: a mask at a second
        width is derived from the first (truncate, or sign-extend
        through the signed view — 0 and -1 survive both) instead of
        re-evaluating ``c01``.
        """
        per_block = self.rolled and _ROW in c01
        masks = self._run_masks if per_block else self._masks
        have = masks.setdefault(c01, {})
        name = have.get(bits)
        if name is not None:
            return self._reused(name)
        dt = _dt_name(bits)
        if have:
            src_bits, src = next(iter(have.items()))
            if bits < src_bits:
                code = f"{src}.astype({dt})"
            else:
                code = (f"{src}.view(np.int{src_bits})"
                        f".astype(np.int{bits}).view({dt})")
        else:
            code = f"({dt}(0) - {c01})"
        name = have[bits] = self._temp(code)
        self._undo.append(lambda: have.pop(bits))
        return name

    def drain_prelude(self) -> List[str]:
        out, self._prelude = self._prelude, []
        self._undo.clear()
        return out

    def drain_hoisted(self) -> List[str]:
        out, self._hoisted = self._hoisted, []
        return out

    def _has_ident(self, e: A.Expr) -> bool:
        """True when the emitted value is guaranteed to be a batch array
        (it reads design state and does not fold)."""
        if self._fold(e) is not None:
            return False
        if isinstance(e, (A.Ident, A.Index, A.PartSelect, A.IndexedPartSelect)):
            return True
        if isinstance(e, A.Unary):
            return self._has_ident(e.operand)
        if isinstance(e, A.Binary):
            return self._has_ident(e.left) or self._has_ident(e.right)
        if isinstance(e, A.Ternary):
            return (self._has_ident(e.cond) or self._has_ident(e.then)
                    or self._has_ident(e.other))
        if isinstance(e, A.Concat):
            return any(self._has_ident(p) for p in e.parts)
        if isinstance(e, A.Repeat):
            return self._has_ident(e.value)
        return False

    # -- lookup lowerings --------------------------------------------------------

    def lookup_lines(self) -> List[str]:
        """Module-level bindings of the selector index tables and lookup
        tables emitted so far."""
        lines = [f"{name} = np.array({list(rows)}, dtype=u8)"
                 for rows, name in self._ix.items()]
        lines += [f"{name} = np.array({list(values)}, dtype={_dt_name(bits)})"
                  for (bits, values), name in self._luts.items()]
        return lines

    def _key_consts(self, cond: A.Expr
                    ) -> Optional[Tuple[A.Expr, List[int]]]:
        """``(k, [c, ...])`` when ``cond`` is ``k == c`` (either side
        constant) or an ``||`` of such compares over one ``k``."""
        if not isinstance(cond, A.Binary):
            return None
        if cond.op == "||":
            l = self._key_consts(cond.left)
            r = self._key_consts(cond.right)
            if l is None or r is None or not self._same_key(l[0], r[0]):
                return None
            return l[0], l[1] + r[1]
        if cond.op not in ("==", "==="):
            return None
        for k, c in ((cond.left, cond.right), (cond.right, cond.left)):
            v = self._fold(c)
            if v is not None and self._fold(k) is None:
                return k, [v]
        return None

    @classmethod
    def _same_key(cls, a: A.Expr, b: A.Expr) -> bool:
        """Two compares test one selector (a ``case`` subject is one
        shared expression object)."""
        return a is b or cls._same(a, b)

    def _key_width(self, k: A.Expr) -> Optional[int]:
        """Bits bounding a selector's value (at most ``_KEY_BITS``): a
        signal or a select stays below its own width, any other value
        below its context width."""
        if isinstance(k, A.Ident):
            w = self._widths.get(k.name, 0)
        elif isinstance(k, A.PartSelect) or (
                isinstance(k, A.Index) and not k.is_memory):
            w = k.width
        else:
            w = k.ctx_width
        return w if 0 < w <= _KEY_BITS else None

    def _keyed_chain(self, e: A.Ternary) -> Optional[_KeyedChain]:
        """The keyed mux chain rooted at ``e`` (at least ``_KEY_MIN``
        distinct reachable constants), else None; memoised per node."""
        chain = self._chains.get(id(e), _UNSEEN)
        if chain is not _UNSEEN:
            return chain
        chain = None
        sel, width, node = None, 0, e
        links: List[Tuple[List[int], A.Expr]] = []
        while isinstance(node, A.Ternary):
            kc = self._key_consts(node.cond)
            if kc is None:
                break
            if sel is None:
                sel, width = kc[0], self._key_width(kc[0])
                if width is None:
                    break
            elif not self._same_key(kc[0], sel):
                break
            links.append((kc[1], node.then))
            node = node.other
        owner: Dict[int, int] = {}
        arms: List[Tuple[Tuple[int, ...], A.Expr]] = []
        for consts, arm in links:
            mine = tuple(c for c in dict.fromkeys(consts)
                         if c < (1 << width) and c not in owner)
            if mine:
                owner.update((c, len(arms)) for c in mine)
                arms.append((mine, arm))
        if len(owner) >= _KEY_MIN and _limbs(e.ctx_width) == 1:
            full = len(owner) == 1 << width
            chain = _KeyedChain(
                sel, width, len(links), arms, None if full else node,
                tuple(owner.get(v, len(arms)) for v in range(1 << width)))
        self._chains[id(e)] = chain
        return chain

    def _ix_table(self, rows: Tuple[int, ...]) -> str:
        """The module-level index table mapping selector values to rows."""
        name = self._ix.get(rows)
        if name is None:
            name = self._ix[rows] = f"_IX{len(self._ix)}"
            self._undo.append(lambda: self._ix.pop(rows))
        return name

    def _keyed_select(self, e: A.Ternary, demand: Optional[int]
                      ) -> Optional[Tuple[str, int]]:
        """A keyed mux chain as one gather, or None.

        Each reachable arm is emitted once — native tier at ``demand``,
        else uint64 — into a row of a per-evaluation stack ``_Sn`` of one
        common dtype: the widest arm's, capped at the narrowest holding
        the demanded bits.  Each lane then reads row
        ``rows[k]``: ``_Sn[k, LANE]`` when that row is ``k`` itself, else
        ``_Sn[_IXn[k], LANE]`` through a module-level index table.  The
        stack is local to the program call — every simulator built from
        one model shares one namespace, so a module-level buffer would
        race between them.
        """
        if self.rolled:
            return None
        chain = self._keyed_chain(e)
        if chain is None:
            return None
        sel = self.emit_native(chain.key)
        key = sel[0] if sel is not None else self.emit(chain.key)
        arms = [arm for _, arm in chain.arms]
        if chain.default is not None:
            arms.append(chain.default)
        codes, widest = [], 8
        for arm in arms:
            nat = self.emit_native(arm, demand)
            code, b = nat if nat is not None else (self.emit(arm), 64)
            codes.append(code)
            widest = max(widest, b)
        # Only the low ``demand`` bits (exact: the context width) of an
        # arm are read, so a narrower row truncates nothing needed.
        need = self._fit_bits(e.ctx_width if demand is None else demand)
        bits = min(widest, need)
        dense = chain.rows == tuple(range(len(chain.rows)))
        ix = None if dense else self._ix_table(chain.rows)
        stack = f"_S{self._stack_n}"
        self._stack_n += 1
        lines = [f"{stack} = np.empty(({len(codes)}, N), {_dt_name(bits)})"]
        lines += [f"{stack}[{i}] = {code}" for i, code in enumerate(codes)]
        self._prelude.extend(lines)

        def unbind():
            del self._prelude[-len(lines):]
            self._stack_n -= 1
        self._undo.append(unbind)
        self._record("keyed-select", e, selector=key, width=chain.width,
                     links=chain.links,
                     constants=[list(c) for c, _ in chain.arms],
                     rows=list(chain.rows), index=ix, stack=stack)
        return f"{stack}[{key if dense else f'{ix}[{key}]'}, LANE]", bits

    def _table_support(self, e: A.Expr, names: Dict[str, None]
                       ) -> Optional[int]:
        """Operator count of ``e``, collecting the signals it reads into
        ``names``; None when it reads a memory or divides (a table would
        hide a zero divisor from the div-fault sink)."""
        if isinstance(e, A.Ident):
            names[e.name] = None
            return 0
        if isinstance(e, A.Index) and e.is_memory:
            return None
        if isinstance(e, A.Binary) and e.op in ("/", "%"):
            return None
        if isinstance(e, (A.Index, A.PartSelect, A.IndexedPartSelect)):
            names[e.base] = None
        ops = 0 if isinstance(e, A.Number) else 1
        for kid in _kids(e):
            n = self._table_support(kid, names)
            if n is None:
                return None
            ops += n
        return ops

    def emit_table(self, nid: int, e: A.Expr, width: int, bits: int
                   ) -> Optional[str]:
        """``_LUTn[index]``, node ``nid``'s ``e`` stored at ``width`` bits
        looked up in a module-level table of ``bits``-bit entries, or None.

        Applies when ``e`` reads no memory and does not divide, its input
        signals total at most ``_TABLE_BITS`` bits, and it has more
        operators (selects included) than the lookup costs: one gather,
        plus a shift and an OR per input after the first and an unpack
        per lane-packed input.
        Entry ``v`` is ``eval_expr(e) & mask(width)`` with the inputs,
        sorted by name, packed into ``v`` from the high bits down; the
        entries are evaluated once per graph (``RtlGraph.tables``).
        """
        if self.rolled:
            return None
        names: Dict[str, None] = {}
        ops = self._table_support(e, names)
        if not ops or not names:
            return None
        inputs = sorted(names)
        widths = [self._widths.get(n, 0) for n in inputs]
        total = sum(widths)
        if 0 in widths or total > _TABLE_BITS:
            return None
        loads = [self._native_load(n) for n in inputs]
        if any(load is None or load[1] != 8 for load in loads):
            return None
        packed = sum(self.layout.slots[n].pool == PACKED_POOL for n in inputs)
        if ops <= 1 + 2 * (len(inputs) - 1) + packed:
            return None
        tables = self.graph.tables
        if nid not in tables:
            t0 = time.perf_counter()
            tables[nid] = self._tabulate(e, inputs, widths, width)
            self.table_build_s += time.perf_counter() - t0
        values = tables[nid]
        if values is None:
            return None
        key = (bits, values)
        name = self._luts.get(key)
        if name is None:
            name = self._luts[key] = f"_LUT{len(self._luts)}"
        parts, shift = [], total
        for (code, _), w in zip(loads, widths):
            shift -= w
            parts.append(f"(({code}) << {shift})" if shift else code)
        index = parts[0] if len(parts) == 1 else f"({' | '.join(parts)})"
        self._record("table", e, table=name, width=width, bits=bits,
                     inputs=[[n, w] for n, w in zip(inputs, widths)])
        return f"{name}[{index}]"

    def _tabulate(self, e: A.Expr, inputs: List[str], widths: List[int],
                  width: int) -> Optional[Tuple[int, ...]]:
        """:meth:`emit_table`'s entries through the reference interpreter,
        or None when it fails on some input."""
        from repro.baselines.reference import eval_expr

        total = sum(widths)
        m = bv.mask(width)
        values = []
        try:
            for v in range(1 << total):
                state, shift = {}, total
                for n, w in zip(inputs, widths):
                    shift -= w
                    state[n] = (v >> shift) & bv.mask(w)
                values.append(eval_expr(e, state, _NO_MEMS, self._widths) & m)
        except Exception:
            return None
        return tuple(values)

    # -- tier 1: lane-packed 1-bit emission -----------------------------------

    def emit_packed(self, e: A.Expr) -> Optional[str]:
        """(W,) packed-word code for a 1-bit-valued expression, or None.

        Invariant: a non-None result holds, per lane, exactly the 0/1
        reference value of the expression (tail bits zero), so packed
        subvalues compose under &, |, ^ and xnor without re-masking.
        """
        if _limbs(e.ctx_width) > 1 or self.rolled:
            # (Word-level ops have no row axis: a rolled-up run computes
            # its conditions on the native tier.)
            return None
        mark = len(self._undo), len(self.audit)
        code = self._packed(e)
        if code is None:
            self._rollback(mark)
        return code

    def _pack_bool(self, cond: str) -> str:
        """``pk.pack_bool(cond)`` — or the temp this program bound to it
        (a packed mux binds its condition, see :meth:`_packed_mux`)."""
        code = f"pk.pack_bool({cond}, N)"
        name = self._memo.get(code)
        return code if name is None else self._reused(name)

    def _folded(self, arms, codes) -> None:
        """Record the all-lanes-constant operands a packed fold drops."""
        for arm, code in zip(arms, codes):
            if code in (_PK_ZEROS, _PK_ONES):
                self._record("packed-const", arm, value=int(code == _PK_ONES))

    @staticmethod
    def _pand(a: str, b: str) -> str:
        if _PK_ZEROS in (a, b):
            return _PK_ZEROS
        if a == _PK_ONES or b == _PK_ONES:
            return b if a == _PK_ONES else a
        return f"(({a}) & ({b}))"

    @staticmethod
    def _por(a: str, b: str) -> str:
        if _PK_ONES in (a, b):
            return _PK_ONES
        if a == _PK_ZEROS or b == _PK_ZEROS:
            return b if a == _PK_ZEROS else a
        return f"(({a}) | ({b}))"

    def _packed_mux(self, e: A.Ternary, c: str, t: str, f: str) -> str:
        """``c ? t : f`` on words: ``(c & t) | (~c & f)`` — tail-safe
        without re-masking because t and f have zero tails — with
        all-lanes-constant branches folded away (``c ? 0 : f`` is
        ``~c & f``, ``c ? 1 : f`` is ``c | f``, ``c ? t : 0`` is
        ``c & t``)."""
        self._folded((e.then, e.other), (t, f))
        if c.startswith("pk.pack_bool("):
            # Mux conditions recur (one decoder compare steers many
            # signals): value-number them.
            c = self._temp(c)
        if t == _PK_ONES:
            return self._por(c, f)
        if f == _PK_ONES:
            return self._por(f"pk.not_({c}, N)", t)
        if t == _PK_ZEROS:
            return f"(~({c}) & ({f}))"
        if f == _PK_ZEROS:
            return self._pand(c, t)
        return f"((({c}) & ({t})) | (~({c}) & ({f})))"

    def _packed(self, e: A.Expr) -> Optional[str]:
        c = e.value if isinstance(e, A.Number) else self._fold(e)
        if c is not None:
            # Only canonical 0/1 constants are packable: a wider constant
            # (e.g. 2'd2 drifting into a comparison) must keep its raw
            # value, which the native/base tiers preserve.
            if c == 0:
                return _PK_ZEROS
            if c == 1:
                return _PK_ONES
            return None
        if isinstance(e, A.Ident):
            slot = self.layout.slots.get(e.name)
            if slot is not None and slot.pool == PACKED_POOL:
                return self.mapper.slice_of(slot)
            return None
        if isinstance(e, A.Unary):
            if e.op == "!" or (e.op == "~" and e.ctx_width == 1):
                x = self.emit_packed(e.operand)
                if x is not None:
                    return f"pk.not_({x}, N)"
            if e.op == "!":
                n = self.emit_native(e.operand)
                if n is not None and self._has_ident(e.operand):
                    return self._pack_bool(f"({n[0]}) == 0")
            return None
        if isinstance(e, A.Ternary):
            cf = self._fold(e.cond)
            if cf is not None:
                return self.emit_packed(e.then if cf else e.other)
            if self._keyed_chain(e) is not None:
                return None  # gathered on the native tier, then packed
            cc = self.emit_packed(e.cond)
            tc = self.emit_packed(e.then)
            fc = self.emit_packed(e.other)
            if cc is None or tc is None or fc is None:
                return None
            return self._packed_mux(e, cc, tc, fc)
        if isinstance(e, A.Binary):
            op = e.op
            if op in ("&", "&&", "|", "||", "^"):
                mark = len(self._undo), len(self.audit)
                l = self.emit_packed(e.left)
                r = self.emit_packed(e.right)
                if l is not None and r is not None:
                    if op == "^":
                        return f"(({l}) ^ ({r}))"
                    self._folded((e.left, e.right), (l, r))
                    if op in ("&", "&&"):
                        return self._pand(l, r)
                    return self._por(l, r)
                self._rollback(mark)
                if op in ("&&", "||"):
                    ln = self.emit_native(e.left)
                    rn = self.emit_native(e.right)
                    if ln is not None and rn is not None and self._has_ident(e):
                        sym = "&" if op == "&&" else "|"
                        return self._pack_bool(
                            f"(({ln[0]}) != 0) {sym} (({rn[0]}) != 0)")
                return None
            if op in ("~^", "^~") and e.ctx_width == 1:
                l = self.emit_packed(e.left)
                r = self.emit_packed(e.right)
                if l is not None and r is not None:
                    return f"pk.not_(({l}) ^ ({r}), N)"
                return None
            if op in ("==", "!="):
                mark = len(self._undo), len(self.audit)
                l = self.emit_packed(e.left)
                r = self.emit_packed(e.right)
                if l is not None and r is not None:
                    x = f"(({l}) ^ ({r}))"
                    return x if op == "!=" else f"pk.not_({x}, N)"
                self._rollback(mark)
            if op in _CMP:
                ln = self.emit_native(e.left)
                rn = self.emit_native(e.right)
                if ln is not None and rn is not None and self._has_ident(e):
                    return self._pack_bool(f"({ln[0]}) {_CMP[op]} ({rn[0]})")
            return None
        return None

    # -- tier 2: native-dtype emission ----------------------------------------

    def _native_const(self, v: int, ctx_width: int):
        if v < 0:
            return None
        nbits = max(v.bit_length(), 1)
        if nbits > 64:
            return None
        for dt, bits in zip(_NATIVE_DT, _NATIVE_BITS):
            if nbits <= bits:
                return f"{dt}({v})", bits
        return None  # pragma: no cover

    def _native_load(self, name: str):
        slot = self.layout.slots.get(name)
        if slot is None:
            return None
        if slot.pool == PACKED_POOL:
            return f"pk.unpack_u8({self.mapper.slice_of(slot)}, N)", 8
        if slot.limbs != 1:
            return None
        return self.mapper.slice_of(slot), _NATIVE_BITS[slot.pool]

    def mem_word(self, e: A.Index):
        """``(mem slot, address)`` when ``e`` reads a memory at a constant
        in-range address — the word is then an ordinary slot of the
        memory's pool — else None: out-of-range and dynamic reads keep
        going through ``rt.mem_read`` (zeros / a per-lane gather)."""
        idx = e.index
        addr = idx.value if type(idx) is A.Number else self._fold(idx)
        mem = self.layout.mems.get(e.base)
        if (addr is None or mem is None or mem.width > 64
                or not 0 <= addr < mem.depth):
            return None
        return mem, addr

    def _mem_row(self, e: A.Index) -> Optional[Tuple[str, int]]:
        """``(slice, dtype_bits)`` of a constant in-range memory word."""
        word = self.mem_word(e)
        if word is None:
            return None
        return self.mapper.mem_row(*word), _NATIVE_BITS[word[0].pool]

    def emit_native(self, e: A.Expr, demand: Optional[int] = None):
        """``(code, dtype_bits)`` at the smallest sound dtype, or None.

        Two soundness modes, selected by ``demand``:

        * ``demand=None`` (exact): the emitted batch value, viewed
          zero-extended, equals the scalar ``eval_expr`` value of ``e``
          per lane — so comparisons, shifts and truthiness on native
          subvalues are always sound.
        * ``demand=d``: only the low ``d`` bits are guaranteed (again
          under the zero-extended view); physical bits at and above
          ``d`` may hold wrap garbage.  This is the store path's mode —
          a register of width ``w`` only keeps ``w`` bits, so ``+ - *``
          chains compute at the *storage* dtype instead of widening to
          the (often 32-bit integer) expression context.  Demand
          propagates structurally: wrap and bitwise ops pass it through,
          ``<<``/``>>`` shift it, and every exactness-sensitive consumer
          (comparison operand, truthiness, dynamic-shift amount)
          requests exact sub-emission.

        Emission bails (returns None) whenever soundness would need a
        compute dtype wider than uint64; the caller then falls back to
        the uint64 tier.
        """
        mark = len(self._undo), len(self.audit)
        out = self._native(e, demand)
        if out is None:
            self._rollback(mark)
        return out

    def _native(self, e: A.Expr, demand: Optional[int]):
        if _limbs(e.ctx_width) > 1:
            return None
        if demand is not None and demand >= e.ctx_width:
            demand = None  # an exact value satisfies any wider demand
        c = self._fold(e)
        if c is not None:
            return self._native_const(c, e.ctx_width)
        if isinstance(e, A.Number):
            return self._native_const(e.value, e.ctx_width)
        if isinstance(e, A.Ident):
            return self._native_load(e.name)
        if isinstance(e, A.Unary):
            return self._native_unary(e, demand)
        if isinstance(e, A.Binary):
            return self._native_binary(e, demand)
        if isinstance(e, A.Ternary):
            cf = self._fold(e.cond)
            if cf is not None:
                return self.emit_native(e.then if cf else e.other, demand)
            keyed = self._keyed_select(e, demand)
            if keyed is not None:
                return keyed
            inc = self._native_inc_mux(e, demand)
            if inc is not None:
                return inc
            # Constant-zero branch: the blend collapses to a single
            # AND with the (possibly negated) mask — common for resets.
            if self._fold(e.then) == 0:
                f = self.emit_native(e.other, demand)
                if f is None:
                    return None
                m = self._cond_mask(e.cond, f[1])
                if m is None:
                    return None
                self._record("const0-branch", e.then)
                return f"(({f[0]}) & ~{m})", f[1]
            if self._fold(e.other) == 0:
                t = self.emit_native(e.then, demand)
                if t is None:
                    return None
                m = self._cond_mask(e.cond, t[1])
                if m is None:
                    return None
                self._record("const0-branch", e.other)
                return f"(({t[0]}) & {m})", t[1]
            t = self.emit_native(e.then, demand)
            f = self.emit_native(e.other, demand)
            if t is None or f is None:
                return None
            bits = max(t[1], f[1])
            m = self._cond_mask(e.cond, bits)
            if m is None:
                return None
            # Branchless mux: (t & m) | (f & ~m) with an all-ones/zeros
            # mask — bitwise selection, so demand-mode wrap garbage in
            # the unread high bits stays harmless.  (np.where pays an
            # order of magnitude more per element here.)
            return f"((({t[0]}) & {m}) | (({f[0]}) & ~{m}))", bits
        if isinstance(e, A.Index) and e.is_memory:
            return self._mem_row(e)
        if isinstance(e, (A.Index, A.PartSelect)):
            # (A select wholly above its signal folded to 0 above.)
            if isinstance(e, A.Index):
                lsb, width = self._fold(e.index), 1
                if lsb is None:
                    return None
            else:
                lsb, width = getattr(e, "_lsb_i"), e.width
            slot = self.layout.slots.get(e.base)
            if slot is None:
                return None
            if slot.pool == PACKED_POOL:  # 1-bit base: x[0], x[0:0]
                return self._native_load(e.base) if width == 1 else None
            if slot.limbs == 1:
                code, bits, avail = (self.mapper.slice_of(slot),
                                     _NATIVE_BITS[slot.pool], slot.width)
            else:  # one limb row of a wide signal
                row, lsb = divmod(lsb, 64)
                if lsb + width > 64:
                    return None
                code, bits = self._rows(e.base, row, row + 1), 64
                avail = min(64, slot.width - 64 * row)
            if lsb:
                code = f"(({code}) >> {lsb})"
            if avail > lsb + width:
                code = f"(({code}) & {_dt_name(bits)}({bv.mask(width)}))"
            return code, bits
        return None

    def _is_bool(self, e: A.Expr) -> bool:
        """True when the native emission of ``e`` is exactly 0/1-valued."""
        c = self._fold(e)
        if c is not None:
            return c in (0, 1)
        if isinstance(e, A.Ident):
            slot = self.layout.slots.get(e.name)
            return slot is not None and slot.width == 1
        if isinstance(e, A.Unary):
            return e.op == "!"
        if isinstance(e, A.Binary):
            return e.op in _CMP or e.op in ("&&", "||")
        if isinstance(e, A.Ternary):
            return self._is_bool(e.then) and self._is_bool(e.other)
        if isinstance(e, A.Index):  # single-bit select of a variable
            return not e.is_memory
        return False

    def _bool_u8(self, e: A.Expr) -> Optional[str]:
        """uint8 code of ``e`` when its native emission is exactly 0/1.

        A bit-select of a 16/32/64-bit slot (or a mux of such) is 0/1 at
        the *slot's* dtype; it is narrowed here, so every 0/1 condition
        is a uint8 batch and the masks and increments built from it land
        at exactly the dtype their caller claims (numpy would otherwise
        promote ``u8(0) - c`` and ``x + c`` to the condition's dtype).
        """
        if not self._is_bool(e):
            return None
        n = self.emit_native(e)
        if n is None:
            return None
        return n[0] if n[1] == 8 else f"({n[0]}).astype(u8)"

    def _cond_mask(self, e: A.Expr, bits: int) -> Optional[str]:
        """Temp holding the all-ones/zeros select mask at ``bits`` of
        ``e``'s truthiness (None when ``e`` has no native emission).

        ``dt(0) - cond`` turns an exact 0/1 condition into 0x00…/0xFF…
        directly: every condition handed to :meth:`_mask` is a uint8
        batch, no wider than any mask dtype, so the subtraction lands at
        exactly ``bits`` (NEP 50 scalar dtypes are strong) without
        materializing an intermediate.
        """
        b = self._bool_u8(e)
        if b is not None:
            return self._mask(f"({b})", bits)
        p = self.emit_packed(e)
        if p is not None:
            return self._mask(f"pk.unpack_u8({p}, N)", bits)
        n = self.emit_native(e)
        if n is None:
            return None
        return self._mask(f"(({n[0]}) != 0).view(u8)", bits)

    def _native_inc_mux(
        self, e: A.Ternary, demand: Optional[int]
    ) -> Optional[Tuple[str, int]]:
        """``c ? x + 1 : x`` as ``x + (c as 0/1)`` — one add, no mask.

        The enable-counter idiom.  Addition wraps, so this inherits the
        wrap-op soundness rule: the compute dtype must cover the demanded
        bits (widening the base when necessary), and the result is exact
        only when the dtype already covers the full context width.
        """
        t, f = e.then, e.other
        if not (isinstance(t, A.Binary) and t.op == "+"):
            return None
        if not ((self._fold(t.right) == 1 and self._same(t.left, f))
                or (self._fold(t.left) == 1 and self._same(t.right, f))):
            return None
        base = self.emit_native(f, demand)
        if base is None:
            return None
        code, bits = base
        need = demand if demand is not None else e.ctx_width
        if bits < need:
            want = self._fit_bits(need)
            if want is None:
                return None
            code, bits = self._widen(code, bits, want)
        c01 = self._cond01(e.cond)
        if c01 is None:
            return None
        self._record("inc-mux", e)
        out = f"(({code}) + ({c01}))"
        if demand is None and e.ctx_width < bits:
            out = f"(({out}) & {_dt_name(bits)}({bv.mask(e.ctx_width)}))"
        return out, bits

    def _cond01(self, e: A.Expr) -> Optional[str]:
        """A 0/1-valued uint8 batch from ``e``'s truthiness (no mask)."""
        b = self._bool_u8(e)
        if b is not None:
            return b
        p = self.emit_packed(e)
        if p is not None:
            return f"pk.unpack_u8({p}, N)"
        n = self.emit_native(e)
        if n is None:
            return None
        return f"(({n[0]}) != 0).view(u8)"

    @staticmethod
    def _fit_bits(width: int) -> Optional[int]:
        """Smallest native bit width that can hold ``width`` bits."""
        for bits in _NATIVE_BITS:
            if width <= bits:
                return bits
        return None

    @staticmethod
    def _widen(code: str, bits: int, want: int) -> Tuple[str, int]:
        """Upcast a native subvalue to a wider dtype (exact — zero-extend).

        Works on batch arrays and numpy scalars alike (both have
        ``astype``); used when a wrap-around op needs a compute dtype
        wider than its operands (e.g. ``count + 1`` in a 32-bit integer
        context over uint8 storage).
        """
        if bits >= want:
            return code, bits
        return f"({code}).astype({_dt_name(want)})", want

    def _native_unary(self, e: A.Unary, demand: Optional[int] = None):
        if e.op == "!":
            x = self.emit_native(e.operand)
            if x is None or not self._has_ident(e.operand):
                return None
            return f"(({x[0]}) == 0).view(u8)", 8
        if e.op in ("~", "-", "+"):
            x = self.emit_native(e.operand, demand)
            if x is None:
                return None
            code, bits = x
            if e.op == "+":
                return code, bits
            # ~ flips and - borrows across every compute bit: the dtype
            # must cover the needed width (context, or just the demanded
            # low bits when the consumer masks anyway).
            need = demand if demand is not None else e.ctx_width
            if bits < need:
                want = self._fit_bits(need)
                if want is None:
                    return None
                code, bits = self._widen(code, bits, want)
            dt = _dt_name(bits)
            if e.op == "~":
                body = f"(~({code}))"
            else:
                body = f"({dt}(0) - ({code}))"
            if demand is None and e.ctx_width < bits:
                body = f"({body} & {dt}({bv.mask(e.ctx_width)}))"
            return body, bits
        return None  # reductions: uint64 tier

    def _native_binary(self, e: A.Binary, demand: Optional[int] = None):
        op = e.op
        if op in ("&&", "||"):
            if not self._has_ident(e):
                return None
            l = self.emit_native(e.left)
            r = self.emit_native(e.right)
            if l is None or r is None:
                return None
            sym = "&" if op == "&&" else "|"
            return (f"((({l[0]}) != 0) {sym} (({r[0]}) != 0)).view(u8)", 8)
        if op in _CMP:
            # Comparison operands are exactness-sensitive: always exact.
            if not self._has_ident(e):
                return None
            l = self.emit_native(e.left)
            r = self.emit_native(e.right)
            if l is None or r is None:
                return None
            return f"(({l[0]}) {_CMP[op]} ({r[0]})).view(u8)", 8
        if op in ("<<", "<<<", ">>", ">>>"):
            amt = self._fold(e.right)
            if amt is None:
                return None  # dynamic shift amounts: uint64 tier (bvb)
            if amt >= e.ctx_width or (demand is not None and op in ("<<", "<<<")
                                      and amt >= demand):
                return self._native_const(0, e.ctx_width)
            if op in ("<<", "<<<"):
                # Low ``demand`` result bits come from the operand's low
                # ``demand - amt`` bits.
                l = self.emit_native(
                    e.left, None if demand is None else demand - amt
                )
                if l is None:
                    return None
                code, bits = l
                need = demand if demand is not None else e.ctx_width
                if bits < need:
                    want = self._fit_bits(need)
                    if want is None:
                        return None
                    code, bits = self._widen(code, bits, want)
                body = f"(({code}) << {amt})" if amt else code
                if demand is None and e.ctx_width < bits:
                    body = f"({body} & {_dt_name(bits)}({bv.mask(e.ctx_width)}))"
                return body, bits
            # >>: result bits [0, d) are operand bits [amt, amt + d).
            l = self.emit_native(
                e.left, None if demand is None else amt + demand
            )
            if l is None:
                return None
            code, bits = l
            if amt >= bits:
                # The operand value has no bits there (and C shift-by-
                # >=width is undefined; sidestep it).  Still a batch: the
                # operand reads design state (a scalar here would pack
                # into lane 0 only).
                return f"(({code}) & {_dt_name(bits)}(0))", bits
            return (f"(({code}) >> {amt})" if amt else code), bits
        if op in ("+", "-", "*", "&", "|", "^", "~^", "^~"):
            # Low result bits of all of these depend only on equally-low
            # operand bits: demand passes straight through.
            l = self.emit_native(e.left, demand)
            r = self.emit_native(e.right, demand)
            if l is None or r is None:
                return None
            lc, lb = l
            rc, rb = r
            bits = max(lb, rb)
            wraps = op not in ("&", "|", "^")
            need = demand if demand is not None else e.ctx_width
            if wraps and bits < need:
                # Carries/flips reach past the operand dtypes: widen one
                # side (a constant side for free — NEP 50 scalar dtypes
                # are "strong", so the promotion carries the batch array
                # along) and compute at the needed width.
                want = self._fit_bits(need)
                if want is None:
                    return None
                if self._fold(e.right) is not None:
                    rc, rb = self._widen(rc, rb, want)
                else:
                    lc, lb = self._widen(lc, lb, want)
                bits = want
            table = {
                "+": f"(({lc}) + ({rc}))",
                "-": f"(({lc}) - ({rc}))",
                "*": f"(({lc}) * ({rc}))",
                "&": f"(({lc}) & ({rc}))",
                "|": f"(({lc}) | ({rc}))",
                "^": f"(({lc}) ^ ({rc}))",
                "~^": f"(~(({lc}) ^ ({rc})))",
                "^~": f"(~(({lc}) ^ ({rc})))",
            }
            body = table[op]
            # &, |, ^ of sound subvalues stay sound unmasked (eval_expr
            # does not mask them either); wrap ops in exact mode mask to
            # the context unless the compute dtype already wraps there —
            # in demand mode the consumer discards those bits anyway.
            if wraps and demand is None and e.ctx_width < bits:
                body = f"({body} & {_dt_name(bits)}({bv.mask(e.ctx_width)}))"
            return body, bits
        return None  # / % ** : uint64 tier (div-fault sink lives there)


@dataclass
class MemWriteBinding:
    """Commit-time binding for one guarded memory write."""

    node_id: int
    clock: str
    edge: str
    mem_pool: int
    mem_base: int
    mem_depth: int
    cond_pool: int
    cond_off: int
    addr_pool: int
    addr_off: int
    data_pool: int
    data_off: int


@dataclass
class TaskModule:
    """The compiled per-task module: one program per macro task, emitted
    by :class:`FusedProgramCodegen` over the model's layout (``audit``
    and ``order`` as in :class:`FusedPrograms`)."""

    layout: MemoryLayout
    source: str
    namespace: Dict[str, object]
    task_fns: Dict[int, Callable]
    transpile_seconds: float = 0.0
    audit: List[AuditRecord] = field(default_factory=list)
    order: Dict[str, List[List[int]]] = field(default_factory=dict)


def _mem_write_bindings(graph: RtlGraph,
                        layout: MemoryLayout) -> List[MemWriteBinding]:
    """Commit-time bindings of every guarded memory write over ``layout``
    (program order)."""
    out: List[MemWriteBinding] = []
    for node in graph.memw_nodes:  # original program order
        sc = layout.scratch[node.nid]
        ms = layout.mem(node.target)
        out.append(MemWriteBinding(
            node_id=node.nid, clock=node.clock or "", edge=node.edge,
            mem_pool=ms.pool, mem_base=ms.base, mem_depth=ms.depth,
            cond_pool=sc.cond.pool, cond_off=sc.cond.offset,
            addr_pool=sc.addr.pool, addr_off=sc.addr.offset,
            data_pool=sc.data.pool, data_off=sc.data.offset,
        ))
    return out


class CompiledModel:
    """An RTL graph, its memory layout and its lazily built lowerings.

    One :class:`~repro.core.memory.MemoryLayout` (``layout``) and one
    list of commit bindings over it (``mem_writes``) serve every
    lowering and every executor.  The product engine only ever needs
    :meth:`fused`, built from the graph.  The partition (``taskgraph``)
    and the per-task module over it (:meth:`tasks`, and its views
    ``source``/``task_fns``/``transpile_seconds``) are made by their
    first reader: the ``graph``/``stream`` executors, the MCMC
    estimator, ``repro verify`` and ``repro transpile``.  ``tasks_built`` tells whether the module was
    built.
    """

    def __init__(self, graph: RtlGraph,
                 taskgraph: Optional[TaskGraph] = None,
                 tasks: Optional[TaskModule] = None):
        self.graph = graph
        self._taskgraph = taskgraph
        self._tasks = tasks
        self._layout = None if tasks is None else tasks.layout
        self._mem_writes: Optional[List[MemWriteBinding]] = None
        self._fused: Optional["FusedPrograms"] = None

    @property
    def design(self):
        return self.graph.design

    @property
    def taskgraph(self) -> TaskGraph:
        """The macro-task partition (default settings unless one was
        passed in; made on first read, cached)."""
        if self._taskgraph is None:
            self._taskgraph = partition(self.graph)
        return self._taskgraph

    @property
    def layout(self) -> MemoryLayout:
        """The design's memory layout (made on first read, cached)."""
        if self._layout is None:
            self._layout = MemoryLayout.from_graph(self.graph)
        return self._layout

    @property
    def mem_writes(self) -> List[MemWriteBinding]:
        """Commit bindings of the guarded memory writes over ``layout``."""
        if self._mem_writes is None:
            self._mem_writes = _mem_write_bindings(self.graph, self.layout)
        return self._mem_writes

    # -- the per-task module (lazy) ---------------------------------------------

    def tasks(self) -> TaskModule:
        """The per-task module (built on first use, cached)."""
        if self._tasks is None:
            self._tasks = KernelCodegen(self.taskgraph, self.layout).compile_tasks()
        return self._tasks

    @property
    def tasks_built(self) -> bool:
        return self._tasks is not None

    @property
    def source(self) -> str:
        return self.tasks().source

    @property
    def task_fns(self) -> Dict[int, Callable]:
        return self.tasks().task_fns

    @property
    def transpile_seconds(self) -> float:
        return self.tasks().transpile_seconds

    # -- the fused flat programs (lazy) -----------------------------------------

    def fused(self) -> "FusedPrograms":
        """The flat-program lowering of this model (built lazily, cached)."""
        if self._fused is None:
            self._fused = FusedProgramCodegen(self.graph, self.layout).compile()
        return self._fused

    # -- schedules ----------------------------------------------------------------

    def comb_schedule(self) -> List[int]:
        return list(self.taskgraph.comb_topo)

    def seq_schedule(self, clock: str, edge: str) -> List[int]:
        return [
            t.tid
            for t in self.taskgraph.tasks
            if t.kind is NodeKind.SEQ and t.clock == clock and t.edge == edge
        ]

    def clock_domains(self) -> List[Tuple[str, str]]:
        return list(self.graph.clock_domains())


class KernelCodegen:
    """The per-task transpile entry point: a macro-task partition in,
    one program per task out (emitted by :class:`FusedProgramCodegen`)."""

    def __init__(self, taskgraph: TaskGraph, layout: Optional[MemoryLayout] = None):
        self.tg = taskgraph
        self.graph = taskgraph.graph
        self.layout = layout or MemoryLayout.from_graph(self.graph)

    def compile_tasks(self) -> TaskModule:
        """Generate, ``compile()`` and bind the per-task module."""
        return FusedProgramCodegen(self.graph, self.layout).compile_tasks(self.tg)

    def compile(self) -> CompiledModel:
        """A model with the per-task module already built (the explicit
        per-task transpile; :meth:`RTLFlow.compile` leaves it lazy)."""
        return CompiledModel(self.graph, self.tg, self.compile_tasks())


@dataclass
class FusedProgram:
    """One straight-line compiled program (the comb phase, or one clock
    domain): ``fn`` is the compiled numpy program the simulator executes."""

    name: str
    kind: str  # "comb" | "seq"
    domain: Optional[Tuple[str, str]]  # (clock, edge) for seq programs
    fn: Callable
    n_nodes: int


@dataclass
class FusedPrograms:
    """The fused flat-program lowering of an RTL graph.

    One program for the whole combinational phase, one per sequential
    clock domain — no per-task dispatch loop remains.  ``layout`` is the
    model's layout the programs were emitted against.
    """

    layout: MemoryLayout
    comb: FusedProgram
    seq: Dict[Tuple[str, str], FusedProgram]
    source: str
    namespace: Dict[str, object]
    transpile_seconds: float = 0.0
    # Rewrite claims the emitter made, for the translation validator.
    audit: List[AuditRecord] = field(default_factory=list)
    # Per program: the node ids of each emitted unit, in emission order
    # (a single node, or the members of one rolled-up run).  ``cse`` and
    # ``rollup`` audit records name positions in these lists.
    order: Dict[str, List[List[int]]] = field(default_factory=dict)
    # Size of the generated programs: ``statements`` (executable lines),
    # ``temporaries`` (``_t*`` bindings), ``helper_sites`` (call sites per
    # ``wv.``/``bvb.``/``pk.``/``rt.`` helper), of which ``unpack_sites`` /
    # ``mem_read_sites`` (``pk.unpack_u8`` / ``rt.mem_read``),
    # ``rolled_runs`` / ``rolled_members``, ``lines`` (whole source), and
    # the lookup lowerings: ``keyed_selects``, ``tables``,
    # ``table_entries`` (entries of the distinct tables) and
    # ``table_build_s`` (time spent evaluating them).
    stats: Dict[str, object] = field(default_factory=dict)


@dataclass
class _Run:
    """A rolled-up run: same-shape, mutually independent nodes whose
    operand ``i`` lives at pool offset ``base[i] + j * strides[i]`` for
    member ``j`` (operand 0 is the store, stride 0 a broadcast)."""

    nodes: List[RtlNode]
    anchor: int  # where the run is emitted: its earliest member's place
    pools: Tuple[int, ...]
    base: Tuple[int, ...]
    strides: Tuple[int, ...]


def _kids(e: A.Expr) -> Tuple[A.Expr, ...]:
    """The sub-expressions of ``e`` that emission descends into."""
    if isinstance(e, A.Binary):
        return (e.left, e.right)
    if isinstance(e, A.Ternary):
        return (e.cond, e.then, e.other)
    if isinstance(e, A.Unary):
        return (e.operand,)
    if isinstance(e, A.Concat):
        return tuple(e.parts)
    if isinstance(e, A.Repeat):
        return (e.value,)
    if isinstance(e, A.Index):
        return (e.index,)
    if isinstance(e, A.IndexedPartSelect):
        return (e.start,)
    return ()


def _path_to(root: A.Expr, target: A.Expr) -> Optional[Tuple[int, ...]]:
    """Child indexes leading from ``root`` down to ``target`` (the same
    path reaches the corresponding node of an equal-shape tree)."""
    if root is target:
        return ()
    for i, kid in enumerate(_kids(root)):
        sub = _path_to(kid, target)
        if sub is not None:
            return (i,) + sub
    return None


class FusedProgramCodegen:
    """The program emitter: straight-line programs over node sets.

    :meth:`compile` (the product) emits exactly one ``compile()``-d
    straight-line function per execution unit — the whole comb phase,
    and each sequential clock domain — with no per-task function calls
    left on the replay path, mirroring the paper's define-once/replay-
    per-cycle CUDA Graph.  The comb program is the RTL graph's levels
    flattened, a seq program its domain's nodes; no partition is
    involved.  :meth:`compile_tasks` emits one program per macro task of
    a partition instead, for the task-replaying engines.  Expressions
    lower through :class:`FusedExprCodegen` (packed/native/uint64 tiers).

    Within a program a sub-expression is computed once (value
    numbering, see :meth:`FusedExprCodegen.begin_program`), and a run of
    same-shape statements over evenly spaced slots — the members of a
    generate loop — is emitted once, over 2-D row-block views of the
    pools, instead of once per member (see ``docs/fusion.md``).
    """

    def __init__(self, graph: RtlGraph, layout: Optional[MemoryLayout] = None):
        self.graph = graph
        self.layout = layout or MemoryLayout.from_graph(graph)
        self.mapper = IndexMapper(self.layout)
        self.expr = FusedExprCodegen(self.mapper, self.graph)
        self.order: Dict[str, List[List[int]]] = {}
        self.stats = {"statements": 0, "rolled_runs": 0, "rolled_members": 0}

    # -- statement generation (packed/native-aware stores) ---------------------

    def _store(self, target: str, expr: A.Expr, shadow: bool) -> str:
        """Assignment statement for a full-signal store (COMB/SEQ)."""
        slot = self.layout.slot(target)
        if slot.pool == PACKED_POOL:
            tgt = self.mapper.slice_of(slot, shadow=shadow)
            c = self.expr._fold(expr)
            if c is not None:
                # Assignment to a 1-bit target keeps the low bit only.
                self.expr._record("packed-store", expr, mode="const",
                                  value=c & 1)
                return f"{tgt} = {_PK_ONES if (c & 1) else _PK_ZEROS}"
            pcode = self.expr.emit_packed(expr)
            if pcode is not None:
                self.expr._record("packed-store", expr, mode="packed")
                return f"{tgt} = {pcode}"
            nat = self.expr.emit_native(expr, 1)  # pack keeps the low bit
            if nat is not None:
                self.expr._record("packed-store", expr, mode="native")
                return f"{tgt} = pk.pack({nat[0]}, N)"
            self.expr._record("packed-store", expr, mode="fallback")
            return f"{tgt} = pk.pack({self.expr.emit_narrow(expr)}, N)"
        if slot.limbs == 1:
            nat = self.expr.emit_native(expr, slot.width)
            if nat is not None:
                code, bits = nat
                # Demand-mode results may carry wrap garbage at and above
                # slot.width.  Physical garbage exists only when the
                # compute dtype is wider than the slot, and it survives
                # the store only when the pool dtype is wider too (equal
                # widths truncate on assignment).
                masked = slot.width < min(bits, _NATIVE_BITS[slot.pool])
                if masked:
                    code = f"({code}) & {_dt_name(bits)}({bv.mask(slot.width)})"
                self.expr._record("demand-store", expr, demand=slot.width,
                                  bits=bits, masked=masked)
                return (
                    f"{self.mapper.store_target(target, shadow=shadow)} = {code}"
                )
            return (
                f"{self.mapper.store_target(target, shadow=shadow)} = "
                f"({self.expr.emit_narrow(expr)}) & u64({bv.mask(slot.width)})"
            )
        off = slot.next_offset if shadow else slot.offset
        lo, hi = off, off + slot.limbs
        code = self.expr.emit(expr)
        # Emitted values are canonical at their context width: only a
        # wider context (or a different limb count) needs the mask.
        if expr.ctx_width > slot.width or _limbs(expr.ctx_width) != slot.limbs:
            code = f"wv.mask_width({code}, {slot.width})"
        # Assigning through the (L, N) view broadcasts a constant column.
        return f"P64[{lo}*N:{hi}*N].reshape({slot.limbs}, N)[:] = {code}"

    def _table_store(self, node: RtlNode) -> Optional[str]:
        """A comb node's store as a table lookup (a packed or one-limb
        target, see :meth:`FusedExprCodegen.emit_table`), else None.
        Only comb nodes are tabulated, in whichever program they sit."""
        slot = self.layout.slot(node.target)
        packed = slot.pool == PACKED_POOL
        if not (packed or slot.limbs == 1):
            return None
        code = self.expr.emit_table(
            node.nid, node.expr, slot.width,
            8 if packed else _NATIVE_BITS[slot.pool])
        if code is None:
            return None
        if packed:
            return f"{self.mapper.slice_of(slot)} = pk.pack({code}, N)"
        return f"{self.mapper.store_target(node.target, shadow=False)} = {code}"

    def _node_stmts(self, node: RtlNode) -> List[str]:
        out: List[str] = []
        if node.kind is NodeKind.COMB:
            out.append(f"# {node.target} = ...;  {self.mapper.comment_for(node.target)}")
            out.append(self._table_store(node)
                       or self._store(node.target, node.expr, shadow=False))
        elif node.kind is NodeKind.SEQ:
            out.append(f"# {node.target} <= ...;  (shadow slot)")
            out.append(self._store(node.target, node.expr, shadow=True))
        elif node.kind is NodeKind.MEMW:
            sc = self.layout.scratch[node.nid]
            mem = self.graph.design.memories[node.target]
            m = bv.mask(mem.width)
            out.append(f"# if (cond) {node.target}[addr] <= data;  (scratch)")
            out.append(
                f"{self.mapper.slice_of(sc.cond)} = "
                f"(({self.expr.emit_bool(node.cond)}) != 0).astype(np.uint8)"
            )
            out.append(
                f"{self.mapper.slice_of(sc.addr)} = "
                f"{self.expr.emit_amount(node.addr)}"
            )
            out.append(
                f"{self.mapper.slice_of(sc.data)} = "
                f"({self.expr.emit_narrow(node.expr)}) & u64({m})"
            )
        else:  # pragma: no cover
            raise SimulationError(f"unknown node kind {node.kind}")
        return out

    # -- roll-up planning -------------------------------------------------------

    def _shape_of(self, node: RtlNode):
        """``((shape, pools), offsets)`` of a rollable node, else None.

        ``pools``/``offsets`` place the node's operands — operand 0 is
        the slot it stores to, the rest the slots it reads, one per
        distinct name in first-occurrence order.  ``shape`` holds
        everything else emission looks at: node types, operators,
        constants, the width annotations, and per name its operand index
        and the slot's width.  Two nodes with equal ``(shape, pools)``
        therefore emit the same text up to slot offsets.  Not rollable:
        memory writes, packed or wide targets, anything wide inside
        (``wv.*`` works on limb matrices), ``/ % **`` (their runtime
        helpers are per-lane: the div-fault sink takes an ``(N,)``
        mask), and memory reads that stay on ``rt.mem_read`` (dynamic or
        out of range).
        """
        if node.kind is NodeKind.MEMW:
            return None
        target = self.layout.slot(node.target)
        if target.pool == PACKED_POOL or target.limbs != 1:
            return None
        shadow = node.kind is NodeKind.SEQ
        key: list = [node.kind, target.width]
        pools = [target.pool]
        offs = [target.next_offset if shadow else target.offset]
        seen: Dict[object, int] = {}
        slots, mem_word = self.layout.slots, self.expr.mem_word

        def operand(name, pool: int, off: int) -> int:
            i = seen.get(name)
            if i is None:
                i = seen[name] = len(offs)
                pools.append(pool)
                offs.append(off)
            return i

        def slot_operand(name: str) -> bool:
            slot = slots.get(name)
            if slot is None or slot.limbs != 1:
                return False
            key.append(operand(name, slot.pool, slot.offset))
            key.append(slot.width)
            return True

        def walk(e: A.Expr) -> bool:
            w, cw = e.width, e.ctx_width
            if w > 64 or cw > 64:
                return False
            t = type(e)
            if t is A.Ident:
                key.extend(("v", w, cw))
                return slot_operand(e.name)
            if t is A.Number:
                key.extend(("n", e.value, w, cw))
                return True
            if t is A.Binary:
                if e.op in ("/", "%", "**"):
                    return False
                key.extend(("b", e.op, w, cw))
                return walk(e.left) and walk(e.right)
            if t is A.Ternary:
                key.extend(("t", w, cw))
                return walk(e.cond) and walk(e.then) and walk(e.other)
            if t is A.Unary:
                key.extend(("u", e.op, w, cw))
                return walk(e.operand)
            if t is A.Concat:
                key.extend(("c", len(e.parts), w, cw))
                return all(walk(p) for p in e.parts)
            if t is A.Repeat:
                key.extend(("r", getattr(e, "_count_i"), w, cw))
                return walk(e.value)
            if t is A.Index and e.is_memory:
                word = mem_word(e)
                if word is None:
                    return False
                mem, addr = word
                key.extend(("m", w, cw, mem.width, operand(
                    ("mem", e.base, addr), mem.pool, mem.base + addr)))
                return True
            if t is A.Index:
                key.extend(("i", w, cw))
                return slot_operand(e.base) and walk(e.index)
            if t is A.PartSelect:
                key.extend(("p", w, cw, getattr(e, "_lsb_i")))
                return slot_operand(e.base)
            if t is A.IndexedPartSelect:
                key.extend(("x", w, cw, getattr(e, "_width_i"),
                            getattr(e, "_base_lsb_i", 0), e.descending))
                return slot_operand(e.base) and walk(e.start)
            return False

        if not walk(node.expr):
            return None
        return (tuple(key), tuple(pools)), tuple(offs)

    @staticmethod
    def _split_runs(members: List[Tuple[Tuple[int, ...], int, RtlNode]],
                    pools: Tuple[int, ...]) -> List[_Run]:
        """Cut one shape group — ``(operand offsets, place, node)`` per
        member — into runs whose every operand offset advances by a
        constant stride from member to member.

        A stride vector is usable when the store advances (>= 1), no
        read moves backwards, and lane-packed operands do not move at
        all (their words have no row axis).  Members are tried in two
        orders — by store offset, and by read offsets (a ``for p / for
        j`` generate nest reads ``w[j]`` with period ``j`` when walked by
        target but affinely when walked by source) — and the one leaving
        fewer statements wins.
        """
        packed = [i for i, p in enumerate(pools) if p == PACKED_POOL]

        def step(a, b) -> Optional[Tuple[int, ...]]:
            d = tuple(y - x for x, y in zip(a[0], b[0]))
            ok = d[0] >= 1 and min(d) >= 0 and not any(d[i] for i in packed)
            return d if ok else None

        def greedy(ms) -> Tuple[int, List[_Run]]:
            runs: List[_Run] = []
            units, i, n = 0, 0, len(ms)
            while i < n:
                j, d = i, None
                if i + 1 < n:
                    d = step(ms[i], ms[i + 1])
                if d is not None:
                    j = i + 1
                    while j + 1 < n and step(ms[j], ms[j + 1]) == d:
                        j += 1
                units += 1
                if j - i + 1 >= _MIN_RUN:
                    run = ms[i:j + 1]
                    runs.append(_Run([m[2] for m in run],
                                     min(m[1] for m in run),
                                     pools, run[0][0], d))
                    i = j + 1
                else:
                    i += 1
            return units, runs

        by_store = greedy(sorted(members, key=lambda m: m[0]))
        by_reads = greedy(sorted(members, key=lambda m: m[0][1:] + m[0][:1]))
        return (by_reads if by_reads[0] < by_store[0] else by_store)[1]

    def _plan(self, nodes: List[RtlNode]) -> List[object]:
        """The emission units of one program: single nodes and rolled-up
        runs.  Only mutually independent nodes are grouped — the nodes of
        one level (a seq program is a single level, -1: its nodes read
        pre-edge state only) — and a run sits where its earliest member
        sat."""
        segments: List[List[RtlNode]] = []
        for node in nodes:
            if not segments or segments[-1][0].level != node.level:
                segments.append([])
            segments[-1].append(node)
        units: List[object] = []
        for seg in segments:
            if len(seg) < _MIN_RUN:
                units.extend(seg)
                continue
            groups: Dict[tuple, list] = {}
            for pos, node in enumerate(seg):
                shape = self._shape_of(node)
                if shape is not None:
                    groups.setdefault(shape[0], []).append(
                        (shape[1], pos, node))
            at: Dict[int, _Run] = {}
            rolled = set()
            for (_, pools), members in groups.items():
                if len(members) < _MIN_RUN:
                    continue
                for run in self._split_runs(members, pools):
                    at[run.anchor] = run
                    rolled.update(n.nid for n in run.nodes)
            for pos, node in enumerate(seg):
                if pos in at:
                    units.append(at[pos])
                elif node.nid not in rolled:
                    units.append(node)
        return units

    # -- program generation ----------------------------------------------------

    def _emit_run(self, run: _Run, pos: int) -> List[str]:
        """The statements of one rolled-up run: the representative's
        store, emitted once through the ordinary emitter while the
        mapper renders every advancing slot as a 2-D row-block view."""
        rep, k = run.nodes[0], len(run.nodes)
        operands = []
        for pool, base, stride in zip(run.pools, run.base, run.strides):
            operands.append({"pool": pool, "base": base, "stride": stride})
            if stride:
                rows = (f"{self.mapper.pool_var(pool)}"
                        f"[{base}*N:{base + (k - 1) * stride + 1}*N]"
                        ".reshape(-1, N)")
                self.mapper.rows[(pool, base)] = rows + (
                    f"[{_ROW}:{_ROW}+_RB]" if stride == 1 else
                    f"[{_ROW}*{stride}:({_ROW}+_RB)*{stride}:{stride}]")
        expr = self.expr
        expr.audit_node, expr.audit_target = rep.nid, rep.target
        first = len(expr.audit)
        expr.begin_run()
        store = self._store(rep.target, rep.expr,
                            shadow=rep.kind is NodeKind.SEQ)
        expr.end_run()
        self.mapper.rows.clear()
        # Every member keeps its own rewrite claims: the representative's
        # records, re-pointed at the member's corresponding sub-expression.
        for r in [r for r in expr.audit[first:] if r.kind != "cse"]:
            path = _path_to(rep.expr, r.expr)
            if path is None:  # pragma: no cover - claims name sub-exprs
                raise SimulationError(
                    f"{r.kind} claim of {rep.target} is not about its "
                    "expression")
            for node in run.nodes[1:]:
                e = node.expr
                for i in path:
                    e = _kids(e)[i]
                expr.audit.append(AuditRecord(
                    r.kind, node.nid, node.target, e, dict(r.detail)))
        expr._record("rollup", program=expr.audit_program, pos=pos,
                     members=[n.nid for n in run.nodes], length=k,
                     operands=operands)
        self.stats["rolled_runs"] += 1
        self.stats["rolled_members"] += k
        op = "=" if rep.kind is NodeKind.COMB else "<="
        return (
            [f"# {rep.target} .. {run.nodes[-1].target} {op} ...;  "
             f"({k} members rolled up, store stride {run.strides[0]})"]
            + expr.drain_hoisted()
            + [f"for {_ROW} in range(0, {k}, _RB):"]
            + [f"    {line}" for line in expr.drain_prelude() + [store]]
        )

    def _program_fn(self, name: str, nids: List[int], heading: str) -> List[str]:
        """One generated function ``name`` running nodes ``nids`` (in
        dependency order) as straight-line code under a ``heading``
        comment."""
        nodes = [self.graph.nodes[nid] for nid in nids]
        units = self._plan(nodes)
        lines = [
            f"# {heading}",
            f"def {name}(P8, P16, P32, P64, P1, N, W, LANE):",
        ]
        body: List[str] = []
        if any(isinstance(u, _Run) for u in units):
            body.append(f"_RB = max(1, {_ROW_BLOCK_ELEMS} // N)")
        self.expr.begin_program(name)
        for pos, unit in enumerate(units):
            self.expr.audit_pos = pos
            if isinstance(unit, _Run):
                body.extend(self._emit_run(unit, pos))
                continue
            self.expr.audit_node = unit.nid
            self.expr.audit_target = unit.target
            stmts = self._node_stmts(unit)
            # Temporaries hoisted while emitting this node's expressions;
            # they only read design state, so they are sound ahead of
            # every store of the same node.
            body.extend(self.expr.drain_prelude())
            body.extend(stmts)
        self.order[name] = [
            [n.nid for n in u.nodes] if isinstance(u, _Run) else [u.nid]
            for u in units
        ]
        self.stats["statements"] += sum(
            1 for line in body if not line.startswith("#"))
        if not body:
            body.append("pass")
        lines.extend(f"    {line}" for line in body)
        return lines

    @staticmethod
    def _header(doc: List[str]) -> List[str]:
        return [
            f'"""{doc[0]}',
            "",
            *doc[1:],
            '"""',
            "import numpy as np",
            "from repro.core import kernels as rt",
            "from repro.utils import bitvec as bvb",
            "from repro.utils import packbits as pk",
            "from repro.utils import widevec as wv",
            "",
            "u8 = np.uint8",
            "u16 = np.uint16",
            "u32 = np.uint32",
            "u64 = np.uint64",
            "",
        ]

    def _module(self, header: List[str], body: List[str]) -> str:
        """Header, the wide constants and tables the body bound, then the
        body."""
        consts = self.expr.const_lines() + self.expr.lookup_lines()
        if consts:
            header = header + [""] + consts
        return "\n".join(header + [""] + body) + "\n"

    def generate_source(self) -> str:
        header = self._header([
            "Fused batch RTL programs transpiled by repro.core.",
            "Auto-generated; do not edit.  One straight-line program for the",
            "comb phase and one per clock domain; 1-bit signals are lane-packed",
            "into uint64 words (pool P1, W = ceil(N/64) words per signal).",
        ])
        g = self.graph
        self._comb = [nid for level in g.levels for nid in level]
        self._domains = g.clock_domains()
        header += [
            "# === RTLflow transpilation annotations ===",
            f"# design: {g.design.top}",
            f"# nodes: {len(g.nodes)}  levels: {len(g.levels)}  "
            f"domains: {len(self._domains)}",
        ]
        body = self._program_fn(
            "fused_comb", self._comb,
            f"fused program: comb phase ({len(self._comb)} nodes, straight-line)")
        body.append("")
        for i, ((clock, edge), nids) in enumerate(self._domains.items()):
            body.extend(self._program_fn(
                f"fused_seq_{i}", nids,
                f"fused program: {edge} {clock} domain ({len(nids)} nodes, "
                "straight-line)"))
            body.append("")
        return self._module(header, body)

    def compile(self) -> FusedPrograms:
        t0 = time.perf_counter()
        source = self.generate_source()
        code = compile_source(source, self.graph.design.top, tag="fused")
        ns: Dict[str, object] = {}
        exec(code, ns)
        elapsed = time.perf_counter() - t0
        sites = Counter(m[:-1] for m in _HELPER_RE.findall(source))
        comb = FusedProgram(
            name="fused_comb",
            kind="comb",
            domain=None,
            fn=ns["fused_comb"],
            n_nodes=len(self._comb),
        )
        seq = {
            dom: FusedProgram(
                name=f"fused_seq_{i}",
                kind="seq",
                domain=dom,
                fn=ns[f"fused_seq_{i}"],
                n_nodes=len(nids),
            )
            for i, (dom, nids) in enumerate(self._domains.items())
        }
        return FusedPrograms(
            layout=self.layout,
            comb=comb,
            seq=seq,
            source=source,
            namespace=ns,
            transpile_seconds=elapsed,
            audit=list(self.expr.audit),
            order=self.order,
            stats={
                **self.stats,
                "temporaries": self.expr._tmp_n,
                "helper_sites": dict(sorted(sites.items())),
                "unpack_sites": sites["pk.unpack_u8"],
                "mem_read_sites": sites["rt.mem_read"],
                "lines": source.count("\n"),
                "keyed_selects": sum(
                    r.kind == "keyed-select" for r in self.expr.audit),
                "tables": sum(r.kind == "table" for r in self.expr.audit),
                "table_entries": sum(
                    len(values) for _, values in self.expr._luts),
                "table_build_s": self.expr.table_build_s,
            },
        )

    def compile_tasks(self, tg: TaskGraph) -> TaskModule:
        """The per-task module: one program ``task_<tid>`` per macro task
        of ``tg``, over the task's nodes in their partition order."""
        t0 = time.perf_counter()
        header = self._header([
            "Batch RTL simulation kernels transpiled by repro.core.",
            "Auto-generated; do not edit.  One GPU thread <-> one stimulus:",
            "the batch axis of every slice is the stimulus axis.  One program",
            "per macro task; 1-bit signals are lane-packed into uint64 words",
            "(pool P1, W = ceil(N/64) words per signal).",
        ]) + render_header(tg)
        body: List[str] = []
        for task in tg.tasks:
            body.extend(self._program_fn(
                f"task_{task.tid}", task.nodes,
                f"__global__ task_{task.tid} ({task.kind.value}, "
                f"{len(task.nodes)} nodes, weight {task.weight:.0f})"))
            body.append("")
        body.append(f"TASKS = [{', '.join(f'task_{t.tid}' for t in tg.tasks)}]")
        source = self._module(header, body)
        ns: Dict[str, object] = {}
        exec(compile_source(source, self.graph.design.top), ns)
        return TaskModule(
            layout=self.layout,
            source=source,
            namespace=ns,
            task_fns={t.tid: ns[f"task_{t.tid}"] for t in tg.tasks},
            transpile_seconds=time.perf_counter() - t0,
            audit=list(self.expr.audit),
            order=self.order,
        )


def transpile(
    graph: RtlGraph,
    weights: Optional[WeightVector] = None,
    target_weight: float = 64.0,
    strategy: str = "levelpack",
    taskgraph: Optional[TaskGraph] = None,
) -> CompiledModel:
    """One-call transpilation: partition (unless given) + codegen + compile."""
    tg = taskgraph or partition(
        graph, weights=weights, target_weight=target_weight, strategy=strategy
    )
    return KernelCodegen(tg).compile()
