"""Property-based differential tests (hypothesis).

Random expression trees and random sequential designs are generated as
Verilog source; the vectorized batch kernels must agree with the golden
reference on every lane, every cycle.  This is the strongest guard on
codegen fidelity (the repro band's main concern).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils import bitvec as bv
from tests.helpers import assert_batch_matches_reference

# --- random expression generator -------------------------------------------

_BIN_OPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
            "==", "!=", "<", "<=", ">", ">=", "&&", "||"]
_UN_OPS = ["~", "-", "!", "&", "|", "^"]

_INPUTS = [("a", 8), ("b", 8), ("c", 16), ("d", 32), ("e", 1), ("f", 100)]


@st.composite
def expr_strings(draw, depth=0):
    """A random Verilog expression over the fixed input ports."""
    if depth >= 4 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            name = draw(st.sampled_from([n for n, _ in _INPUTS]))
            return name
        if choice == 1:
            width = draw(st.integers(1, 16))
            value = draw(st.integers(0, (1 << width) - 1))
            return f"{width}'d{value}"
        name, w = draw(st.sampled_from([(n, w) for n, w in _INPUTS if w > 1]))
        hi = draw(st.integers(0, w - 1))
        lo = draw(st.integers(0, hi))
        return f"{name}[{hi}:{lo}]"
    kind = draw(st.integers(0, 3))
    if kind == 0:
        op = draw(st.sampled_from(_BIN_OPS))
        l = draw(expr_strings(depth + 1))
        r = draw(expr_strings(depth + 1))
        return f"({l} {op} {r})"
    if kind == 1:
        op = draw(st.sampled_from(_UN_OPS))
        x = draw(expr_strings(depth + 1))
        return f"({op}{x})"
    if kind == 2:
        c = draw(expr_strings(depth + 1))
        t = draw(expr_strings(depth + 1))
        f = draw(expr_strings(depth + 1))
        return f"(({c}) ? ({t}) : ({f}))"
    l = draw(expr_strings(depth + 1))
    r = draw(expr_strings(depth + 1))
    return f"{{{l}, {r}}}"


def _comb_module(exprs):
    ports = ", ".join(
        f"input wire [{w - 1}:{0}] {n}" if w > 1 else f"input wire {n}"
        for n, w in _INPUTS
    )
    outs = ", ".join(f"output wire [31:0] y{i}" for i in range(len(exprs)))
    body = "\n".join(f"    assign y{i} = {e};" for i, e in enumerate(exprs))
    return f"module fuzz ({ports}, {outs});\n{body}\nendmodule\n"


class TestRandomCombExpressions:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(expr_strings(), min_size=1, max_size=4), st.integers(0, 2**31))
    def test_batch_matches_reference(self, exprs, seed):
        src = _comb_module(exprs)
        try:
            assert_batch_matches_reference(src, "fuzz", n=16, cycles=4, seed=seed)
        except Exception as exc:  # noqa: BLE001
            from repro.utils.errors import UnsupportedFeatureError, WidthError
            # Two rejections are correct behaviour, not fuzz failures:
            # concats exceeding the 512-bit cap, and wide multiply/divide
            # (explicitly unsupported on >64-bit values).
            if isinstance(exc, (WidthError, UnsupportedFeatureError)):
                return
            raise


# --- random sequential designs -----------------------------------------------


@st.composite
def seq_modules(draw):
    """A random register pipeline with muxed feedback."""
    n_regs = draw(st.integers(1, 4))
    width = draw(st.sampled_from([4, 8, 13, 16, 32]))
    lines = []
    updates = []
    for i in range(n_regs):
        srcs = [f"r{j}" for j in range(n_regs)] + ["din"]
        a = draw(st.sampled_from(srcs))
        b = draw(st.sampled_from(srcs))
        op = draw(st.sampled_from(["+", "^", "&", "|", "-"]))
        cond = draw(st.sampled_from(["en", f"din[{draw(st.integers(0, width - 1))}]"]))
        updates.append(
            f"        if (rst) r{i} <= 0;\n"
            f"        else if ({cond}) r{i} <= {a} {op} {b};"
        )
    regs = ", ".join(f"r{i}" for i in range(n_regs))
    outsum = " ^ ".join(f"r{i}" for i in range(n_regs))
    return (
        f"module seqfuzz (input wire clk, input wire rst, input wire en,\n"
        f"                input wire [{width - 1}:0] din,\n"
        f"                output wire [{width - 1}:0] out);\n"
        f"    reg [{width - 1}:0] {regs};\n"
        f"    always @(posedge clk) begin\n" + "\n".join(updates) + "\n    end\n"
        f"    assign out = {outsum};\nendmodule\n"
    )


class TestRandomSequentialDesigns:
    @settings(max_examples=30, deadline=None)
    @given(
        seq_modules(),
        st.integers(0, 2**31),
        st.sampled_from(["graph", "graph-fused", "stream"]),
        st.sampled_from([("levelpack", 2.0), ("levelpack", 64.0),
                         ("chain", 16.0)]),
    )
    def test_batch_matches_reference(self, src, seed, executor, part):
        strategy, target = part
        assert_batch_matches_reference(
            src, "seqfuzz", n=8, cycles=12, seed=seed, executor=executor,
            strategy=strategy, target_weight=target,
        )


# --- random register arrays (value numbering + roll-up) ------------------------


@st.composite
def array_modules(draw):
    """``k`` copies of one random register/wire template — what a
    generate loop elaborates to — so the fused emitter sees same-shape
    runs: lengths 1..9, registers laid out contiguously or interleaved
    (operand stride 1 or 2), broadcast operands, a wrap-around neighbour
    (not affine at the seam), per-member mux conditions and constant-
    address memory reads that may run past the end of the memory.  Each
    member's condition — a compare, a bit-select of a register of any
    pool width, or a mux of two bits — also gates a mux and an enable-
    increment at a second width, declared before or after the first, so
    one condition is asked for masks at mixed widths in either order."""
    k = draw(st.integers(1, 9))
    width = draw(st.sampled_from([4, 8, 13, 16, 32, 64]))
    width2 = draw(st.sampled_from([8, 16, 32, 64]))
    interleave = draw(st.booleans())
    second_first = draw(st.booleans())
    depth = draw(st.integers(2, 12))
    mbase, mstride = draw(st.integers(0, 6)), draw(st.integers(0, 2))
    memw = draw(st.booleans())
    bit = draw(st.integers(0, width - 1))
    ops = ["+", "^", "&", "|", "-"]
    srcs = ["r{i}", "s{i}", "r{n}", "din", "mem[{m}]"]
    conds = ["en", "r{i}[{bit}]", "(r{i} > din)", "(s{i} != r{n})",
             "(r{i}[{bit}] ? en : s{i}[0])"]
    pick = lambda pool: draw(st.sampled_from(pool))  # noqa: E731
    cond = pick(conds)
    comb = f"{cond} ? ({pick(srcs)} {pick(ops)} {pick(srcs)}) : {pick(srcs)}"
    comb2 = f"{cond} ? din2 : (din2 {pick(ops)} {width2}'d{{i}})"
    inc2 = f"{cond} ? din2 + {width2}'d1 : din2"
    r_next = f"({pick(srcs + ['c{i}'])} {pick(ops)} {pick(srcs + ['c{i}'])})"
    s_next = f"({pick(conds)} ? {pick(srcs + ['c{i}'])} : s{{i}})"

    def inst(template: str, i: int) -> str:
        return template.format(i=i, n=(i + 1) % k, m=mbase + i * mstride,
                               bit=bit)

    w, w2 = f"[{width - 1}:0]", f"[{width2 - 1}:0]"
    r_upd = [f"        r{i} <= rst ? {width}'d0 : {inst(r_next, i)};"
             for i in range(k)]
    s_upd = [f"        s{i} <= rst ? {width}'d1 : {inst(s_next, i)};"
             for i in range(k)]
    # Register offsets follow the order of the updates.
    updates = ([u for pair in zip(r_upd, s_upd) for u in pair]
               if interleave else r_upd + s_upd)
    if memw:
        updates.append("        if (en) mem[din[2:0]] <= r0;")
    names = [f"{p}{i}" for p in "rsc" for i in range(k)]
    first = "".join(f"    wire {w} c{i} = {inst(comb, i)};\n"
                    for i in range(k))
    second = "".join(f"    wire {w2} d{i} = {inst(comb2, i)};\n"
                     f"    wire {w2} e{i} = {inst(inc2, i)};\n"
                     for i in range(k))
    # ``e{i} == 0`` observes the wrap of the increment at its own width.
    out2 = " ^ ".join(f"d{i} ^ e{i} ^ (e{i} == {width2}'d0)"
                      for i in range(k))
    return (
        f"module arrfuzz (input wire clk, input wire rst, input wire en,\n"
        f"                input wire {w} din, input wire {w2} din2,\n"
        f"                output wire {w} out, output wire {w2} out2);\n"
        f"    reg {w} mem [0:{depth - 1}];\n"
        f"    reg {w} " + ", ".join(n for n in names if n[0] != "c") + ";\n"
        + (second + first if second_first else first + second)
        + "    always @(posedge clk) begin\n" + "\n".join(updates)
        + "\n    end\n"
        f"    assign out = {' ^ '.join(names)};\n"
        f"    assign out2 = {out2};\nendmodule\n"
    ), depth, width


class TestRandomRegisterArrays:
    @settings(max_examples=40, deadline=None)
    @given(array_modules(), st.integers(0, 2**31),
           st.sampled_from([1, 7, 65]))
    def test_batch_matches_reference(self, drawn, seed, n):
        src, depth, width = drawn
        assert_batch_matches_reference(
            src, "arrfuzz", n=n, cycles=8, seed=seed,
            memories={"mem": [(29 * a + 5) & bv.mask(width)
                              for a in range(depth)]},
        )


# --- one condition, muxes of mixed widths (shared masks) ----------------------


@st.composite
def shared_cond_modules(draw):
    """One 0/1 condition whose emitted dtype is wider than uint8 — a
    bit-select of a 16/32/64-bit signal, or a mux of such bits — gating
    muxes, zero-branch muxes and enable-increments at 2..5 widths in a
    drawn order: the masks of all of them derive from whichever is
    emitted first."""
    cw = draw(st.sampled_from([16, 32, 64]))
    bit, bit2 = draw(st.integers(0, cw - 1)), draw(st.integers(0, cw - 1))
    cond = draw(st.sampled_from([
        f"x[{bit}]", f"(x[{bit}] ? en : x[{bit2}])",
        f"(en ? x[{bit}] : y[{bit2}])", f"(x[{bit}] && y[{bit2}])"]))
    widths = draw(st.lists(st.sampled_from([1, 5, 8, 16, 24, 32, 64]),
                           min_size=2, max_size=5))
    forms = ["{c} ? p{i} : q{i}", "{c} ? p{i} : {w}'d0", "{c} ? {w}'d0 : q{i}",
             "{c} ? p{i} + {w}'d1 : p{i}",
             "({c} ? p{i} + {w}'d1 : p{i}) == {w}'d0"]
    ports, body = [], []
    for i, w in enumerate(widths):
        rng = f"[{w - 1}:0] " if w > 1 else ""
        ports += [f"input wire {rng}p{i}", f"input wire {rng}q{i}",
                  f"output wire {rng}o{i}"]
        form = draw(st.sampled_from(forms))
        body.append(f"    assign o{i} = {form.format(c=cond, i=i, w=w)};")
    return (f"module condfuzz (input wire en, input wire [{cw - 1}:0] x,\n"
            f"    input wire [{cw - 1}:0] y, " + ", ".join(ports) + ");\n"
            + "\n".join(body) + "\nendmodule\n")


class TestSharedConditionMasks:
    @settings(max_examples=60, deadline=None)
    @given(shared_cond_modules(), st.integers(0, 2**31))
    def test_batch_matches_reference(self, src, seed):
        assert_batch_matches_reference(src, "condfuzz", n=9, cycles=6,
                                       seed=seed)


# --- bitvec invariants -------------------------------------------------------


class TestBitvecProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(1, 64))
    def test_scalar_batch_agree_on_div_mod(self, a, b, w):
        m = bv.mask(w)
        a &= m
        b &= m
        aa = np.array([a], dtype=np.uint64)
        bb = np.array([b], dtype=np.uint64)
        assert int(bv.b_div(aa, bb)[0]) == bv.s_div(a, b)
        assert int(bv.b_mod(aa, bb)[0]) == bv.s_mod(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 127))
    def test_scalar_batch_agree_on_shifts(self, a, sh):
        aa = np.array([a], dtype=np.uint64)
        ss = np.array([sh], dtype=np.uint64)
        assert int(bv.b_shl(aa, ss)[0]) == bv.s_shl(a, sh)
        assert int(bv.b_shr(aa, ss)[0]) == bv.s_shr(a, sh)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(1, 64))
    def test_reductions_agree(self, a, w):
        a &= bv.mask(w)
        aa = np.array([a], dtype=np.uint64)
        assert int(bv.b_red_and(aa, w)[0]) == bv.s_red_and(a, w)
        assert int(bv.b_red_or(aa, w)[0]) == bv.s_red_or(a, w)
        assert int(bv.b_red_xor(aa, w)[0]) == bv.s_red_xor(a, w)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**16 - 1), st.integers(0, 16))
    def test_pow_matches_python(self, a, b):
        aa = np.array([a], dtype=np.uint64)
        bb = np.array([b], dtype=np.uint64)
        assert int(bv.b_pow(aa, bb)[0]) == pow(a, b, 1 << 64)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 64))
    def test_pool_choice_is_minimal(self, w):
        pool = bv.pool_for_width(w)
        assert bv.POOL_WIDTHS[pool] >= w
        if pool > 0:
            assert bv.POOL_WIDTHS[pool - 1] < w
