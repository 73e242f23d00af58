"""Tests for wide (>64-bit) signal support.

Wide signals follow Verilator's VL_WIDE model: ceil(W/64) little-endian
limbs in the var64 pool.  The golden reference computes with Python ints,
so the differential tests below are the authority on the vectorized limb
arithmetic in repro.utils.widevec.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codegen import transpile
from repro.core.memory import MemoryLayout
from repro.core.simulator import BatchSimulator
from repro.utils import widevec as wv
from repro.utils.errors import UnsupportedFeatureError

from tests.conftest import compile_graph
from tests.helpers import assert_batch_matches_reference

WIDE_COMB_V = """
module widecomb (
    input wire [127:0] a,
    input wire [127:0] b,
    input wire [7:0] sh,
    output wire [127:0] sum,
    output wire [127:0] diff,
    output wire [127:0] andv,
    output wire [127:0] orv,
    output wire [127:0] xorv,
    output wire [127:0] notv,
    output wire [127:0] shlv,
    output wire [127:0] shrv,
    output wire ltv,
    output wire eqv,
    output wire red_or,
    output wire red_and,
    output wire red_xor,
    output wire [127:0] muxv,
    output wire [63:0] low,
    output wire [63:0] high,
    output wire bit100
);
    assign sum = a + b;
    assign diff = a - b;
    assign andv = a & b;
    assign orv = a | b;
    assign xorv = a ^ b;
    assign notv = ~a;
    assign shlv = a << sh;
    assign shrv = a >> sh;
    assign ltv = (a < b);
    assign eqv = (a == b);
    assign red_or = |a;
    assign red_and = &a;
    assign red_xor = ^a;
    assign muxv = (a[0]) ? a : b;
    assign low = a[63:0];
    assign high = a[127:64];
    assign bit100 = a[100];
endmodule
"""

WIDE_SEQ_V = """
module wideseq (
    input wire clk,
    input wire rst,
    input wire [63:0] din,
    output wire [255:0] window,
    output wire [63:0] folded
);
    reg [255:0] sr;
    always @(posedge clk) begin
        if (rst) sr <= 0;
        else sr <= {sr[191:0], din};
    end
    assign window = sr;
    assign folded = sr[63:0] ^ sr[127:64] ^ sr[191:128] ^ sr[255:192];
endmodule
"""

WIDE_MIX_V = """
module widemix (
    input wire [95:0] w,
    input wire [15:0] n,
    output wire [95:0] extended_add,
    output wire [15:0] truncated,
    output wire [111:0] cat,
    output wire [95:0] repl,
    output wire n_in_wide_cmp
);
    assign extended_add = w + n;        // narrow operand widened
    assign truncated = w;                // wide value truncated on assign
    assign cat = {n, w};                 // concat crossing 64 bits
    assign repl = {6{n}};                // replication to a wide value
    assign n_in_wide_cmp = (w > n);
endmodule
"""


class TestWideDifferential:
    def test_comb_operators(self):
        assert_batch_matches_reference(WIDE_COMB_V, "widecomb", n=16, cycles=10)

    def test_sequential_shift_register(self):
        assert_batch_matches_reference(WIDE_SEQ_V, "wideseq", n=8, cycles=20)

    def test_mixed_widths(self):
        assert_batch_matches_reference(WIDE_MIX_V, "widemix", n=16, cycles=10)

    @pytest.mark.parametrize("executor", ["graph", "graph-fused", "stream"])
    def test_executors(self, executor):
        assert_batch_matches_reference(
            WIDE_SEQ_V, "wideseq", n=4, cycles=10, executor=executor
        )


class TestWideLayout:
    def test_limb_allocation(self):
        g = compile_graph(WIDE_SEQ_V, "wideseq")
        layout = MemoryLayout.from_graph(g)
        slot = layout.slot("sr")
        assert slot.pool == 3
        assert slot.limbs == 4  # 256 bits
        assert slot.next_offset == slot.offset + layout.reg_counts[3]

    def test_wide_register_commit(self):
        g = compile_graph(WIDE_SEQ_V, "wideseq")
        sim = BatchSimulator(transpile(g), 2)
        sim.cycle({"rst": 1, "din": 0})
        for i in range(1, 5):
            sim.cycle({"rst": 0, "din": i})
        # After shifting in 1,2,3,4: sr = 1·2^192 | 2·2^128 | 3·2^64 | 4.
        expect = (1 << 192) | (2 << 128) | (3 << 64) | 4
        vals = sim.get("window")
        assert int(vals[0]) == expect
        assert int(vals[1]) == expect

    def test_wide_write_read_roundtrip(self):
        g = compile_graph(WIDE_COMB_V, "widecomb")
        sim = BatchSimulator(transpile(g), 3)
        big = (0xDEADBEEF << 96) | (0x12345678 << 32) | 0x9
        sim.set_input("a", [big, 1, 0])
        got = sim.get("a")
        assert int(got[0]) == big
        assert int(got[1]) == 1

    def test_wide_input_masked(self):
        g = compile_graph(WIDE_MIX_V, "widemix")
        sim = BatchSimulator(transpile(g), 1)
        sim.set_input("w", [(1 << 200)])  # beyond 96 bits: masked off
        assert int(sim.get("w")[0]) == 0


class TestWideUnsupported:
    def test_wide_multiply_rejected(self):
        src = """
        module m(input wire [99:0] a, input wire [99:0] b,
                 output wire [99:0] p);
            assign p = a * b;
        endmodule
        """
        g = compile_graph(src, "m")
        with pytest.raises(UnsupportedFeatureError):
            transpile(g)


class TestWidevecUnits:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**192 - 1), st.integers(0, 2**192 - 1),
           st.integers(2, 4))
    def test_add_sub_match_python(self, a, b, limbs):
        m = (1 << (64 * limbs)) - 1
        a &= m
        b &= m
        A = wv.from_ints([a], limbs)
        B = wv.from_ints([b], limbs)
        assert wv.to_ints(wv.add(A, B))[0] == (a + b) & m
        assert wv.to_ints(wv.sub(A, B))[0] == (a - b) & m

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**192 - 1), st.integers(0, 250))
    def test_shifts_match_python(self, a, sh):
        limbs = 3
        m = (1 << 192) - 1
        a &= m
        A = wv.from_ints([a], limbs)
        s = np.array([sh], dtype=np.uint64)
        assert wv.to_ints(wv.shl(A, s))[0] == (a << sh) & m
        assert wv.to_ints(wv.shr(A, s))[0] == (a >> sh) & m
        assert wv.to_ints(wv.shl_const(A, sh))[0] == (a << sh) & m
        assert wv.to_ints(wv.shr_const(A, sh))[0] == (a >> sh) & m

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**128 - 1), st.integers(0, 2**128 - 1))
    def test_compares_match_python(self, a, b):
        A = wv.from_ints([a], 2)
        B = wv.from_ints([b], 2)
        assert int(wv.lt(A, B)[0]) == (a < b)
        assert int(wv.le(A, B)[0]) == (a <= b)
        assert int(wv.gt(A, B)[0]) == (a > b)
        assert int(wv.ge(A, B)[0]) == (a >= b)
        assert int(wv.eq(A, B)[0]) == (a == b)
        assert int(wv.ne(A, B)[0]) == (a != b)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**100 - 1))
    def test_reductions_match_python(self, a):
        width = 100
        A = wv.mask_width(wv.from_ints([a], 2), width)
        assert int(wv.red_or(A)[0]) == (1 if a else 0)
        assert int(wv.red_and(A, width)[0]) == (1 if a == (1 << width) - 1 else 0)
        assert int(wv.red_xor(A)[0]) == (bin(a).count("1") & 1)

    def test_neg(self):
        A = wv.from_ints([5], 2)
        assert wv.to_ints(wv.neg(A))[0] == ((1 << 128) - 5)

    def test_mask_width_truncates_top_limb(self):
        A = wv.from_ints([(1 << 128) - 1], 2)
        assert wv.to_ints(wv.mask_width(A, 100))[0] == (1 << 100) - 1

    def test_saturate_narrow(self):
        A = wv.from_ints([5, (1 << 64) + 5], 2)
        out = wv.saturate_narrow(A)
        assert int(out[0]) == 5
        assert int(out[1]) == 0xFFFFFFFFFFFFFFFF

    def test_mux_accepts_scalar_cond(self):
        # An all-constant ternary condition folds to a numpy scalar in
        # the generated kernels; mux must broadcast it, not index it.
        T = wv.from_ints([1, 2], 2)
        F = wv.from_ints([3, 4], 2)
        assert wv.to_ints(wv.mux(np.uint64(1), T, F)) == [1, 2]
        assert wv.to_ints(wv.mux(np.uint64(0), T, F)) == [3, 4]
        cond = np.array([1, 0], dtype=np.uint64)
        assert wv.to_ints(wv.mux(cond, T, F)) == [1, 4]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**512 - 1),
           st.sampled_from([65, 100, 128, 192, 256, 300, 512]),
           st.sampled_from([1, 2, 63, 64, 65, 127, 128, 255, 256, 511]))
    def test_rotl_const_matches_python(self, a, width, k):
        """Limb-exact widths rotate by permutation, others by two shifts."""
        m = (1 << width) - 1
        v, k = a & m, k % width
        got = wv.to_ints(wv.rotl_const(wv.from_ints([v], (width + 63) // 64),
                                       k, width))
        assert got[0] == ((v << k) | (v >> (width - k))) & m

    def test_column_constants_broadcast(self):
        K = wv.column(5, 2)
        X = wv.from_ints([1, 2, (1 << 128) - 1], 2)
        assert K.shape == (2, 1) and not K.flags.writeable
        assert wv.to_ints(wv.add(X, K)) == [6, 7, 4]
        assert wv.to_ints(wv.add(K, X)) == [6, 7, 4]
        assert wv.to_ints(wv.sub(K, X)) == [4, 3, 6]
        assert wv.lt(K, X).tolist() == [0, 0, 1]
        assert wv.lt(X, K).tolist() == [1, 1, 0]
        assert wv.to_ints(wv.mux(np.array([1, 0, 1], dtype=np.uint64), K, X)) \
            == [5, 2, 5]

    @pytest.mark.parametrize("limbs", range(2, 9))
    def test_readback_matches_the_per_limb_loop(self, limbs):
        def to_ints_loop(a):
            out = []
            for lane in range(a.shape[1]):
                v = 0
                for l in range(a.shape[0] - 1, -1, -1):
                    v = (v << 64) | int(a[l, lane])
                out.append(v)
            return out

        def from_ints_loop(values, limbs):
            out = np.empty((limbs, len(values)), dtype=np.uint64)
            for lane, v in enumerate(values):
                for l in range(limbs):
                    out[l, lane] = (int(v) >> (64 * l)) & 0xFFFFFFFFFFFFFFFF
            return out

        top = 1 << (64 * limbs)
        rng = np.random.default_rng(limbs)
        values = [0, top - 1, top >> 1, 1, 1 << 64] + [
            int.from_bytes(rng.bytes(8 * limbs), "little") for _ in range(40)]
        want = from_ints_loop(values, limbs)
        got = wv.from_ints(values, limbs)
        assert got.dtype == np.uint64 and got.flags.writeable
        np.testing.assert_array_equal(got, want)
        assert wv.to_ints(want) == to_ints_loop(want) == values
        assert wv.from_ints([], limbs).shape == (limbs, 0)

    def test_constant_folded_wide_ternary_cond(self):
        # Regression: a concatenation-of-constants condition used to
        # reach wv.mux as a 0-d scalar and raise IndexError.
        src = """
        module dut (input wire [64:0] a, input wire [64:0] f,
                    output wire [64:0] y);
            assign y = (((~(({1'd0, 1'd0}) ? (a) : (f)))) ? (a) : (a));
        endmodule
        """
        assert_batch_matches_reference(src, "dut", n=4, cycles=2, seed=0)


class TestCryptoWideDesign:
    def test_differential_vs_reference(self):
        from repro.designs import get_design
        from tests.helpers import batch_traces, reference_traces

        b = get_design("crypto", rounds=2)
        graph = compile_graph(b.source, b.top)
        stim = b.make_stimulus(3, 12, seed=7)
        watch = ["digest", "parity", "state_out"]
        ref = reference_traces(graph, stim, watch)
        got = batch_traces(graph, stim, watch)
        for w in watch:
            assert np.array_equal(ref[w], got[w]), f"{w} diverged"

    def test_permutation_diffuses(self):
        """Avalanche check: one flipped input bit changes many state bits."""
        from repro import RTLFlow
        from repro.designs import get_design

        b = get_design("crypto", rounds=4)
        flow = RTLFlow.from_source(b.source, b.top)
        sim = flow.simulator(n=2)
        sim.cycle({"rst": 1, "absorb": 0, "din": 0})
        sim.set_inputs({"rst": 0, "absorb": 1,
                        "din": np.array([1, 3], dtype=np.uint64)})
        for _ in range(4):
            sim.cycle()
        states = sim.get("state_out")
        diff = int(states[0]) ^ int(states[1])
        assert bin(diff).count("1") > 40  # wide diffusion across 256 bits

    def test_state_is_wide_register(self):
        from repro.designs import get_design

        b = get_design("crypto", rounds=2)
        g = compile_graph(b.source, b.top)
        layout = MemoryLayout.from_graph(g)
        assert layout.slot("state").limbs == 4
        assert layout.slot("state").is_state

    def test_rounds_scale_design(self):
        from repro.designs import crypto_wide

        small = compile_graph(crypto_wide.generate(rounds=1), "crypto_wide")
        large = compile_graph(crypto_wide.generate(rounds=6), "crypto_wide")
        assert large.stats()["ast_nodes"] > small.stats()["ast_nodes"]
