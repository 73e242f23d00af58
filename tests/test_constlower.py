"""Constant-aware operator lowering, end to end.

``constlow`` holds every rewrite the emitter makes by operand kind — a
sign-extended immediate (``{20{w[31]}}``: a constant bit-select and a
one-word replication), constant shifts, a 256-bit register rotated and
mixed with limb swaps and wide constants (crypto's round), an unaligned
100-bit rotate, limb-row selects, a wide constant stored whole, a 1-bit
decoder whose mux branches are constants (the packed folds), and a
generate loop whose eight same-shape registers each replicate, select
and shift (a rolled-up run whose members keep their own claims).  The
product engine must match the golden reference and the unrolled
per-task engine — which lowers the same way — with the verifier on, at
ragged batch sizes and at a batch so large a row block is one row.
"""

import numpy as np
import pytest

from repro import RTLFlow
from repro.baselines.reference import ReferenceSimulator
from repro.core import codegen
from repro.core.simulator import BatchSimulator
from repro.stimulus.generator import random_batch
from repro.verify import ir_checks, verify_model

CONSTLOW_V = """
module constlow (
    input wire clk,
    input wire rst,
    input wire en,
    input wire [7:0] din,
    input wire [31:0] word,
    input wire [255:0] blk,
    input wire [99:0] odd,
    output wire [31:0] o_imm,
    output wire [31:0] o_shift,
    output wire [255:0] o_state,
    output wire [255:0] o_swap,
    output wire [63:0] o_lane,
    output wire [99:0] o_odd,
    output wire [255:0] o_const,
    output wire o_dec,
    output wire o_hit,
    output wire [7:0] o_run
);
    assign o_imm = {{20{word[31]}}, word[31:20]};
    assign o_shift = (word << 5) ^ (word >> 27) ^ {word[7:0] << 3, 24'd0};

    reg [255:0] state;
    wire [255:0] rot = (state << 17) | (state >> 239);
    wire [255:0] mix = rot ^ {state[127:0], state[255:128]};
    always @(posedge clk)
        state <= rst ? 256'h1 : (mix + {4{64'h9E3779B97F4A7C15}}) ^ {192'd0, blk[71:8]};
    assign o_state = state;
    assign o_swap = {blk[63:0], blk[255:64]} ^ (blk >> 64) ^ {blk[200:0], blk[255:201]};
    assign o_lane = state[191:128] ^ blk[63:0] ^ {56'd0, blk[71:64]} ^ blk[100:37];
    assign o_odd = ((odd << 3) | (odd >> 97)) ^ {odd[63:0], odd[99:64]};
    assign o_const = 256'hDEADBEEF_00000000_FFFFFFFF_FFFFFFFF_01234567_89ABCDEF_00000001_80000000;

    assign o_dec = (din == 8'd1) ? 1'b0 : (din == 8'd2) ? 1'b1
                 : (din == 8'd3) ? en : 1'b0;
    assign o_hit = ((din == 8'd2) ? en : 1'b0) | ((din == 8'd1) ? 1'b1 : rst);

    reg [7:0] seeds [0:7];
    genvar i;
    generate
        for (i = 0; i < 8; i = i + 1) begin : lane
            reg [7:0] r;
            always @(posedge clk)
                r <= rst ? 8'd0 : {{4{r[7]}}, r[6:3]} ^ (r << 1) ^ din ^ seeds[i];
        end
    endgenerate
    assign o_run = lane[0].r ^ lane[1].r ^ lane[2].r ^ lane[3].r
                 ^ lane[4].r ^ lane[5].r ^ lane[6].r ^ lane[7].r;
endmodule
"""

WATCH = ["o_imm", "o_shift", "o_state", "o_swap", "o_lane", "o_odd",
         "o_const", "o_dec", "o_hit", "o_run"]
SEEDS = [(53 * i + 7) % 256 for i in range(8)]


@pytest.fixture(scope="module")
def constlow():
    flow = RTLFlow.from_source(CONSTLOW_V, "constlow")
    return flow, flow.compile()


def _traces(model, n, stim, executor):
    sim = BatchSimulator(model, n, executor=executor)
    sim.load_memory("seeds", SEEDS)
    out = sim.run(stim, watch=WATCH, trace_every=1)
    return {k: np.asarray(v).copy() for k, v in out.items()}


def _reference_lane(graph, stim, lane):
    ref = ReferenceSimulator(graph)
    ref.load_memory("seeds", SEEDS)
    rows = []
    for step in stim.lane(lane):
        ref.cycle(step)
        rows.append([int(ref.get(w)) for w in WATCH])
    return rows


def _check_lanes(flow, stim, fused, lanes):
    for lane in lanes:
        want = _reference_lane(flow.graph, stim, lane)
        for c, row in enumerate(want):
            got = [int(fused[w][c, lane]) for w in WATCH]
            assert got == row, (lane, c)


class TestConstlow:
    def test_every_rewrite_is_emitted_and_reproved(self, constlow):
        _, model = constlow
        fused = model.fused()
        kinds = {r.kind for r in fused.audit}
        assert {"const-shift", "const-index", "replicate", "rotate",
                "packed-const"} <= kinds
        rotates = sorted((r.detail["width"], r.detail["k"])
                         for r in fused.audit if r.kind == "rotate")
        assert rotates == [(100, 3), (256, 17)]
        sites = fused.stats["helper_sites"]
        for helper in ("wv.shl", "wv.shr", "wv.from_const", "bvb.b_shr",
                       "bvb.b_shl"):
            assert helper not in sites, helper
        assert ir_checks.check_audit(model) == []
        assert verify_model(model).clean

    def test_members_of_a_rolled_run_keep_their_rewrites(self, constlow):
        _, model = constlow
        fused = model.fused()
        runs = [r for r in fused.audit if r.kind == "rollup"]
        members = {nid for r in runs for nid in r.detail["members"]}
        lanes = {n.nid for n in model.graph.nodes
                 if n.target.startswith("lane[")}
        assert lanes and lanes <= members
        claims = {}
        for r in fused.audit:
            if r.node in lanes:
                claims.setdefault(r.node, []).append(r.kind)
        for nid in lanes:
            assert {"replicate", "const-index", "const-shift"} <= set(
                claims[nid]), nid
        # ... each about the member's own expression.
        for r in fused.audit:
            if r.node in lanes and r.kind == "replicate":
                assert r.expr.value.base == model.graph.nodes[r.node].target

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_matches_reference_and_unrolled_engine(self, constlow, n):
        flow, model = constlow
        stim = random_batch(model.design, n, 10, seed=n)
        fused = _traces(model, n, stim, "graph-fused")
        for other in ("graph", "sanitize"):
            got = _traces(model, n, stim, other)
            for w in WATCH:
                np.testing.assert_array_equal(fused[w], got[w],
                                              err_msg=f"{other}: {w}")
        _check_lanes(flow, stim, fused, sorted({0, n // 2, n - 1}))
        assert fused["o_state"].any() and fused["o_run"].any()

    def test_single_row_blocks(self, constlow):
        """At N > 32768 / 2 a row block is one row (``_RB == 1``)."""
        flow, model = constlow
        n = codegen._ROW_BLOCK_ELEMS // 2 + 1
        assert max(1, codegen._ROW_BLOCK_ELEMS // n) == 1
        stim = random_batch(model.design, n, 4, seed=3)
        fused = _traces(model, n, stim, "graph-fused")
        graph = _traces(model, n, stim, "graph")
        for w in WATCH:
            np.testing.assert_array_equal(fused[w], graph[w], err_msg=w)
        _check_lanes(flow, stim, fused, [n - 1])


@pytest.mark.parametrize("executor", ["graph-fused", "graph"])
def test_shifted_out_values_fold_before_packing(executor):
    """``a << 9`` of an 8-bit ``a`` is 0 whatever ``a`` holds: it folds,
    so the 1-bit results built on it are all-lanes constants.  (Emitted
    as a numpy scalar under ``pk.pack_bool``, it set lane 0 only.)"""
    from tests.helpers import assert_batch_matches_reference

    src = """
    module shout (input wire [7:0] a, input wire [15:0] b,
                  output wire o_not, output wire o_eq, output wire o_hi,
                  output wire [7:0] o_sel);
        assign o_not = !(a << 9);
        assign o_eq = (a << 9) == 8'd0;
        assign o_hi = ((a >> 9) == 16'd0) && b[3];
        assign o_sel = {b[20], a[8], 6'd0} ^ a;
    endmodule
    """
    assert_batch_matches_reference(src, "shout", n=70, cycles=3, seed=1,
                                   executor=executor)


def test_cli_run_verify_on_the_wide_design(capsys):
    from repro.cli import main

    assert main(["run", "crypto", "-n", "8", "-c", "6", "--verify"]) == 0
    assert "sanitizer enabled" in capsys.readouterr().err
