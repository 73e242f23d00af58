"""Value numbering and roll-up in the fused emitter.

* ``rollmix`` — a generate-for design with same-shape runs of 1, 2, 3, 7
  and 64 members, operand strides 0, 1 and 2, a per-member mask, a
  constant-address memory read in and out of range, and a chain whose
  members each read the previous member's target (one shape, unit
  strides, four levels: never one run) — runs bit-identically to the
  golden reference and to the unrolled per-task engine at ragged batch
  sizes and at a batch so large that a row block is a single row;
* masks of one condition at several widths are derived from the first
  one, in both directions — also when the condition itself is wider than
  a byte (a bit-select of a 32/64-bit signal), alone and in rolled runs;
* quarantine and mid-run checkpoint/restore hold on a design whose
  programs are almost entirely rolled up (``nvdla``);
* the sizes named before each change are asserted from ``fused.stats``
  (program sizes, per-helper call sites), and ``counter``'s source is
  pinned byte for byte.
"""

import hashlib

import numpy as np
import pytest

from repro import RTLFlow
from repro.baselines.reference import ReferenceSimulator
from repro.core import codegen
from repro.core.simulator import BatchSimulator
from repro.designs import get_design
from repro.resilience import FaultPlan, LaneFaultSpec
from repro.stimulus.batch import StimulusBatch
from repro.stimulus.generator import random_batch
from repro.verify import ir_checks, verify_model

LANES = 64


def rollmix_source(lanes: int = LANES) -> str:
    def fold(fmt: str, n: int, op: str) -> str:
        return f" {op} ".join(fmt.format(i=i) for i in range(n))

    return f"""
module rollmix (
    input wire clk,
    input wire rst,
    input wire en,
    input wire [7:0] din,
    input wire [7:0] key,
    output wire [7:0] o_acc,
    output wire [7:0] o_clip,
    output wire [15:0] o_p,
    output wire [15:0] o_q,
    output wire [15:0] o_s,
    output wire [7:0] o_z,
    output wire [7:0] o_ch
);
    reg [7:0] wmem [0:{lanes - 1}];

    genvar i;
    generate
        // {lanes} members: stride-1 registers, a per-member mask (clip),
        // broadcasts (din, key, rst, en), an in-range constant-address
        // memory read, and two interleaved 16-bit registers (stride 2).
        for (i = 0; i < {lanes}; i = i + 1) begin : lane
            reg [7:0] acc;
            reg [15:0] p;
            reg [15:0] q;
            wire [7:0] clip = acc[7] ? (acc ^ key) : acc;
            always @(posedge clk) begin
                if (rst) begin
                    acc <= 8'd0;
                    p <= 16'd0;
                    q <= 16'd1;
                end
                else if (en) begin
                    acc <= clip + din + wmem[i];
                    p <= p + {{8'd0, acc}};
                    q <= q ^ (p << 1);
                end
            end
        end
        // Same-shape runs of 7, 3, 2 and 1 members (the constants differ
        // between the loops, so the shapes do).
        for (i = 0; i < 7; i = i + 1) begin : s7
            reg [15:0] r;
            always @(posedge clk) r <= rst ? 16'd0 : r + 16'd7 + din;
        end
        for (i = 0; i < 3; i = i + 1) begin : s3
            reg [15:0] r;
            always @(posedge clk) r <= rst ? 16'd0 : r + 16'd3 + din;
        end
        for (i = 0; i < 2; i = i + 1) begin : s2
            reg [15:0] r;
            always @(posedge clk) r <= rst ? 16'd0 : r + 16'd2 + din;
        end
        for (i = 0; i < 1; i = i + 1) begin : s1
            reg [15:0] r;
            always @(posedge clk) r <= rst ? 16'd0 : r + 16'd1 + din;
        end
        // Constant addresses past the end of the memory read as zero.
        for (i = 0; i < 3; i = i + 1) begin : oob
            wire [7:0] z = wmem[{lanes} + i] ^ din;
        end
    endgenerate

    // One shape, unit strides, but each member reads the previous one's
    // target: four levels, never one run.
    wire [7:0] ch0 = din ^ key;
    wire [7:0] ch1 = ch0 + 8'd3;
    wire [7:0] ch2 = ch1 + 8'd3;
    wire [7:0] ch3 = ch2 + 8'd3;
    wire [7:0] ch4 = ch3 + 8'd3;

    assign o_acc = {fold("lane[{i}].acc", lanes, "^")};
    assign o_clip = {fold("lane[{i}].clip", lanes, "+")};
    assign o_p = {fold("lane[{i}].p", lanes, "^")};
    assign o_q = {fold("lane[{i}].q", lanes, "+")};
    assign o_s = {fold("s7[{i}].r", 7, "^")} ^ {fold("s3[{i}].r", 3, "^")}
               ^ {fold("s2[{i}].r", 2, "^")} ^ s1[0].r;
    assign o_z = {fold("oob[{i}].z", 3, "+")};
    assign o_ch = ch4 ^ ch2;
endmodule
"""


WATCH = ["o_acc", "o_clip", "o_p", "o_q", "o_s", "o_z", "o_ch"]
WMEM = [(37 * i + 11) % 256 for i in range(LANES)]


@pytest.fixture(scope="module")
def rollmix():
    flow = RTLFlow.from_source(rollmix_source(), "rollmix")
    return flow, flow.compile()


def _traces(model, n, stim, executor):
    sim = BatchSimulator(model, n, executor=executor)
    sim.load_memory("wmem", WMEM)
    out = sim.run(stim, watch=WATCH, trace_every=1)
    return {k: np.asarray(v).copy() for k, v in out.items()}


def _reference_lane(graph, stim, lane):
    ref = ReferenceSimulator(graph)
    ref.load_memory("wmem", WMEM)
    rows = []
    for step in stim.lane(lane):
        ref.cycle(step)
        rows.append([int(ref.get(w)) for w in WATCH])
    return np.array(rows, dtype=np.uint64)


def _rollups(fused):
    return [r for r in fused.audit if r.kind == "rollup"]


class TestRollmix:
    def test_plan_has_the_expected_runs(self, rollmix):
        _, model = rollmix
        fused = model.fused()
        runs = _rollups(fused)
        assert sorted(r.detail["length"] for r in runs) == [3, 7, 64, 64, 64, 64]
        strides = {op["stride"] for r in runs for op in r.detail["operands"]}
        assert strides == {0, 1, 2}
        assert fused.stats["rolled_runs"] == 6
        assert fused.stats["rolled_members"] == 3 + 7 + 4 * 64
        # Runs of two and one stay ordinary statements, the chain is
        # never merged across levels, out-of-range reads stay zeros.
        rolled = {nid for r in runs for nid in r.detail["members"]}
        targets = {model.graph.nodes[nid].target for nid in rolled}
        assert not targets & {"s2[0].r", "s2[1].r", "s1[0].r",
                              "ch1", "ch2", "ch3", "ch4"}
        assert fused.stats["mem_read_sites"] == 3
        assert "_RB = max(1, 32768 // N)" in fused.source

    def test_every_member_keeps_its_own_claims(self, rollmix):
        _, model = rollmix
        fused = model.fused()
        claims = {}
        for r in fused.audit:
            if r.kind not in ("cse", "rollup"):
                claims.setdefault(r.node, []).append(r)
        seen_kinds = set()
        for run in _rollups(fused):
            rep, *rest = run.detail["members"]
            kinds = [r.kind for r in claims.get(rep, [])]
            seen_kinds.update(kinds)
            for nid in rest:
                mine = claims.get(nid, [])
                assert [r.kind for r in mine] == kinds
                # ... about the member's own expression, not the
                # representative's.
                node = model.graph.nodes[nid]
                assert all(r.target == node.target for r in mine)
                assert all(r.expr is node.expr for r in mine
                           if r.kind == "demand-store")
        assert {"demand-store", "const0-branch"} <= seen_kinds
        assert ir_checks.check_audit(model) == []
        assert verify_model(model).clean

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_matches_reference_and_unrolled_engine(self, rollmix, n):
        flow, model = rollmix
        stim = random_batch(model.design, n, 14, seed=n)
        fused = _traces(model, n, stim, "graph-fused")
        graph = _traces(model, n, stim, "graph")
        for w in WATCH:
            np.testing.assert_array_equal(fused[w], graph[w], err_msg=w)
        for lane in sorted({0, n // 2, n - 1}):
            want = _reference_lane(flow.graph, stim, lane)
            got = np.stack([fused[w][:, lane] for w in WATCH], axis=1)
            np.testing.assert_array_equal(got.astype(np.uint64), want)
        assert fused["o_acc"].any() and fused["o_q"].any()

    def test_single_row_blocks(self, rollmix):
        """At N > 32768 / 2 a row block is one row (``_RB == 1``)."""
        flow, model = rollmix
        n = codegen._ROW_BLOCK_ELEMS // 2 + 17
        assert max(1, codegen._ROW_BLOCK_ELEMS // n) == 1
        stim = random_batch(model.design, n, 6, seed=5)
        fused = _traces(model, n, stim, "graph-fused")
        graph = _traces(model, n, stim, "graph")
        for w in WATCH:
            np.testing.assert_array_equal(fused[w], graph[w], err_msg=w)
        want = _reference_lane(flow.graph, stim, n - 1)
        got = np.stack([fused[w][:, n - 1] for w in WATCH], axis=1)
        np.testing.assert_array_equal(got.astype(np.uint64), want)


# One condition feeding muxes of several widths: narrow mask first for
# ``a > b`` (truncation comes later for none, sign-extension for the
# rest), wide mask first for ``a < b`` (truncation for the rest).
MASKMIX_V = """
module maskmix (
    input wire [7:0] a,
    input wire [7:0] b,
    input wire [15:0] h,
    input wire [15:0] h2,
    input wire [31:0] w,
    input wire [31:0] w2,
    input wire [63:0] x,
    input wire [63:0] x2,
    output wire [7:0] g8,
    output wire [15:0] g16,
    output wire [31:0] g32,
    output wire [63:0] g64,
    output wire [63:0] l64,
    output wire [31:0] l32,
    output wire [15:0] l16,
    output wire [7:0] l8
);
    assign g8 = (a > b) ? a : b;
    assign g16 = (a > b) ? h : h2;
    assign g32 = (a > b) ? w : w2;
    assign g64 = (a > b) ? x : x2;
    assign l64 = (a < b) ? x : x2;
    assign l32 = (a < b) ? w : w2;
    assign l16 = (a < b) ? h : h2;
    assign l8 = (a < b) ? a : b;
endmodule
"""


# The same, under 0/1 conditions whose own dtype is wider than uint8: a
# bit-select of a 32- or 64-bit signal, and a mux of two such bits.  Each
# condition is asked for a narrow mask first (``a8`` before ``b32``) or a
# wide one first (``c64`` before ``d16``); an enable-increment under the
# same condition must wrap at its own width, not at the condition's.
WIDECOND_V = """
module widecond (
    input wire [31:0] instr,
    input wire [63:0] x,
    input wire [7:0] p8,
    input wire [7:0] q8,
    input wire [15:0] p16,
    input wire [15:0] q16,
    input wire [31:0] p32,
    input wire [31:0] q32,
    input wire [63:0] p64,
    input wire [63:0] q64,
    output wire [7:0] a8,
    output wire [31:0] b32,
    output wire [63:0] b64,
    output wire [63:0] c64,
    output wire [15:0] d16,
    output wire [7:0] d8,
    output wire [7:0] e8,
    output wire [31:0] f32,
    output wire [15:0] g16,
    output wire [63:0] h64,
    output wire [7:0] i8,
    output wire wrapped
);
    assign a8 = instr[30] ? p8 : q8;
    assign b32 = instr[30] ? p32 : q32;
    assign b64 = instr[30] ? p64 : q64;
    assign c64 = x[40] ? p64 : q64;
    assign d16 = x[40] ? p16 : q16;
    assign d8 = x[40] ? p8 : 8'd0;
    assign e8 = (instr[3] ? x[7] : x[50]) ? p8 : q8;
    assign f32 = (instr[3] ? x[7] : x[50]) ? p32 : q32;
    assign g16 = (instr[3] ? x[7] : x[50]) ? 16'd0 : q16;
    assign h64 = (instr[3] ? x[7] : x[50]) ? p64 : q64;
    assign i8 = instr[5] ? q8 + 8'd1 : q8;
    assign wrapped = (instr[5] ? q8 + 8'd1 : q8) == 8'd0;
endmodule
"""


def widecond_rolled_source(members: int = 5) -> str:
    """``members`` registers per width, every one gated by its own bit of
    a 32-bit word: the per-member condition of each rolled-up run is a
    (k, N) uint32 bit-select shared by an 8-, a 32- and a 64-bit run."""
    xor = lambda fmt: " ^ ".join(  # noqa: E731
        fmt.format(i=i) for i in range(members))
    return f"""
module widecondr (
    input wire clk,
    input wire rst,
    input wire [31:0] sel,
    input wire [7:0] d8,
    input wire [31:0] d32,
    input wire [63:0] d64,
    output wire [7:0] o8,
    output wire [31:0] o32,
    output wire [63:0] o64
);
    genvar i;
    generate
        for (i = 0; i < {members}; i = i + 1) begin : m
            reg [31:0] g;
            reg [7:0] r8;
            reg [31:0] r32;
            reg [63:0] r64;
            always @(posedge clk) begin
                g <= rst ? 32'd0 : g + sel + i;
                r8 <= g[17] ? r8 + d8 : r8 ^ d8;
                r32 <= g[17] ? r32 + d32 : r32 ^ (g[17] ? d8 : r8);
                r64 <= g[17] ? r64 + d64 : r64 ^ d64;
            end
        end
    endgenerate
    assign o8 = {xor("m[{i}].r8")};
    assign o32 = {xor("m[{i}].r32")};
    assign o64 = {xor("m[{i}].r64")};
endmodule
"""


class TestValueNumbering:
    def test_masks_of_one_condition_derive_from_the_first(self):
        from tests.helpers import assert_batch_matches_reference

        graph = assert_batch_matches_reference(
            MASKMIX_V, "maskmix", n=67, cycles=12, seed=4)
        fused = codegen.FusedProgramCodegen(graph).compile()
        # Two conditions, each evaluated once; the six other masks are
        # sign-extensions or truncations of the first.
        assert fused.stats["temporaries"] == 8
        assert fused.source.count(" > ") == 1
        assert fused.source.count(" < ") == 1
        for derived in (".view(np.int8).astype(np.int16).view(u16)",
                        ".view(np.int8).astype(np.int64).view(u64)",
                        ".astype(u32)", ".astype(u8)"):
            assert derived in fused.source

    def test_wide_conditions_are_narrowed_before_masks_derive(self):
        """A bit-select of a 32/64-bit slot is 0/1 at the slot's dtype;
        the masks derived from the first one assume it is uint8."""
        from tests.helpers import assert_batch_matches_reference

        graph = assert_batch_matches_reference(
            WIDECOND_V, "widecond", n=67, cycles=16, seed=4)
        fused = codegen.FusedProgramCodegen(graph).compile()
        src = fused.source
        # Narrow mask first (sign-extended to 32 and 64 bits), wide mask
        # first (truncated to 16 and 8), for both kinds of condition.
        for derived in (".view(np.int8).astype(np.int32).view(u32)",
                        ".view(np.int8).astype(np.int64).view(u64)",
                        ".view(np.int8).astype(np.int16).view(u16)",
                        ".astype(u16)"):
            assert derived in src
        # Each condition is read once per mask family and once for the
        # increment (which adds the narrowed 0/1, no mask).
        assert src.count(">> 30") == 1 and src.count(">> 40") == 1
        assert src.count(">> 50") == 1 and src.count(">> 5))") == 2
        model = RTLFlow.from_source(WIDECOND_V, "widecond").compile()
        assert verify_model(model).clean

    @pytest.mark.parametrize("n", [1, 65, codegen._ROW_BLOCK_ELEMS // 2 + 3])
    def test_wide_conditions_in_rolled_runs(self, n):
        """The largest ``n`` takes the one-row blocks (``_RB == 1``).
        Every lane of the fused run is compared with the ``graph``
        executor, whose per-task programs do not roll; the scalar
        reference replays each 64-lane word's first and last lane
        (0, 63, 64, ..., n - 1)."""
        from tests.conftest import compile_graph
        from tests.helpers import batch_traces, reference_traces

        src = widecond_rolled_source()
        graph = compile_graph(src, "widecondr")
        watch = [s.name for s in graph.design.outputs]
        stim = random_batch(graph.design, n, 10, seed=n)
        fused_traces = batch_traces(graph, stim, watch)
        unrolled = batch_traces(graph, stim, watch, executor="graph")
        lanes = sorted({lane for lo in range(0, n, 64)
                        for lane in (lo, min(lo + 63, n - 1))})
        ref = reference_traces(graph, StimulusBatch(
            {k: v[:, lanes] for k, v in stim.data.items()}), watch)
        for w in watch:
            assert np.array_equal(fused_traces[w], unrolled[w]), w
            assert np.array_equal(fused_traces[w][:, lanes], ref[w]), w
        fused = codegen.FusedProgramCodegen(graph).compile()
        assert fused.stats["rolled_runs"] == 3
        # Inside the 32-bit run the per-block 8-bit mask is sign-extended.
        assert "_row.view(np.int8).astype(np.int32).view(u32)" in fused.source
        model = RTLFlow.from_source(src, "widecondr").compile()
        assert ir_checks.check_audit(model) == []
        assert verify_model(model).clean

    def test_reuse_is_recorded_and_reproved(self):
        model = RTLFlow.from_source(MASKMIX_V, "maskmix").compile()
        fused = model.fused()
        assert not [r for r in fused.audit if r.kind == "cse"]  # one use each
        spinal = get_design("spinal", taps=8)
        model = RTLFlow.from_source(spinal.source, spinal.top).compile()
        reuses = [r for r in model.fused().audit if r.kind == "cse"]
        assert reuses
        for r in reuses:
            assert r.detail["def_pos"] <= r.detail["use_pos"]
        assert ir_checks.check_audit(model) == []

    def test_memo_does_not_leak_between_programs(self):
        """The comb and seq programs of ``counter`` both gate on ``rst``-
        like conditions; a temp bound in one function must never be
        named in the other."""
        import re

        for name, params in (("counter", {}), ("spinal", {"taps": 8}),
                             ("nvdla", {"pes": 4})):
            b = get_design(name, **params)
            src = RTLFlow.from_source(b.source, b.top).compile().fused().source
            for body in src.split("\ndef ")[1:]:
                bound = set(re.findall(r"^\s+(_t\d+\w*) = ", body, re.M))
                used = set(re.findall(r"\b_t\d+\w*", body))
                assert used <= bound, (name, sorted(used - bound))


class TestNvdlaRolledUp:
    """Everything around the programs is untouched: quarantine and mid-run
    checkpoints see the same pools."""

    @pytest.fixture(scope="class")
    def nvdla(self):
        b = get_design("nvdla", pes=4)
        return b, RTLFlow.from_source(b.source, b.top).compile()

    def _sim(self, nvdla, n, **kw):
        b, model = nvdla
        sim = BatchSimulator(model, n, **kw)
        b.preload(sim)
        return sim

    def test_programs_are_rolled_up(self, nvdla):
        stats = nvdla[1].fused().stats
        assert stats["rolled_members"] > 0.9 * len(nvdla[1].graph.nodes)
        assert stats["mem_read_sites"] == 0

    def test_quarantined_lanes_match_the_unrolled_engine(self, nvdla):
        b, _ = nvdla
        n, cycles = 33, 30
        stim = b.make_stimulus(n, cycles, 7)
        plan = FaultPlan(lane_faults=[LaneFaultSpec(cycle=12, lane=5),
                                      LaneFaultSpec(cycle=20, lane=32)])
        outs = {}
        for kind in ("graph-fused", "graph"):
            sim = self._sim(nvdla, n, executor=kind, fault_isolation=True)
            outs[kind] = sim.run(stim, watch=b.watch, trace_every=1,
                                 fault_plan=plan)
            assert sim.quarantine.faulted_lanes() == [5, 32]
        for w in b.watch:
            np.testing.assert_array_equal(
                outs["graph-fused"][w], outs["graph"][w], err_msg=w)

    def test_midrun_checkpoint_restore(self, nvdla):
        b, _ = nvdla
        n, cycles = 20, 36
        stim = b.make_stimulus(n, cycles, 3)
        ref = self._sim(nvdla, n).run(stim, watch=b.watch, trace_every=1)

        sim = self._sim(nvdla, n)
        sim.run(stim, cycles=17)
        ckpt = sim.save_checkpoint()
        fresh = self._sim(nvdla, n)
        fresh.restore_checkpoint(ckpt)
        out = fresh.run(stim, watch=b.watch, trace_every=1,
                        start_cycle=fresh.cycles_run)
        for w in b.watch:
            np.testing.assert_array_equal(out[w][-1], ref[w][-1], err_msg=w)
        assert np.asarray(ref["checksum"][-1]).any()


def _fused(name, **params):
    b = get_design(name, **params)
    return RTLFlow.from_source(b.source, b.top).compile().fused()


class TestProgramSizes:
    """The counts named before the change, from ``fused.stats`` (the
    parent's numbers in the comments)."""

    def test_nvdla(self):
        stats = _fused("nvdla", pes=64).stats
        assert stats["temporaries"] <= 80  # 1244
        assert stats["unpack_sites"] <= 10  # 1249
        assert stats["statements"] <= 150  # 2540
        assert stats["mem_read_sites"] == 0  # 512
        assert stats["lines"] <= 470  # 3863
        assert stats["rolled_members"] >= 1280

    def test_spinal_and_riscv_temporaries(self):
        # 42 and 58 before value numbering; 17 and 36 masks after it.  A
        # packed mux condition is value-numbered too (spinal 1, riscv_mini
        # 15), and an attempt that bails no longer leaves a mask behind.
        # Re-pinned when the comb program started looking small-input
        # nodes up in tables: spinal's arbiter (`arb0.g`, 7 masks) is one
        # 64-entry lookup, so 18 -> 11.
        assert _fused("spinal", taps=8).stats["temporaries"] == 11
        # Re-pinned after lowering started sharing subtrees: riscv_mini's
        # `c ? x : x` merges collapse (45 temporaries).  Then its five
        # `case` chains became stack gathers and its three opcode
        # decoders tables: the per-arm masks and the nine packed
        # `opcode == k` compares are gone, 45 -> 15.
        assert _fused("riscv_mini").stats["temporaries"] == 15

    def test_counter_source_is_byte_identical_to_the_parents(self):
        # No constant shift, bit-select, replication or packed constant:
        # constant-aware lowering leaves nothing to change.
        fused = _fused("counter")
        assert hashlib.sha256(fused.source.encode()).hexdigest() == (
            "404c1e0c0469bc9bce6559be348dfbfd76db7a57fbd434e4af884784fec68e49")

    def test_crypto_lowers_by_operand_kind(self):
        fused = _fused("crypto", rounds=4)
        sites = fused.stats["helper_sites"]
        assert sites.get("wv.shl", 0) == sites.get("wv.shr", 0) == 0  # 4, 4
        assert sites["wv.rotl_const"] == 4  # one per round
        assert sites.get("wv.mask_width", 0) <= 10  # 31
        assert sites.get("wv.from_const", 0) == 0  # 6
        assert fused.stats["temporaries"] == 0
        assert fused.stats["rolled_runs"] == 0

    def test_riscv_mini_lowers_by_operand_kind(self):
        sites = _fused("riscv_mini").stats["helper_sites"]
        assert sites["bvb.b_shr"] <= 6  # 80: the six dynamic shifts remain
        assert sites["pk.pack_bool"] <= 22  # 72: one per distinct compare
        assert sites.get("pk.zeros", 0) + sites.get("pk.ones", 0) <= 2  # 33

    def test_counter_does_not_grow(self):
        stats = _fused("counter").stats
        assert stats["statements"] == 4  # parent: 2 comb + 2 seq
        assert stats["temporaries"] == 1
        assert stats["rolled_runs"] == 0

    def test_stats_match_the_source(self):
        import re

        fused = _fused("nvdla", pes=8)
        src = fused.source
        body = [ln.strip() for ln in src.split("\ndef ", 1)[1].splitlines()]
        executable = [ln for ln in body if ln and not ln.startswith(
            ("#", "def ", "fused_"))]
        assert fused.stats["statements"] == len(executable)
        assert fused.stats["temporaries"] == len(
            re.findall(r"^\s+_t\d+\w* = ", src, re.M))
        assert fused.stats["rolled_runs"] == src.count("for _row in range(")
        assert fused.stats["lines"] == len(src.splitlines())
        sites = fused.stats["helper_sites"]
        assert sum(sites.values()) == len(re.findall(
            r"\b(?:wv|bvb|pk|rt)\.\w+\(", src))
        assert fused.stats["unpack_sites"] == src.count("pk.unpack_u8(")
        assert fused.stats["mem_read_sites"] == src.count("rt.mem_read(")
