"""Fused flat-program executor: differential matrix + hot-path contracts.

The contract under test (docs/fusion.md):

* **Bit-identity** — ``graph-fused`` (one straight-line compiled program
  per partition, 1-bit signals word-packed across the batch axis) is
  bit-identical to the per-node ``graph`` executor on every cycle, for
  every design shape that stresses a pack/unpack boundary: >64-bit
  multi-limb signals, dynamic memories with out-of-range addresses,
  quarantined lanes, and checkpoint/resume (in-process and through
  ``repro.cluster``).
* **Aliasing** — ``rt.mem_read``'s constant-address fast path only
  returns a zero-copy view when the caller opts in with ``copy=False``;
  the default always survives later pool writes (the hot-path aliasing
  bug this PR fixes).
* **Compiled-code identity** — generated programs compile under
  content-addressed pseudo-filenames, so identical designs share one
  code object and distinct designs with the same top never alias.
* **Lookup lowerings** — the comb program's keyed ``case`` gathers and
  lookup tables match the reference and the per-task engine, and two
  simulators sharing one model's namespace keep their stacks apart.
"""

import re
import sys
import threading

import numpy as np
import pytest

from repro.cluster import CampaignSpec, run_campaign
from repro.core.codegen import compile_source, transpile
from repro.core.flow import RTLFlow
from repro.core.kernels import mem_read
from repro.core.simulator import BatchSimulator
from repro.designs import get_design
from repro.obs.trace import Tracer
from repro.resilience import FaultPlan, LaneFaultSpec
from repro.stimulus.generator import random_batch
from repro.utils import packbits as pk
from repro.utils.errors import SimulationError

from tests.conftest import ALU_V, COUNTER_V, HIER_V, MEMDUT_V, compile_graph
from tests.helpers import assert_batch_matches_reference

WIDEACC_V = """
module wideacc (
    input wire clk,
    input wire rst,
    input wire [95:0] din,
    output wire [95:0] acc,
    output wire msb
);
    reg [95:0] r;
    always @(posedge clk) begin
        if (rst) r <= 0;
        else r <= r + din;
    end
    assign acc = r ^ din;
    assign msb = r[95];
endmodule
"""

# Depth-6 memory addressed by 3 bits: addresses 6 and 7 are reachable
# from stimulus and must read as 0 / drop the write in both executors.
MEMOOB_V = """
module memoob (
    input wire clk,
    input wire we,
    input wire [2:0] waddr,
    input wire [2:0] raddr,
    input wire [7:0] wdata,
    output wire [7:0] rdata,
    output wire lsb
);
    reg [7:0] mem [0:5];
    always @(posedge clk) begin
        if (we) mem[waddr] <= wdata;
    end
    assign rdata = mem[raddr];
    assign lsb = rdata[0];
endmodule
"""

# Combinational operator soup: mul/div/mod (the division-by-zero fault
# sink), shifts by a dynamic amount, reductions with inversion, concat
# with constant parts, part selects and a mux.
OPSOUP_V = """
module opsoup (
    input wire [7:0] a,
    input wire [7:0] b,
    input wire [2:0] s,
    output wire [7:0] y,
    output wire r,
    output wire [15:0] w
);
    wire [7:0] m = (a * b) + (a / (b | 8'h1)) - (a % (b | 8'h3));
    wire [7:0] sh = (a << s) | (b >> s);
    assign y = s[0] ? m ^ sh : m + sh;
    assign r = ^a & |b & ~&b[3:0];
    assign w = {a, b} + {8'd0, a[6:2], s};
endmodule
"""


def _model(src, top):
    return transpile(compile_graph(src, top))


def _run(model, n, stim, executor, faults=None, tracer=None):
    sim = BatchSimulator(
        model, n, executor=executor,
        fault_isolation=bool(faults), tracer=tracer,
    )
    plan = (
        FaultPlan(lane_faults=[
            LaneFaultSpec(cycle=c, lane=l, reason=r) for c, l, r in faults
        ])
        if faults else None
    )
    outs = sim.run(stim, trace_every=1, fault_plan=plan)
    return {k: np.asarray(v).copy() for k, v in outs.items()}, sim


# ---------------------------------------------------------------------------
# Differential matrix: fused vs per-node graph executor, per cycle


DIFFERENTIAL_MATRIX = [
    pytest.param(COUNTER_V, "counter", id="counter"),
    pytest.param(ALU_V, "alu", id="alu-comb"),
    pytest.param(HIER_V, "adder4", id="hier-1bit"),
    pytest.param(MEMDUT_V, "memdut", id="memory"),
    pytest.param(MEMOOB_V, "memoob", id="memory-oob"),
    pytest.param(WIDEACC_V, "wideacc", id="wide-96bit"),
    pytest.param(OPSOUP_V, "opsoup", id="op-soup"),
]


@pytest.mark.parametrize("src,top", DIFFERENTIAL_MATRIX)
@pytest.mark.parametrize("n", [16, 67])  # 67: ragged tail word
def test_fused_bit_identical_to_graph(src, top, n):
    model = _model(src, top)
    stim = random_batch(model.design, n, 30, seed=9)
    ref, _ = _run(model, n, stim, "graph")
    fused, _ = _run(model, n, stim, "graph-fused")
    assert set(ref) == set(fused)
    for name in ref:
        np.testing.assert_array_equal(ref[name], fused[name], err_msg=name)


@pytest.mark.parametrize("src,top", [
    pytest.param(COUNTER_V, "counter", id="counter"),
    pytest.param(MEMOOB_V, "memoob", id="memory-oob"),
    pytest.param(WIDEACC_V, "wideacc", id="wide-96bit"),
    pytest.param(OPSOUP_V, "opsoup", id="op-soup"),
])
def test_fused_matches_golden_reference(src, top):
    # The scalar golden model is the authority, not the graph executor.
    assert_batch_matches_reference(src, top, n=11, cycles=20, seed=3,
                                   executor="graph-fused")


def test_fused_with_quarantined_lanes_matches_graph():
    model = _model(COUNTER_V, "counter")
    n = 24
    stim = random_batch(model.design, n, 40, seed=7)
    faults = [(7, 13, "injected"), (15, 2, "injected")]
    ref, ref_sim = _run(model, n, stim, "graph", faults=faults)
    fused, fused_sim = _run(model, n, stim, "graph-fused", faults=faults)
    for name in ref:
        np.testing.assert_array_equal(ref[name], fused[name], err_msg=name)
    assert ref_sim.quarantine.faulted_lanes() == \
        fused_sim.quarantine.faulted_lanes()


# ---------------------------------------------------------------------------
# Checkpoint/resume: packed pools survive snapshot boundaries


def test_fused_midrun_checkpoint_restore():
    model = _model(COUNTER_V, "counter")
    n = 16
    stim = random_batch(model.design, n, 50, seed=4)
    ref, _ = _run(model, n, stim, "graph-fused")

    sim = BatchSimulator(model, n, executor="graph-fused")
    sim.run(stim, cycles=23)
    ckpt = sim.save_checkpoint()

    fresh = BatchSimulator(model, n, executor="graph-fused")
    fresh.restore_checkpoint(ckpt)
    assert fresh.cycles_run == 23
    out = fresh.run(stim, trace_every=1, start_cycle=fresh.cycles_run)
    # The resumed tail must continue the uninterrupted run exactly.
    np.testing.assert_array_equal(out["count"][-1], ref["count"][-1])


def test_fused_campaign_checkpoint_resume(tmp_path):
    bundle = get_design("counter")
    n, cycles, seed = 16, 30, 2
    graph_spec = CampaignSpec(
        n=n, cycles=cycles, design="counter", seed=seed,
        executor="graph", watch=bundle.watch,
    )
    fused_spec = CampaignSpec(
        n=n, cycles=cycles, design="counter", seed=seed,
        executor="graph-fused", watch=bundle.watch, checkpoint_every=8,
    )
    ref = run_campaign(graph_spec, workers=0, shard_lanes=4)
    ck = str(tmp_path / "ckpt")
    first = run_campaign(fused_spec, workers=0, shard_lanes=4,
                         checkpoint_dir=ck)
    for name in ref.outputs:
        np.testing.assert_array_equal(ref.outputs[name], first.outputs[name])
    # A rerun adopts the durable shard results written by the first run.
    second = run_campaign(fused_spec, workers=0, shard_lanes=4,
                          checkpoint_dir=ck)
    assert all(o.cached for o in second.shards)
    for name in first.outputs:
        np.testing.assert_array_equal(first.outputs[name],
                                      second.outputs[name])


# ---------------------------------------------------------------------------
# mem_read aliasing contract (the hot-path bug this PR fixes)


def test_mem_read_constant_address_default_is_a_copy():
    """Regression: the constant-address fast path used to return a pool
    view unconditionally, so a later ``mem_commit`` to the same region
    silently mutated values already read earlier in program order."""
    n, depth = 8, 4
    pool = np.arange(depth * n, dtype=np.uint64)
    lane = np.arange(n, dtype=np.uint64)
    got = mem_read(pool, 0, depth, n, lane, np.uint64(1))
    before = got.copy()
    pool[:] = 999  # a later store to the memory's region
    np.testing.assert_array_equal(got, before)
    assert not np.shares_memory(got, pool)


def test_mem_read_constant_address_opt_in_view():
    # copy=False is the generated-code fast path: a zero-copy view,
    # valid only until the next program-order store.
    n, depth = 8, 4
    pool = np.arange(depth * n, dtype=np.uint64)
    lane = np.arange(n, dtype=np.uint64)
    got = mem_read(pool, 0, depth, n, lane, np.uint64(2), copy=False)
    assert np.shares_memory(got, pool)
    np.testing.assert_array_equal(got, pool[2 * n: 3 * n])


def test_mem_read_depth_zero_and_out_of_range():
    n = 6
    pool = np.full(4 * n, 7, dtype=np.uint64)
    lane = np.arange(n, dtype=np.uint64)
    # Depth 0: no valid address at all (guards the uint64 depth-1 wrap).
    np.testing.assert_array_equal(
        mem_read(pool, 0, 0, n, lane, np.uint64(0)), np.zeros(n, np.uint64))
    # Constant out-of-range address reads as zero, in and out of copy mode.
    np.testing.assert_array_equal(
        mem_read(pool, 0, 4, n, lane, np.uint64(9)), np.zeros(n, np.uint64))
    # Dynamic addresses: only the out-of-range lanes read zero.
    idx = np.array([0, 3, 4, 9, 1, 2], dtype=np.uint64)
    got = mem_read(pool, 0, 4, n, lane, idx)
    np.testing.assert_array_equal(got, np.where(idx < 4, 7, 0))


# ---------------------------------------------------------------------------
# Compiled-code cache + content-addressed pseudo-filenames


def test_compile_source_shares_code_for_identical_source():
    src = "x = 1\n"
    a = compile_source(src, "top_a")
    b = compile_source(src, "top_a")
    assert a is b  # cache hit: cluster shards share one compile()


def test_compile_source_digest_disambiguates_same_top():
    a = compile_source("x = 1\n", "dut")
    b = compile_source("x = 2\n", "dut")
    assert a is not b
    assert a.co_filename != b.co_filename
    for code in (a, b):
        assert code.co_filename.startswith("<rtlflow:dut:")
        assert code.co_filename.endswith(">")
    tagged = compile_source("x = 1\n", "dut", tag="fused")
    assert tagged.co_filename.startswith("<rtlflow:dut:fused:")


# ---------------------------------------------------------------------------
# Word-packing primitives + the stimulus row copy


@pytest.mark.parametrize("n", [1, 63, 64, 67, 130])
def test_pack_rows_bit_identical_to_per_row_pack(n):
    rng = np.random.default_rng(n)
    # Values >= 2 exercise the low-bit masking (2 packs as 0).
    mat = rng.integers(0, 4, size=(9, n), dtype=np.uint64)
    rows = pk.pack_rows(mat, n)
    assert rows.shape == (9, pk.words_for(n))
    for c in range(mat.shape[0]):
        np.testing.assert_array_equal(rows[c], pk.pack(mat[c], n))
        # Canonical form: tail bits past n are zero.
        assert int(rows[c][-1]) & ~pk.tail_mask(n) == 0
        np.testing.assert_array_equal(
            pk.unpack_u8(rows[c], n), (mat[c] & 1).astype(np.uint8))


def test_direct_stimulus_apply_matches_traced_path():
    # The tracer keeps the run per cycle, copying the stimulus rows inside
    # cycle()'s set_inputs span; the default run copies the same rows in
    # its chunked loop.  Both must agree bit for bit.
    model = _model(COUNTER_V, "counter")
    n = 67
    stim = random_batch(model.design, n, 30, seed=11)
    fast, _ = _run(model, n, stim, "graph-fused")
    slow, _ = _run(model, n, stim, "graph-fused",
                   tracer=Tracer(enabled=True))
    for name in fast:
        np.testing.assert_array_equal(fast[name], slow[name], err_msg=name)


def test_clock_scalar_cache_invalidated_by_host_write():
    model = _model(COUNTER_V, "counter")
    sim = BatchSimulator(model, 8, executor="graph-fused")
    sim.set_clock(0)
    # A direct host write must invalidate the cached uniform level ...
    sim.arrays.write("clk", np.ones(8, dtype=np.uint64))
    assert sim._clock_level("clk") == 1
    # ... and a divergent write must be detected, not served stale.
    sim.set_clock(1)
    sim.arrays.write("clk", (np.arange(8) % 2).astype(np.uint64))
    with pytest.raises(SimulationError, match="batch-uniform"):
        sim._clock_level("clk")


def test_direct_clock_poke_triggers_edge_detection():
    """Regression: poking the clock via ``arrays.write`` (bypassing
    ``set_clock``) must invalidate the scalar-level cache so the fused
    path sees the edge — a stale cached level would silently swallow
    the posedge and the counter would never advance."""
    model = _model(COUNTER_V, "counter")
    n = 8
    sim = BatchSimulator(model, n, executor="graph-fused")
    sim.set_input("rst", np.zeros(n, dtype=np.uint64))
    sim.set_input("en", np.ones(n, dtype=np.uint64))
    sim.set_clock(0)
    sim.evaluate()
    sim.set_clock(1)
    sim.evaluate()  # posedge via the normal path
    base = np.asarray(sim.get("count")).copy()
    # Now toggle the clock entirely through direct pool writes.
    sim.arrays.write("clk", np.zeros(n, dtype=np.uint64))
    sim.evaluate()
    sim.arrays.write("clk", np.ones(n, dtype=np.uint64))
    sim.evaluate()
    np.testing.assert_array_equal(np.asarray(sim.get("count")), base + 1)


def test_pool_restore_bulk_invalidates_clock_cache():
    """Regression: ``DeviceArrays.restore`` overwrites whole pools, so
    every cached clock scalar is stale.  The hook's ``None`` signal must
    clear the cache — otherwise edge detection keeps reporting the
    pre-restore level and no edge ever fires again."""
    model = _model(COUNTER_V, "counter")
    n = 8
    sim = BatchSimulator(model, n, executor="graph-fused")
    sim.set_input("rst", np.zeros(n, dtype=np.uint64))
    sim.set_input("en", np.ones(n, dtype=np.uint64))
    sim.set_clock(0)
    sim.evaluate()
    snap = sim.arrays.snapshot()  # clock low in the snapshot
    sim.set_clock(1)
    sim.evaluate()  # posedge; scalar cache now says clk=1
    base = np.asarray(sim.get("count")).copy()
    sim.arrays.restore(snap)  # pools say clk=0 again
    assert sim._clock_level("clk") == 0  # not the stale cached 1
    sim.evaluate()  # settles prev_clock at the restored low level
    sim.set_clock(1)
    sim.evaluate()  # must be seen as a fresh posedge
    np.testing.assert_array_equal(np.asarray(sim.get("count")), base)


# ---------------------------------------------------------------------------
# Keyed selects and lookup tables (comb program only)


# One dense `case` (labels 0..3 in order, no default: the assignment
# ahead of it), one sparse `case` with a multi-label arm, a repeated
# label and a label too wide to match, a 1-bit `case` (gathered, then
# packed), and a decoder over 6 input bits (a table).
CASEMIX_V = """
module casemix (
    input wire [1:0] k,
    input wire [2:0] op,
    input wire [2:0] sub,
    input wire [7:0] a,
    input wire [31:0] b,
    output reg [31:0] dense,
    output reg [7:0] sparse,
    output reg flag,
    output wire [3:0] dec
);
    always @* begin
        dense = 32'd7;
        case (k)
            2'd0: dense = b + a;
            2'd1: dense = b << a[4:0];
            2'd2: dense = b ^ 32'hdeadbeef;
            2'd3: dense = {a, a, a, a};
        endcase
    end
    always @* begin
        case (op)
            3'd1, 3'd6: sparse = a + 8'd1;
            3'd4: sparse = a;
            3'd6: sparse = 8'hff;
            3'd2: sparse = ~a;
            4'd9: sparse = 8'h55;
            default: sparse = 8'd0;
        endcase
    end
    always @* begin
        case (op)
            3'd0: flag = a[0];
            3'd3: flag = b[31];
            3'd5: flag = a == b[7:0];
            default: flag = 1'b1;
        endcase
    end
    assign dec = (op == sub) ? {1'b0, op} :
                 (op > sub) ? op - sub : {sub[0], op[2:0]} ^ 4'd5;
endmodule
"""


def test_case_lowerings_match_reference_and_graph():
    fused = _model(CASEMIX_V, "casemix").fused()
    assert fused.stats["keyed_selects"] == 3
    assert fused.stats["tables"] == 1 and fused.stats["table_entries"] == 64
    dense, sparse, flag = [r for r in fused.audit if r.kind == "keyed-select"]
    assert dense.detail["index"] is None and dense.detail["rows"] == [0, 1, 2, 3]
    # `3'd6` stays with its first arm; `4'd9` never matches a 3-bit `op`.
    assert sparse.detail["constants"] == [[1, 6], [4], [2]]
    assert sparse.detail["rows"] == [3, 0, 2, 3, 1, 3, 0, 3]
    assert flag.detail["rows"] == [0, 3, 3, 1, 3, 2, 3, 3]
    for n in (1, 63, 64, 65, 130):
        assert_batch_matches_reference(CASEMIX_V, "casemix", n=n, cycles=3,
                                       seed=n, executor="graph-fused")
    model = _model(CASEMIX_V, "casemix")
    stim = random_batch(model.design, 67, 5, seed=4)
    ref, _ = _run(model, 67, stim, "graph")
    got, _ = _run(model, 67, stim, "graph-fused")
    for name in ref:
        np.testing.assert_array_equal(ref[name], got[name], err_msg=name)


def test_bundled_designs_reach_the_lookup_lowerings():
    models = {}
    for name in ("riscv_mini", "spinal", "nvdla"):
        b = get_design(name)
        models[name] = RTLFlow.from_source(b.source, b.top).compile()
    riscv, spinal, nvdla = (models[n].fused().stats
                            for n in ("riscv_mini", "spinal", "nvdla"))
    # alu_i, alu_r, branch_taken, next_pc, wb_val; wb_en, dmem_we, illegal.
    assert riscv["keyed_selects"] >= 5 and riscv["tables"] >= 3
    assert riscv["temporaries"] < 45
    assert riscv["helper_sites"].get("pk.pack_bool", 0) < 22
    assert spinal["tables"] >= 1  # the round-robin arbiter `arb0.g`
    # nvdla's only `case` is a 2-arm FSM in its seq program.
    assert nvdla["keyed_selects"] == nvdla["tables"] == 0
    # The per-task module comes from the same emitter, so its task
    # programs carry the same lowerings.
    def tables(source):
        return set(re.findall(r"\b_LUT\d+\[", source))

    tasks = models["riscv_mini"].tasks().source
    assert len(set(re.findall(r"\b_S\d+ = np\.empty\(", tasks))) >= 5
    assert len(tables(tasks)) >= 3
    assert len(tables(models["spinal"].tasks().source)) >= 1


def test_concurrent_simulators_share_one_model():
    """Two simulators built from one compiled model evaluate on
    concurrent threads, on different stimulus, and each one's outputs
    equal its own sequential run, on the product engine and on the
    per-task `graph` engine.  Their programs (the fused ones, or the
    per-task module's) share one namespace, so a keyed select's stack
    must stay local to the call: hoisted to module scope, one thread's
    arms would fill the other's gather."""
    b = get_design("riscv_mini")
    model = RTLFlow.from_source(b.source, b.top).compile()
    n, cycles = 64, 60
    stims = [b.make_stimulus(n, cycles, seed) for seed in (1, 2)]

    def simulator(executor):
        sim = BatchSimulator(model, n, executor=executor)
        b.preload(sim)
        return sim

    def run(sim, stim):
        outs = sim.run(stim, watch=b.watch, trace_every=1)
        return {k: np.asarray(v).copy() for k, v in outs.items()}

    for executor in ("graph-fused", "graph"):
        alone = [run(simulator(executor), stim) for stim in stims]
        assert any((alone[0][w] != alone[1][w]).any() for w in b.watch)
        sims = [simulator(executor) for _ in stims]
        got, errors = [None, None], []
        barrier = threading.Barrier(2)

        def worker(i):
            try:
                barrier.wait()
                got[i] = run(sims[i], stims[i])
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        # Switch threads as often as possible so the two comb evaluations
        # interleave between filling a stack and gathering from it.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert sims[0].model.fused() is sims[1].model.fused()
        assert model.tasks_built == (executor == "graph")
        for want, have in zip(alone, got):
            for w in b.watch:
                np.testing.assert_array_equal(want[w], have[w],
                                              err_msg=f"{executor}: {w}")
