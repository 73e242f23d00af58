"""``BatchSimulator.run``'s chunked path against a per-cycle loop.

With the graph-fused engine, tracing off, no lane quarantine and every
clock domain on the simulator's own input clock, ``run()`` advances the
batch in chunks of cycles through the compiled programs, calling back
into Python only where a stop poll, trace sample, checkpoint or progress
call is due.  The reference for every test here is the plain loop
``for c in range(T): sim.cycle(stim.inputs_at(c))``, which never chunks.
Both must agree on every pool word, ``cycles_run``, the clock phase,
the device's launch counts and the stopwatch's per-cycle counts.  The
runs that stay per cycle copy the same stimulus rows; they are checked
against the same reference.
"""

import os
import pickle

import numpy as np
import pytest

from repro import obs
from repro.core.flow import RTLFlow
from repro.core.simulator import BatchSimulator
from repro.coverage.collector import CoverageCollector
from repro.designs import get_design
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.resilience import (
    CheckpointManager, CheckpointPolicy, FaultPlan, LaneFaultSpec,
)
from repro.resilience.faults import REASON_INJECTED
from repro.stimulus.generator import random_batch
from repro.utils.errors import SimulationError

from tests.conftest import COUNTER_V, MEMDUT_V

# Registers on both edges of one clock; the negedge domain also commits
# a 1-bit register (packed pool) and a memory write.
NEGEDGE_V = """
module negdut (
    input wire clk,
    input wire [3:0] d,
    input wire we,
    output wire [3:0] qp,
    output wire [3:0] qn,
    output wire t,
    output wire [7:0] rd
);
    reg [3:0] rp, rn;
    reg tr;
    reg [7:0] mem [0:3];
    always @(posedge clk) rp <= d;
    always @(negedge clk) begin
        rn <= rp + 4'd1;
        tr <= tr ^ we;
        if (we) mem[d[1:0]] <= {rp, rn};
    end
    assign qp = rp;
    assign qn = rn;
    assign t = tr;
    assign rd = mem[d[3:2]];
endmodule
"""

NEGONLY_V = """
module negonly (input wire clk, input wire [3:0] d, output wire [3:0] q);
    reg [3:0] r;
    always @(negedge clk) r <= r + d;
    assign q = r;
endmodule
"""

# A sticky per-lane ``done`` flag for the early-exit tests.
STOPDUT_V = """
module stopdut (
    input wire clk,
    input wire rst,
    input wire [3:0] d,
    output wire done,
    output wire [7:0] seen
);
    reg done_r;
    reg [7:0] cnt;
    always @(posedge clk) begin
        if (rst) begin
            done_r <= 1'b0;
            cnt <= 8'd0;
        end else begin
            if (d == 4'd15) done_r <= 1'b1;
            cnt <= cnt + 8'd1;
        end
    end
    assign done = done_r;
    assign seen = cnt;
endmodule
"""

# Native-pool columns: ``a`` is narrower than its u64 pool slot (the
# row cast must mask a copy, never the caller's stimulus), ``b`` fills
# it (the rows are used as given).
WIDE_V = """
module widedut (
    input wire clk,
    input wire [39:0] a,
    input wire [63:0] b,
    output wire [63:0] y
);
    reg [63:0] r;
    always @(posedge clk) r <= r + {24'd0, a} + b;
    assign y = r;
endmodule
"""

LANES = [1, 63, 64, 65, 130]
BUNDLED = ["counter", "spinal", "crypto", "nvdla", "riscv_mini"]

_BUNDLE_MODELS = {}
_SOURCE_MODELS = {}


def _bundle_model(name):
    if name not in _BUNDLE_MODELS:
        bundle = get_design(name)
        flow = RTLFlow.from_source(bundle.source, bundle.top)
        _BUNDLE_MODELS[name] = (flow.compile(), bundle)
    return _BUNDLE_MODELS[name]


def _source_model(src, top):
    key = (src, top)
    if key not in _SOURCE_MODELS:
        _SOURCE_MODELS[key] = RTLFlow.from_source(src, top).compile()
    return _SOURCE_MODELS[key]


def _sim(model, n, bundle=None):
    sim = BatchSimulator(model, n)
    if bundle is not None:
        bundle.preload(sim)
    return sim


@pytest.fixture
def chunks(monkeypatch):
    """Every ``(c0, c1)`` the chunked path ran, in order."""
    seen = []
    inner = BatchSimulator._run_chunk

    def spy(self, plan, c0, c1, apply_rows):
        seen.append((c0, c1))
        return inner(self, plan, c0, c1, apply_rows)

    monkeypatch.setattr(BatchSimulator, "_run_chunk", spy)
    return seen


def _reference(sim, stim, cycles, start=0):
    for c in range(start, cycles):
        sim.cycle(stim.inputs_at(c))


def assert_same_state(sim, ref):
    for k, (a, b) in enumerate(zip(sim.arrays.pools, ref.arrays.pools)):
        np.testing.assert_array_equal(a, b, err_msg=f"pool {k}")
    assert sim.cycles_run == ref.cycles_run
    assert sim._prev_clock == ref._prev_clock
    s, r = sim.device.stats, ref.device.stats
    assert (s.graph_launches, s.kernel_launches, s.event_ops, s.sync_calls) \
        == (r.graph_launches, r.kernel_launches, r.event_ops, r.sync_calls)
    assert s.overhead_seconds == pytest.approx(r.overhead_seconds, rel=1e-9)
    assert sim.stopwatch.counts == ref.stopwatch.counts


# ---------------------------------------------------------------------------
# The design matrix


@pytest.mark.parametrize("n", LANES)
@pytest.mark.parametrize("design", BUNDLED)
def test_bundled_designs_match_per_cycle_loop(design, n, chunks):
    model, bundle = _bundle_model(design)
    cycles = 12
    stim = bundle.make_stimulus(n, cycles, seed=5)
    sim, ref = _sim(model, n, bundle), _sim(model, n, bundle)
    outs = sim.run(stim, watch=bundle.watch)
    _reference(ref, stim, cycles)
    assert chunks == [(0, cycles)]
    for name in bundle.watch:
        np.testing.assert_array_equal(outs[name], ref.get(name), err_msg=name)
    assert_same_state(sim, ref)
    assert sim.device.stats.graph_launches == 2 * cycles


@pytest.mark.parametrize("n", LANES)
@pytest.mark.parametrize("src,top", [
    pytest.param(MEMDUT_V, "memdut", id="memdut"),
    pytest.param(NEGEDGE_V, "negdut", id="negedge"),
    pytest.param(NEGONLY_V, "negonly", id="negedge-only"),
])
def test_small_designs_match_per_cycle_loop(src, top, n, chunks):
    model = _source_model(src, top)
    cycles = 9
    stim = random_batch(model.design, n, cycles, seed=11)
    sim, ref = _sim(model, n), _sim(model, n)
    sim.run(stim)
    _reference(ref, stim, cycles)
    assert chunks == [(0, cycles)]
    assert_same_state(sim, ref)


@pytest.mark.parametrize("cycles", [1, 2])
def test_first_falling_edge_is_not_a_negedge(cycles, chunks):
    model = _source_model(NEGONLY_V, "negonly")
    n = 5
    stim = random_batch(model.design, n, cycles, seed=2)
    sim, ref = _sim(model, n), _sim(model, n)
    sim.run(stim)
    _reference(ref, stim, cycles)
    assert_same_state(sim, ref)
    # r starts at 0 and first latches on the second cycle's falling edge.
    if cycles == 1:
        assert not sim.get("q").any()
    else:
        np.testing.assert_array_equal(sim.get("q"), stim.data["d"][1] & 15)


def test_chunk_starting_after_a_rising_edge_takes_the_negedge(chunks):
    # The second run() begins with the clock high: its first falling
    # edge is a negedge, unlike a fresh simulator's.
    model = _source_model(NEGEDGE_V, "negdut")
    n = 7
    stim = random_batch(model.design, n, 10, seed=3)
    sim, ref = _sim(model, n), _sim(model, n)
    sim.run(stim, cycles=4)
    sim.run(stim, start_cycle=4)
    _reference(ref, stim, 10)
    assert chunks == [(0, 4), (4, 10)]
    assert_same_state(sim, ref)


def test_native_columns_are_masked_like_set_input(chunks):
    # Stimulus values wider than the input: the chunked path must store
    # what DeviceArrays.write would (low bits only).
    model = _source_model(MEMDUT_V, "memdut")
    n, cycles = 9, 6
    stim = random_batch(model.design, n, cycles, seed=4)
    rng = np.random.default_rng(0)
    for name in ("waddr", "raddr", "wdata"):
        stim.data[name] = rng.integers(0, 1 << 63, (cycles, n), dtype=np.uint64)
    sim, ref = _sim(model, n), _sim(model, n)
    sim.run(stim)
    _reference(ref, stim, cycles)
    assert chunks == [(0, cycles)]
    assert_same_state(sim, ref)


def test_constant_inputs_without_stimulus(chunks):
    model = _source_model(NEGEDGE_V, "negdut")
    n = 3
    sim, ref = _sim(model, n), _sim(model, n)
    for s in (sim, ref):
        s.set_inputs({"d": 9, "we": 1})
    sim.run(None, cycles=5)
    for _ in range(5):
        ref.cycle()
    assert chunks == [(0, 5)]
    assert_same_state(sim, ref)
    assert "set_inputs" not in sim.stopwatch.counts


def test_metrics_without_tracing_count_every_cycle(chunks):
    # Metrics on, tracing off: the chunk end adds the per-cycle counters.
    model = _source_model(NEGEDGE_V, "negdut")
    n, cycles = 70, 8
    stim = random_batch(model.design, n, cycles, seed=5)
    sim = BatchSimulator(model, n, metrics=MetricsRegistry())
    ref = BatchSimulator(model, n, metrics=MetricsRegistry())
    sim.run(stim, stop="t", stop_mode="all", stop_check_every=3)
    _reference(ref, stim, sim.cycles_run)
    assert chunks
    assert sim.metrics.snapshot()["counters"] == ref.metrics.snapshot()["counters"]
    assert_same_state(sim, ref)


def test_cycles_beyond_the_stimulus_hold_the_last_inputs(chunks):
    model = _source_model(COUNTER_V, "counter")
    n = 4
    stim = random_batch(model.design, n, 5, seed=8)
    sim, ref = _sim(model, n), _sim(model, n)
    sim.run(stim, cycles=9)
    _reference(ref, stim, 5)
    for _ in range(4):
        ref.cycle()
    assert chunks == [(0, 5), (5, 9)]
    assert_same_state(sim, ref)


# ---------------------------------------------------------------------------
# Where run() calls back into Python


@pytest.mark.parametrize("every", [1, 4, 7])
def test_checkpoint_files_are_byte_identical(every, tmp_path, chunks):
    model, bundle = _bundle_model("counter")
    n, cycles = 65, 23
    stim = bundle.make_stimulus(n, cycles, seed=1)
    policy = CheckpointPolicy(every_cycles=every)
    sim, ref = _sim(model, n), _sim(model, n)
    run_dir, ref_dir = tmp_path / "run", tmp_path / "ref"
    sim.run(stim, checkpoint=CheckpointManager(str(run_dir), policy, keep=99))
    mgr = CheckpointManager(str(ref_dir), policy, keep=99)
    mgr.begin(ref.cycles_run)
    for c in range(cycles):
        ref.cycle(stim.inputs_at(c))
        mgr.maybe_save(ref)
    names = sorted(os.listdir(ref_dir))
    assert len(names) == cycles // every
    assert sorted(os.listdir(run_dir)) == names
    for name in names:
        assert (run_dir / name).read_bytes() == (ref_dir / name).read_bytes()
    assert all(c1 - c0 <= every for c0, c1 in chunks)
    assert_same_state(sim, ref)


def test_time_based_checkpoint_policy_checks_every_cycle(tmp_path, chunks):
    model = _source_model(COUNTER_V, "counter")
    stim = random_batch(model.design, 4, 6, seed=1)
    mgr = CheckpointManager(str(tmp_path), CheckpointPolicy(every_seconds=3600))
    _sim(model, 4).run(stim, checkpoint=mgr)
    assert chunks == [(c, c + 1) for c in range(6)]


def test_resumed_checkpoint_continues_the_uninterrupted_run(chunks):
    model, bundle = _bundle_model("riscv_mini")
    n, cycles = 63, 16
    stim = bundle.make_stimulus(n, cycles, seed=2)
    first = _sim(model, n, bundle)
    first.run(stim, cycles=7)
    blob = pickle.dumps(first.save_checkpoint())
    sim = _sim(model, n)
    sim.restore_checkpoint(pickle.loads(blob))
    sim.run(stim, start_cycle=sim.cycles_run)
    ref = _sim(model, n, bundle)
    _reference(ref, stim, cycles)
    assert chunks == [(0, 7), (7, cycles)]
    for k, (a, b) in enumerate(zip(sim.arrays.pools, ref.arrays.pools)):
        np.testing.assert_array_equal(a, b, err_msg=f"pool {k}")
    assert sim.cycles_run == ref.cycles_run
    assert sim._prev_clock == ref._prev_clock


@pytest.mark.parametrize("mode", ["all", "any"])
@pytest.mark.parametrize("check_every", [1, 5])
def test_stop_exits_at_the_same_cycle(mode, check_every, chunks):
    model = _source_model(STOPDUT_V, "stopdut")
    n, cycles = 64, 400
    stim = random_batch(model.design, n, cycles, seed=6)
    sim, ref = _sim(model, n), _sim(model, n)
    sim.run(stim, stop="done", stop_mode=mode, stop_check_every=check_every)
    for c in range(cycles):
        ref.cycle(stim.inputs_at(c))
        if c % check_every == check_every - 1:
            flags = ref.get("done")
            if flags.all() if mode == "all" else flags.any():
                break
    assert 0 < ref.cycles_run < cycles
    assert_same_state(sim, ref)
    assert chunks[-1][1] == ref.cycles_run


@pytest.mark.parametrize("every", [1, 3, 8])
def test_trace_every_samples_match(every, chunks):
    model, bundle = _bundle_model("spinal")
    n, cycles = 65, 17
    stim = bundle.make_stimulus(n, cycles, seed=3)
    sim, ref = _sim(model, n, bundle), _sim(model, n, bundle)
    traces = sim.run(stim, watch=bundle.watch, trace_every=every)
    expected = {name: [] for name in bundle.watch}
    for c in range(cycles):
        ref.cycle(stim.inputs_at(c))
        if c % every == every - 1:
            for name in bundle.watch:
                expected[name].append(ref.get(name).copy())
    for name in bundle.watch:
        np.testing.assert_array_equal(
            traces[name], np.stack(expected[name]), err_msg=name
        )
    assert_same_state(sim, ref)


def test_progress_sees_every_cycle_in_order(chunks):
    model, bundle = _bundle_model("counter")
    n, cycles = 130, 11
    stim = bundle.make_stimulus(n, cycles, seed=4)
    sim, ref = _sim(model, n), _sim(model, n)
    seen, counts = [], []

    def progress(c):
        seen.append(c)
        counts.append(int(sim.get("count").sum()))

    sim.run(stim, start_cycle=2, progress=progress)
    expected = []
    for c in range(2, cycles):
        ref.cycle(stim.inputs_at(c))
        expected.append(int(ref.get("count").sum()))
    assert seen == list(range(2, cycles))
    assert counts == expected
    assert_same_state(sim, ref)


def test_rate_limited_progress_fires_first_and_last(chunks):
    model = _source_model(COUNTER_V, "counter")
    stim = random_batch(model.design, 4, 9, seed=1)
    seen = []
    _sim(model, 4).run(stim, progress=seen.append, progress_min_interval=3600.0)
    assert seen == [0, 8]


def test_stop_check_every_must_be_positive():
    model = _source_model(STOPDUT_V, "stopdut")
    stim = random_batch(model.design, 4, 5, seed=1)
    with pytest.raises(SimulationError, match="stop_check_every"):
        _sim(model, 4).run(stim, stop="done", stop_check_every=0)


def test_per_cycle_cases_do_not_chunk(chunks):
    model = _source_model(COUNTER_V, "counter")
    stim = random_batch(model.design, 4, 5, seed=1)
    BatchSimulator(model, 4, fault_isolation=True).run(stim)
    BatchSimulator(model, 4, executor="graph").run(stim)
    assert chunks == []


@pytest.mark.parametrize("isolation", ["plain", "isolated", "quarantined"])
@pytest.mark.parametrize("executor", [
    "graph", "stream", "graph-fused-traced",
])
@pytest.mark.parametrize("src,top", [
    pytest.param(COUNTER_V, "counter", id="counter"),
    pytest.param(MEMDUT_V, "memdut", id="memdut"),
    pytest.param(WIDE_V, "widedut", id="wide"),
])
def test_per_cycle_engines_copy_rows_without_set_input(src, top, executor,
                                                       isolation, monkeypatch):
    # The per-cycle path copies the stimulus rows into their views too,
    # storing what set_input would: on the per-task engines, under
    # tracing and with a lane quarantined at cycle 3, whose inputs stay
    # frozen.  A resumed run indexes its rows from start_cycle.
    model = _source_model(src, top)
    n, cycles, lane = 65, 9, 5
    kind = executor.removesuffix("-traced")

    def make(isolated):
        tracer = Tracer(enabled=True) if kind != executor else None
        return BatchSimulator(model, n, executor=kind, tracer=tracer,
                              fault_isolation=isolated)

    stim = random_batch(model.design, n, cycles, seed=7)
    for v in stim.data.values():
        # Cycles 6-8 repeat cycle 5's inputs; the lane quarantined at
        # cycle 3 is then driven to the complement of its frozen inputs,
        # which must not get in.
        v[6:] = v[5]
        if isolation == "quarantined":
            v[3:, lane] = v[2, lane] ^ 1
    given = {k: v.copy() for k, v in stim.data.items()}
    ref = make(isolation != "plain")
    for c in range(cycles):
        if isolation == "quarantined" and c == 3:
            ref._quarantine_lanes([lane], reason=REASON_INJECTED,
                                  detail="injected by fault plan")
        ref.cycle(stim.inputs_at(c))
    plan = FaultPlan(lane_faults=[LaneFaultSpec(cycle=3, lane=lane)]) \
        if isolation == "quarantined" else None
    writes = []
    inner = BatchSimulator.set_input
    monkeypatch.setattr(
        BatchSimulator, "set_input",
        lambda self, name, values: (writes.append(name),
                                    inner(self, name, values)),
    )
    sim = make(isolation == "isolated")
    sim.run(stim, cycles=4, fault_plan=plan)
    sim.run(stim, start_cycle=4, fault_plan=plan)
    assert writes == []
    assert_same_state(sim, ref)
    if plan is not None:
        assert sim.quarantine.faulted_lanes() == [lane]
    for k, v in given.items():
        np.testing.assert_array_equal(stim.data[k], v, err_msg=k)


@pytest.mark.parametrize("design", ["riscv_mini", "spinal"])
def test_coverage_run_matches_the_hand_loop(design, chunks):
    # CoverageCollector.run samples from run()'s progress hook, so every
    # cycle is a chunk; its report equals sampling after each cycle().
    model, bundle = _bundle_model(design)
    n, cycles = 65, 24
    stim = bundle.make_stimulus(n, cycles, seed=8)
    sim, ref = _sim(model, n, bundle), _sim(model, n, bundle)
    report = CoverageCollector(sim).run(stim, cycles=cycles + 3)
    hand = CoverageCollector(ref)
    for c in range(cycles + 3):
        ref.cycle(stim.inputs_at(c) if c < cycles else None)
        hand.sample()
    assert chunks == [(c, c + 1) for c in range(cycles + 3)]
    assert report == hand.report()
    assert report.covered_points > 0
    assert_same_state(sim, ref)


def test_wide_native_columns_chunk_without_touching_the_stimulus(chunks):
    model = _source_model(WIDE_V, "widedut")
    n, cycles = 64, 7
    stim = random_batch(model.design, n, cycles, seed=9)
    rng = np.random.default_rng(1)
    stim.data["a"] = rng.integers(0, 1 << 63, (cycles, n), dtype=np.uint64)
    given = stim.data["a"].copy()
    sim, ref = _sim(model, n), _sim(model, n)
    sim.run(stim)
    _reference(ref, stim, cycles)
    assert chunks == [(0, cycles)]
    assert_same_state(sim, ref)
    np.testing.assert_array_equal(stim.data["a"], given)


# ---------------------------------------------------------------------------
# A program that raises partway through a chunk


def _fail_on_call(monkeypatch, prog, k):
    """Make ``prog.fn`` raise on its ``calls["k"]``-th call (1-based,
    ``k`` at first; 0 never raises); returns the call counter, whose
    ``"n"`` is to be reset before each drive."""
    inner = prog.fn
    calls = {"n": 0, "k": k}

    def flaky(*args):
        calls["n"] += 1
        if calls["n"] == calls["k"]:
            raise RuntimeError("boom")
        return inner(*args)

    monkeypatch.setattr(prog, "fn", flaky)
    return calls


# Every failure lands in cycle 6 (0-based), at each point of its two
# launches: ``call`` numbers the failing call of the per-cycle loop,
# ``run_call`` that of the chunked drive.  Per cycle the loop runs the
# comb program twice and the posedge seq program once; the negedge seq
# program runs from cycle 1 on.  Without a negedge step the chunk runs
# the clock-high settle only on its last cycle, so counter's cycle 6
# starts at comb call 7, and its second settle is run only when cycle 6
# ends the stimulus (``cycles`` = 7).
FAILURES = [
    pytest.param(COUNTER_V, "counter", "comb", 13, 7, 20,
                 id="counter-first-comb"),
    pytest.param(COUNTER_V, "counter", "comb", 14, 8, 7,
                 id="counter-second-comb"),
    pytest.param(COUNTER_V, "counter", "posedge", 7, 7, 20, id="counter-seq"),
    pytest.param(NEGEDGE_V, "negdut", "negedge", 6, 6, 20,
                 id="negedge-neg-seq"),
    pytest.param(NEGEDGE_V, "negdut", "comb", 13, 13, 20,
                 id="negedge-first-comb"),
    pytest.param(NEGEDGE_V, "negdut", "posedge", 7, 7, 20,
                 id="negedge-pos-seq"),
    pytest.param(NEGEDGE_V, "negdut", "comb", 14, 14, 20,
                 id="negedge-second-comb"),
]


@pytest.mark.parametrize("src,top,program,call,run_call,cycles", FAILURES)
def test_failure_mid_chunk_accounts_completed_cycles(src, top, program, call,
                                                     run_call, cycles,
                                                     monkeypatch, chunks):
    model = RTLFlow.from_source(src, top).compile()
    fused = model.fused()
    prog = fused.comb if program == "comb" else fused.seq[("clk", program)]
    calls = _fail_on_call(monkeypatch, prog, call)
    n, j = 8, 6
    stim = random_batch(model.design, n, cycles, seed=2)
    results = []
    for drive in ("run", "loop"):
        calls["n"] = 0
        calls["k"] = run_call if drive == "run" else call
        sim = BatchSimulator(model, n, metrics=MetricsRegistry())
        with pytest.raises(RuntimeError, match="boom"):
            if drive == "run":
                sim.run(stim)
            else:
                _reference(sim, stim, cycles)
        results.append(sim)
    sim, ref = results
    assert chunks == [(0, cycles)]
    assert sim.cycles_run == ref.cycles_run == j
    # The failing cycle's first launch counts once it completed.
    first_done = program == "posedge" or (program == "comb" and call % 2 == 0)
    assert ref.device.stats.graph_launches == 2 * j + first_done
    assert_same_state(sim, ref)
    assert sim.metrics.snapshot()["counters"] == ref.metrics.snapshot()["counters"]


# ---------------------------------------------------------------------------
# How often the comb program settles

# Comb nodes read the clock, and a memory is written at posedge: the
# clock-high values the chunk skips are read by nobody before the next
# clock-low settle rewrites them.
CLKREAD_V = """
module clkread (
    input wire clk,
    input wire [7:0] a,
    input wire [7:0] b,
    input wire we,
    output wire [7:0] g,
    output wire h,
    output wire [7:0] q,
    output wire [7:0] rd
);
    reg [7:0] r;
    reg [7:0] mem [0:3];
    assign g = clk ? a : b;
    assign h = clk & a[0];
    always @(posedge clk) begin
        r <= r + g + {7'd0, h};
        if (we) mem[a[1:0]] <= g ^ r;
    end
    assign q = r;
    assign rd = mem[b[1:0]];
endmodule
"""


def _count_comb(monkeypatch, model):
    return _fail_on_call(monkeypatch, model.fused().comb, 0)


@pytest.mark.parametrize("src,top,stop", [
    pytest.param(COUNTER_V, "counter", "en", id="counter"),
    pytest.param(CLKREAD_V, "clkread", "h", id="clock-read"),
])
@pytest.mark.parametrize("options,n_chunks", [
    pytest.param({}, 1, id="plain"),
    pytest.param({"trace_every": 5}, 4, id="traced"),
    pytest.param({"stop_check_every": 4}, 5, id="stop-polled"),
    pytest.param({"stop_check_every": 6}, 4, id="stop-polled-6"),
])
def test_one_settle_per_cycle_and_one_per_chunk_end(src, top, stop, options,
                                                     n_chunks, monkeypatch,
                                                     chunks):
    model = _source_model(src, top)
    n, cycles = 64, 20
    stim = random_batch(model.design, n, cycles, seed=12)
    every = options.get("trace_every", 0)
    kwargs = dict(options, stop=stop) if "stop_check_every" in options \
        else options
    watch = [s.name for s in model.design.outputs]
    calls = _count_comb(monkeypatch, model)
    sim, ref = _sim(model, n), _sim(model, n)
    outs = sim.run(stim, watch=watch, **kwargs)
    assert len(chunks) == n_chunks
    assert calls["n"] == cycles + n_chunks
    calls["n"] = 0
    expected = {name: [] for name in watch}
    for c in range(cycles):
        ref.cycle(stim.inputs_at(c))
        if every and c % every == every - 1:
            for name in watch:
                expected[name].append(ref.get(name).copy())
    assert calls["n"] == 2 * cycles
    assert_same_state(sim, ref)
    for name in watch:
        want = np.stack(expected[name]) if every else ref.get(name)
        np.testing.assert_array_equal(outs[name], want, err_msg=name)


def test_negedge_step_keeps_both_settles(monkeypatch, chunks):
    model = _source_model(NEGEDGE_V, "negdut")
    n, cycles = 8, 12
    stim = random_batch(model.design, n, cycles, seed=6)
    calls = _count_comb(monkeypatch, model)
    sim, ref = _sim(model, n), _sim(model, n)
    sim.run(stim)
    assert chunks == [(0, cycles)]
    assert calls["n"] == 2 * cycles
    _reference(ref, stim, cycles)
    assert_same_state(sim, ref)



# ---------------------------------------------------------------------------
# Commit metrics: the chunked loop against the per-cycle graph engine


def _commit_counters(metrics):
    return {k: v for k, v in metrics.snapshot()["counters"].items()
            if k == "sim.cycles" or k.endswith(".commit_bytes")}


def _fail_graph_on_call(sim, program, k):
    """Make the ``graph`` engine of ``sim`` raise on the ``k``-th call
    of its comb phase or of one edge's seq phase, numbered as the
    ``call`` of ``FAILURES``."""
    ex = sim.executor
    calls = {"n": 0}

    def counted(inner, *args):
        calls["n"] += 1
        if calls["n"] == k:
            raise RuntimeError("boom")
        return inner(*args)

    if program == "comb":
        comb = ex.run_comb
        ex.run_comb = lambda arrays: counted(comb, arrays)
    else:
        seq = ex.run_seq
        ex.run_seq = lambda arrays, clock, edge: (
            counted(seq, arrays, clock, edge) if edge == program
            else seq(arrays, clock, edge))


STOP_SIGNALS = {"counter": "wrap", "riscv_mini": "halted", "negdut": "t"}

COMMIT_DRIVES = [
    pytest.param(src, top, drive, None, id=f"{top}-{drive}")
    for src, top in [(None, "counter"), (None, "riscv_mini"),
                     (NEGEDGE_V, "negdut")]
    for drive in ("plain", "traced", "stop")
] + [
    pytest.param(*p.values[:2], "fail", p.values[2:], id=f"fail-{p.id}")
    for p in FAILURES
]


@pytest.mark.parametrize("src,top,drive,failure", COMMIT_DRIVES)
def test_commit_metrics_match_per_cycle_graph_engine(src, top, drive, failure,
                                                     monkeypatch, chunks):
    # Metrics on and tracing off, so the product engine's run() chunks:
    # every commit_bytes counter and sim.cycles equal a per-cycle graph
    # run's, also when a program raises partway through a chunk.
    if src is None:
        model, bundle = _bundle_model(top)
    else:
        model, bundle = _source_model(src, top), None
    n, cycles = 70, 20
    if failure is not None:
        program, call, run_call, cycles = failure
        fused = model.fused()
        _fail_on_call(monkeypatch, fused.comb if program == "comb"
                      else fused.seq[("clk", program)], run_call)
    stim = (bundle.make_stimulus(n, cycles, seed=4) if bundle is not None
            else random_batch(model.design, n, cycles, seed=2))
    options = {
        "traced": {"trace_every": 3},
        "stop": {"stop": STOP_SIGNALS[top], "stop_mode": "any",
                 "stop_check_every": 4},
    }.get(drive, {})
    counters = []
    for kind in ("graph-fused", "graph"):
        with obs.capture(trace=False) as (_, metrics):
            sim = BatchSimulator(model, n, executor=kind)
            if bundle is not None:
                bundle.preload(sim)
            if failure is None:
                sim.run(stim, **options)
            elif kind == "graph-fused":
                with pytest.raises(RuntimeError, match="boom"):
                    sim.run(stim)
            else:
                _fail_graph_on_call(sim, program, call)
                with pytest.raises(RuntimeError, match="boom"):
                    _reference(sim, stim, cycles)
        counters.append(_commit_counters(metrics))
    assert chunks
    assert any(k.endswith(".commit_bytes") for k in counters[1])
    assert counters[0] == counters[1]
