"""Tests for repro.verify: IR checks, known-bits soundness, hazards,
the mutation self-test, the runtime write-set checks and CLI/report
plumbing."""

import json

import numpy as np
import pytest

from repro.core.flow import RTLFlow
from repro.core.memory import PACKED_POOL
from repro.core.simulator import BatchSimulator
from repro.designs.library import get_design, list_designs
from repro.lint.diagnostics import Diagnostic, LintReport, Severity, SourceLoc
from repro.stimulus.batch import StimulusBatch
from repro.utils.errors import SanitizerError
from repro.verify import (
    VERIFY_RULE_IDS,
    verify_model,
    verify_source,
)
from repro.verify import knownbits as kb
from repro.verify.mutate import (
    DEMO_SOURCE,
    DEMO_TOP,
    MUTATIONS,
    fresh_model,
    verify_selftest,
)


def _demo_model():
    flow = RTLFlow.from_source(DEMO_SOURCE, DEMO_TOP, lint=False)
    return flow.compile(target_weight=1.0)


def _demo_stim(n, cycles, seed=0):
    rng = np.random.default_rng(seed)
    return StimulusBatch({
        "rst": rng.integers(0, 2, size=(cycles, n)).astype(np.uint64),
        "en": rng.integers(0, 2, size=(cycles, n)).astype(np.uint64),
        "din": rng.integers(0, 256, size=(cycles, n)).astype(np.uint64),
    })


# -- zero false positives -----------------------------------------------------


@pytest.mark.parametrize("name", list_designs())
def test_bundled_designs_verify_clean(name):
    bundle = get_design(name)
    report = verify_source(bundle.source, bundle.top,
                           filename=f"<design:{name}>")
    assert report.clean, report.format_text()


def test_demo_design_verifies_clean():
    report = verify_model(_demo_model())
    assert report.clean, report.format_text()


def test_verify_source_tolerates_broken_input():
    report = verify_source("module broken(input a; endmodule", "broken")
    assert report.errors and report.errors[0].rule_id == "elab"


# -- mutation self-test -------------------------------------------------------


def test_mutation_corpus_is_broad():
    # Acceptance criterion: >= 10 distinct mutation kinds spanning the
    # task graph, the index mapping and the fused codegen.
    assert len(MUTATIONS) >= 10
    assert len({m.name for m in MUTATIONS}) == len(MUTATIONS)
    areas = {m.area for m in MUTATIONS}
    assert {"taskgraph", "index-map", "fused"} <= areas


def test_every_mutation_is_flagged():
    rows = verify_selftest()
    missed = [r["mutation"] for r in rows if not r["flagged"]]
    assert not missed, f"verifier missed mutations: {missed}"
    assert len(rows) == len(MUTATIONS)
    # Every verify rule earns its keep: each fires on some mutation.
    fired = {rid for r in rows for rid in r["rules"]}
    assert set(VERIFY_RULE_IDS) <= fired


def test_mutations_touch_distinct_rules():
    # Spot-check that areas map to the expected checker families.
    model = fresh_model()
    by_name = {m.name: m for m in MUTATIONS}
    by_name["offset-collision"].apply(model)
    report = verify_model(model)
    assert "verify-layout" in report.rule_ids()


# -- known-bits engine --------------------------------------------------------


def test_knownbits_consts_match_concrete_ops():
    w = 3
    full = (1 << w) - 1
    for a in range(1 << w):
        for b in range(1 << w):
            ka, kab = kb.const(a, w), kb.const(b, w)
            assert kb.and_(ka, kab).value == a & b
            assert kb.or_(ka, kab).value == a | b
            assert kb.xor(ka, kab).value == a ^ b
            assert kb.add(ka, kab).value == (a + b) & full
            assert kb.sub(ka, kab).value == (a - b) & full
            assert kb.mul(ka, kab).value == (a * b) & full
            assert kb.eq(ka, kab) is (a == b)
            assert kb.lt(ka, kab) is (a < b)
    for a in range(1 << w):
        ka = kb.const(a, w)
        assert kb.not_(ka).value == a ^ full
        for sh in range(w + 1):
            assert kb.shl(ka, sh).value == (a << sh) & full
            assert kb.shr(ka, sh).value == a >> sh


def test_knownbits_join_and_top_are_sound():
    rng = np.random.default_rng(11)
    w = 8
    for _ in range(200):
        a = int(rng.integers(0, 1 << w))
        b = int(rng.integers(0, 1 << w))
        j = kb.join(kb.const(a, w), kb.const(b, w))
        # The join must describe both operands.
        for v in (a, b):
            assert v & j.ones == j.ones
            assert v & j.zeros == 0
    t = kb.top(w)
    assert t.ones == 0 and t.zeros == 0 and t.max_value == (1 << w) - 1


def test_knownbits_sound_against_simulation():
    """Every concrete simulated value must satisfy the engine's claims:
    known-one bits set, known-zero bits clear, interval bounds hold."""
    model = _demo_model()
    env = kb.analyze_graph(model.graph)
    n, cycles = 29, 40
    sim = BatchSimulator(model, n, executor="graph-fused")
    sim.run(_demo_stim(n, cycles, seed=9))
    checked = 0
    for name, bits in sorted(env.items()):
        try:
            vals = np.asarray(sim.get(name))
        except Exception:
            continue  # internal temps may not be peekable
        for v in map(int, vals):
            assert v & bits.ones == bits.ones, (name, v, bits)
            assert v & bits.zeros == 0, (name, v, bits)
            assert bits.min_value <= v <= bits.max_value, (name, v, bits)
        checked += 1
    assert checked >= 4  # the demo has plenty of peekable signals


def test_knownbits_proves_demo_facts():
    model = _demo_model()
    env = kb.analyze_graph(model.graph)
    # masked = (acc + din) & 0x7f: bit 7 is provably zero.
    masked = env["masked"]
    assert masked.zeros & 0x80
    assert masked.max_value <= 0x7F


# -- audit records ------------------------------------------------------------


def test_fused_audit_records_exist_and_validate():
    from repro.verify import ir_checks

    model = _demo_model()
    fused = model.fused()
    kinds = {r.kind for r in fused.audit}
    # The demo's reset muxes and enable counter exercise these rewrites.
    assert "const0-branch" in kinds
    assert "demand-store" in kinds or "packed-store" in kinds
    assert ir_checks.check_audit(model) == []


# -- hazards + runtime write-set checks ---------------------------------------


def test_check_hazards_clean_on_demo():
    from repro.verify.hazards import check_hazards

    assert check_hazards(_demo_model().taskgraph) == []


def _bundled_model(name):
    bundle = get_design(name)
    return bundle, RTLFlow.from_source(bundle.source, bundle.top).compile()


def _bundled_run(bundle, model, kind, n, cycles, plan=None):
    sim = BatchSimulator(model, n, executor=kind,
                         fault_isolation=plan is not None)
    bundle.preload(sim)
    outs = sim.run(bundle.make_stimulus(n, cycles, 7), watch=bundle.watch,
                   trace_every=1, fault_plan=plan)
    return sim, outs


def test_sanitizer_matches_fused_bit_for_bit():
    from repro import resilience as rz

    cycles = 16
    # Fault isolation: quarantine-masked commits run under the check too.
    plan = rz.FaultPlan(lane_faults=[rz.LaneFaultSpec(4, 3),
                                     rz.LaneFaultSpec(9, 64)])
    for name in list_designs():
        bundle, model = _bundled_model(name)
        for n, faults in ((1, None), (63, None), (65, None), (130, None),
                          (70, plan)):
            fused, want = _bundled_run(bundle, model, "graph-fused", n,
                                       cycles, faults)
            checked, got = _bundled_run(bundle, model, "sanitize", n,
                                        cycles, faults)
            for w in bundle.watch:
                np.testing.assert_array_equal(got[w], want[w],
                                              err_msg=f"{name} {n}: {w}")
        assert checked.quarantine.report() == fused.quarantine.report()
        assert {3, 64} <= set(checked.quarantine.report()["faulted_lanes"])
        assert not model.tasks_built


@pytest.mark.parametrize("name", list_designs())
def test_write_sets_match_task_footprints(name):
    # The runtime check against an independent derivation from the task
    # graph: per program, the checker's write set is the union of its
    # tasks' targets -- COMB nodes their slot, SEQ nodes their shadow
    # slot, MEMW nodes their cond/addr/data scratch.
    from repro.core.simulator import make_executor
    from repro.gpu.device import SimulatedDevice
    from repro.rtlir.graph import NodeKind

    _, model = _bundled_model(name)
    ex = make_executor(model, SimulatedDevice(), "sanitize")
    tg, layout = model.taskgraph, model.layout

    def declared(tids):
        sets = [set() for _ in range(5)]

        def add(slot, lo):
            sets[slot.pool].update(range(lo, lo + slot.limbs))

        for tid in tids:
            for nid in tg.tasks[tid].nodes:
                node = tg.graph.nodes[nid]
                if node.kind is NodeKind.MEMW:
                    sc = layout.scratch[nid]
                    for slot in (sc.cond, sc.addr, sc.data):
                        add(slot, slot.offset)
                    continue
                slot = layout.slot(node.target)
                if node.kind is NodeKind.SEQ and slot.next_offset is not None:
                    add(slot, slot.next_offset)
                else:
                    add(slot, slot.offset)
        return sets

    def checked(step):
        return [set(np.flatnonzero(m).tolist()) for m in ex.write_sets[step]]

    fused = model.fused()
    assert checked(fused.comb.name) == declared(model.comb_schedule())
    for dom, prog in fused.seq.items():
        assert checked(prog.name) == declared(model.seq_schedule(*dom)), dom


def _checked_demo(n=9):
    model = _demo_model()
    return model, BatchSimulator(model, n, executor="sanitize")


def test_sanitizer_catches_undeclared_write():
    # A comb slot dropped from the comb program's write set: its first
    # store is flagged, naming the step, pool, offset and signal.
    model, sim = _checked_demo()
    slot = model.layout.slot("dout")
    sim.executor.write_sets["fused_comb"][slot.pool][slot.offset] = False
    with pytest.raises(SanitizerError, match="outside its write set") as ei:
        sim.run(_demo_stim(9, 20), 20, watch=["dout"])
    assert (f"fused_comb wrote pool {slot.pool} offset {slot.offset} (dout)"
            in str(ei.value))


def test_sanitizer_catches_undeclared_p1_write():
    # The same for a lane-packed 1-bit signal: the message names the
    # signal owning that P1 word block.
    model, sim = _checked_demo()
    slot = model.layout.slot("high")
    assert slot.pool == PACKED_POOL
    sim.executor.write_sets["fused_comb"][PACKED_POOL][slot.offset] = False
    with pytest.raises(SanitizerError, match="outside its write set") as ei:
        sim.run(_demo_stim(9, 20), 20, watch=["dout"])
    msg = str(ei.value)
    assert (f"fused_comb wrote pool {PACKED_POOL} offset {slot.offset} "
            "(high)") in msg
    assert "(?)" not in msg


def test_sanitizer_catches_a_program_writing_outside_its_set(monkeypatch):
    # A comb program that also stores to a register's live slot (only
    # the commit may) is caught at run time.
    model, sim = _checked_demo()
    comb = model.fused().comb
    real, slot = comb.fn, model.layout.slot("acc")

    def stray(P8, P16, P32, P64, P1, N, W, LANE):
        real(P8, P16, P32, P64, P1, N, W, LANE)
        P8[slot.offset * N:(slot.offset + 1) * N] += 1

    assert slot.pool == 0
    monkeypatch.setattr(comb, "fn", stray)
    with pytest.raises(SanitizerError) as ei:
        sim.run(_demo_stim(9, 20), 20, watch=["dout"])
    assert (f"fused_comb wrote pool 0 offset {slot.offset} (acc) outside "
            "its write set") in str(ei.value)


def test_sanitizer_survives_checkpoint_restore():
    # A checkpoint restore between two checked runs resumes exactly
    # like the uninterrupted product run.
    model = _demo_model()
    n, cycles = 9, 24
    sim = BatchSimulator(model, n, executor="sanitize")
    stim = _demo_stim(n, cycles, seed=5)
    sim.run(stim, cycles // 2, watch=["dout"])
    snap = sim.save_checkpoint()
    sim.restore_checkpoint(snap)
    out = sim.run(stim, cycles, watch=["dout"], start_cycle=cycles // 2)
    want = BatchSimulator(model, n).run(stim, cycles, watch=["dout"])
    np.testing.assert_array_equal(out["dout"], want["dout"])


# -- diagnostics determinism --------------------------------------------------


def _scrambled_report():
    report = LintReport(top="t", filename="f.v")
    locs = [("b.v", 9, 2), ("a.v", 1, 1), ("b.v", 2, 7), (None, 0, 0),
            ("a.v", 1, 3)]
    for i, (fn, line, col) in enumerate(locs):
        loc = SourceLoc(fn, line, col) if fn else None
        report.add(Diagnostic(f"rule-{9 - i}", Severity.WARNING,
                              f"m{i}", loc=loc))
    return report


def test_report_rendering_is_sorted_and_stable():
    report = _scrambled_report()
    keys = [LintReport._render_key(d) for d in report.sorted_diagnostics()]
    assert keys == sorted(keys)
    # Unlocated findings sort first (empty filename), insertion order kept.
    assert report.sorted_diagnostics()[0].loc is None
    # .diagnostics itself keeps insertion order for errors[0] consumers.
    assert [d.message for d in report.diagnostics] == [
        f"m{i}" for i in range(5)
    ]


def test_json_output_is_byte_identical_across_insertion_orders():
    base = _scrambled_report()
    reordered = LintReport(top="t", filename="f.v")
    for d in reversed(base.diagnostics):
        reordered.add(d)
    assert base.to_json() == reordered.to_json()
    assert base.format_text().splitlines()[:-1] == \
        reordered.format_text().splitlines()[:-1]


def test_verify_json_deterministic_across_runs():
    bundle = get_design("counter")
    dumps = [
        verify_source(bundle.source, bundle.top).to_json()
        for _ in range(2)
    ]
    assert dumps[0] == dumps[1]
    json.loads(dumps[0])  # well-formed


# -- staged rule gating -------------------------------------------------------


def test_verify_rules_skip_when_stage_artifacts_missing():
    # Plain lint_source builds no taskgraph/model; verify-* rules must be
    # skipped (not crash) when explicitly selected.
    from repro.lint import lint_source

    bundle = get_design("counter")
    report = lint_source(bundle.source, bundle.top,
                         rules=list(VERIFY_RULE_IDS))
    assert report.clean


def test_lint_registry_contains_verify_and_dataflow_rules():
    from repro.lint import RULES

    for rid in VERIFY_RULE_IDS + ("const-cond", "const-compare",
                                  "redundant-mask"):
        assert rid in RULES, rid


def test_dataflow_rules_fire_on_provable_design():
    from repro.lint import lint_source

    src = """
    module dead(input clk, input [3:0] x, output reg [7:0] y);
      wire [7:0] low = {4'b0, x};
      wire t = low < 8'd100;
      wire [7:0] m = low & 8'h0f;
      always @(posedge clk) y <= t ? m : 8'hff;
    endmodule
    """
    report = lint_source(src, "dead",
                         rules=["const-cond", "const-compare",
                                "redundant-mask"])
    assert set(report.rule_ids()) == {"const-cond", "const-compare",
                                      "redundant-mask"}


# -- CLI ----------------------------------------------------------------------


def test_cli_verify_design(capsys):
    from repro.cli import main

    assert main(["verify", "--design", "counter"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_cli_verify_json(capsys):
    from repro.cli import main

    assert main(["verify", "--design", "counter", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["error"] == 0


def test_cli_verify_rejects_unknown_rule(capsys):
    from repro.cli import main

    assert main(["verify", "--design", "counter",
                 "--rules", "no-such-rule"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_run_verify_smoke(capsys):
    from repro.cli import main

    assert main(["run", "counter", "-n", "8", "-c", "20", "--verify"]) == 0
    err = capsys.readouterr().err
    assert "sanitizer enabled" in err


@pytest.mark.parametrize("name", list_designs())
def test_cli_run_verify_runs_the_fused_programs(name, monkeypatch, capsys):
    # `repro run --verify` checks the programs that ship: only the
    # product's fused_* programs launch, and the per-task module is
    # never built.
    from repro.cli import main
    from repro.core import simulator as simmod
    from repro.gpu.device import SimulatedDevice
    from repro.verify.hazards import CheckedFusedExecutor

    sims, launched = [], set()
    launch = SimulatedDevice.launch_graph

    class Spy(simmod.BatchSimulator):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            sims.append(self)

    def spy_launch(self, kernels, args):
        launched.update(k.__name__ for k in kernels)
        return launch(self, kernels, args)

    monkeypatch.setattr(simmod, "BatchSimulator", Spy)
    monkeypatch.setattr(SimulatedDevice, "launch_graph", spy_launch)
    assert main(["run", name, "-n", "8", "-c", "12", "--verify"]) == 0
    (sim,) = sims
    assert type(sim.executor) is CheckedFusedExecutor
    assert not sim.model.tasks_built
    fused = sim.model.fused()
    assert launched == {fused.comb.name} | {p.name for p in fused.seq.values()}


def test_campaign_spec_verify_roundtrip():
    from repro.cluster import CampaignSpec

    spec = CampaignSpec(n=8, cycles=10, design="counter", verify=True)
    spec.validate()
    assert spec.verify
    # The flag participates in the resume signature.
    other = CampaignSpec(n=8, cycles=10, design="counter", verify=False)
    assert spec.signature() != other.signature()
