"""Tests for repro.verify: IR checks, known-bits soundness, hazards,
the mutation self-test, the runtime sanitizer and CLI/report plumbing."""

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


# -- hazards + runtime sanitizer ----------------------------------------------


def test_check_hazards_clean_on_demo():
    from repro.verify.hazards import check_hazards

    assert check_hazards(_demo_model().taskgraph) == []


def test_sanitizer_matches_fused_bit_for_bit():
    model = _demo_model()
    n, cycles = 17, 30
    outs = {}
    for kind in ("graph-fused", "sanitize"):
        sim = BatchSimulator(model, n, executor=kind)
        outs[kind] = sim.run(_demo_stim(n, cycles, seed=3), cycles,
                             watch=["dout", "flag"])
    for name in outs["graph-fused"]:
        assert np.array_equal(outs["graph-fused"][name],
                              outs["sanitize"][name]), name


def test_sanitizer_catches_undeclared_write():
    model = _demo_model()
    acc = model.task_accesses()
    victim = next(t for _, t in sorted(acc.items())
                  if any(len(o) for _, o in t.write_offsets))
    pool = next(p for p, o in victim.write_offsets if len(o))
    victim.write_offsets[:] = [
        (p, o[:0] if p == pool else o) for p, o in victim.write_offsets
    ]
    sim = BatchSimulator(model, 9, executor="sanitize")
    with pytest.raises(SanitizerError, match="outside its declared"):
        sim.run(_demo_stim(9, 20), 20, watch=["dout"])


def test_sanitizer_catches_undeclared_p1_write():
    # The per-task programs run on the product layout: a task that stores
    # a lane-packed 1-bit signal it did not declare is flagged, and the
    # message names the signal owning that P1 word block.
    model = _demo_model()
    victim = next(t for _, t in sorted(model.task_accesses().items())
                  if len(dict(t.write_offsets).get(PACKED_POOL, ())))
    victim.write_offsets[:] = [
        (p, o[:0] if p == PACKED_POOL else o) for p, o in victim.write_offsets
    ]
    sim = BatchSimulator(model, 9, executor="sanitize")
    with pytest.raises(SanitizerError, match="outside its declared") as ei:
        sim.run(_demo_stim(9, 20), 20, watch=["dout"])
    msg = str(ei.value)
    assert f"task {victim.tid} wrote pool {PACKED_POOL} offset" in msg
    assert "(?)" not in msg


def test_sanitizer_survives_checkpoint_restore():
    # Restoring a checkpoint rewinds device epochs; the sanitizer's
    # monotonicity assertion must reset with it instead of firing.
    model = _demo_model()
    n, cycles = 9, 24
    sim = BatchSimulator(model, n, executor="sanitize")
    stim = _demo_stim(n, cycles, seed=5)
    sim.run(stim, cycles // 2, watch=["dout"])
    snap = sim.save_checkpoint()
    sim.restore_checkpoint(snap)
    out = sim.run(stim, cycles, watch=["dout"], start_cycle=cycles // 2)
    assert "dout" in out


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


def test_campaign_spec_verify_roundtrip():
    from repro.cluster import CampaignSpec

    spec = CampaignSpec(n=8, cycles=10, design="counter", verify=True)
    spec.validate()
    assert spec.verify
    # The flag participates in the resume signature.
    other = CampaignSpec(n=8, cycles=10, design="counter", verify=False)
    assert spec.signature() != other.signature()
