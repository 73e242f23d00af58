"""repro.lint: one fixture per rule (positive + clean + waiver), the
engine's failure tolerance, the embedded from_source pass, the CLI
surface, and a sweep asserting every bundled design lints clean at
``--fail-on error``.
"""

import json

import pytest

from repro import RTLFlow
from repro.cli import main
from repro.designs import get_design, list_designs
from repro.elaborate.elaborator import elaborate
from repro.elaborate.optimize import optimize_design
from repro.elaborate.symexec import lower
from repro.lint import (
    RULES,
    Diagnostic,
    LintContext,
    LintReport,
    Rule,
    Severity,
    all_rules,
    lint_artifacts,
    lint_source,
    scan_waivers,
)
from repro.rtlir.build import build_graph
from repro.utils.errors import ElaborationError, LintError
from repro.verilog.parser import parse_source


def ids(report):
    return [d.rule_id for d in report.diagnostics]


def only(report, rule_id):
    return [d for d in report.diagnostics if d.rule_id == rule_id]


CLEAN = """
module m(input clk, input rst, input [7:0] a, output reg [7:0] q,
         output wire [7:0] y);
  assign y = a ^ q;
  always @(posedge clk) q <= rst ? 8'd0 : a;
endmodule
"""


class TestRegistry:
    def test_rule_pack_size(self):
        # The bundled pack: structural, width, state, batch-hazard rules.
        assert len(RULES) >= 10

    def test_ids_are_kebab_case(self):
        for r in all_rules():
            assert r.rule_id == r.rule_id.lower()
            assert " " not in r.rule_id
            assert r.summary

    def test_clean_design_is_clean(self):
        report = lint_source(CLEAN, "m")
        assert report.clean, report.format_text()

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="no-such-rule"):
            lint_source(CLEAN, "m", rules=["no-such-rule"])


class TestCombLoop:
    POSITIVE = """
module m(input a, output wire y);
  wire p, q;
  assign p = q & a;
  assign q = p;
  assign y = p;
endmodule
"""

    def test_positive(self):
        report = lint_source(self.POSITIVE, "m", filename="loop.v")
        (d,) = only(report, "comb-loop")
        assert d.severity is Severity.ERROR
        assert "p" in d.message and "q" in d.message
        assert d.loc is not None and d.loc.filename == "loop.v"

    def test_clean(self):
        assert not only(lint_source(CLEAN, "m"), "comb-loop")

    def test_waiver(self):
        src = "// repro lint_off comb-loop\n" + self.POSITIVE
        report = lint_source(src, "m")
        assert not only(report, "comb-loop")
        assert [d.rule_id for d in report.waived] == ["comb-loop"]


class TestMultiDriven:
    POSITIVE = """
module m(input a, input b, output wire y);
  wire w;
  assign w = a;
  assign w = b;
  assign y = w;
endmodule
"""

    def test_positive_continuous(self):
        report = lint_source(self.POSITIVE, "m")
        (d,) = only(report, "multi-driven")
        assert d.severity is Severity.ERROR
        assert "'w'" in d.message and "2 drivers" in d.message

    def test_positive_always_blocks(self):
        src = """
module m(input clk, input a, output reg q);
  always @(posedge clk) q <= a;
  always @(posedge clk) q <= ~a;
endmodule
"""
        report = lint_source(src, "m")
        (d,) = only(report, "multi-driven")
        assert "always block" in d.message

    def test_positive_mixed_assign_and_always(self):
        src = """
module m(input clk, input a, output reg q);
  assign q = a;
  always @(posedge clk) q <= ~a;
endmodule
"""
        (d,) = only(lint_source(src, "m"), "multi-driven")
        assert "continuous assign" in d.message

    def test_clean_two_partial_drivers(self):
        # Disjoint part-selects are one driver each for separate pieces.
        src = """
module m(input a, input b, output wire [1:0] y);
  assign y[0] = a;
  assign y[1] = b;
endmodule
"""
        assert not only(lint_source(src, "m"), "multi-driven")

    def test_waiver(self):
        src = self.POSITIVE.replace(
            "wire w;", "wire w; // repro lint_off multi-driven"
        )
        report = lint_source(src, "m")
        assert not only(report, "multi-driven")
        assert report.waived


class TestInferredLatch:
    POSITIVE = """
module m(input en, input d, output reg q);
  always @* begin
    if (en) q = d;
  end
endmodule
"""

    def test_positive(self):
        (d,) = only(lint_source(self.POSITIVE, "m"), "inferred-latch")
        assert d.severity is Severity.ERROR
        assert "latch" in d.message and "'q'" in d.message

    def test_clean_full_case(self):
        src = """
module m(input en, input d, output reg q);
  always @* begin
    if (en) q = d; else q = 1'b0;
  end
endmodule
"""
        assert lint_source(src, "m").clean

    def test_waiver(self):
        src = "// repro lint_off inferred-latch\n" + self.POSITIVE
        assert not only(lint_source(src, "m"), "inferred-latch")


class TestUndriven:
    POSITIVE = """
module m(input a, output wire y);
  wire ghost;
  assign y = a & ghost;
endmodule
"""

    def test_positive(self):
        (d,) = only(lint_source(self.POSITIVE, "m"), "undriven")
        assert d.severity is Severity.WARNING
        assert "'ghost'" in d.message and "zero" in d.message

    def test_clean(self):
        assert not only(lint_source(CLEAN, "m"), "undriven")

    def test_waiver(self):
        src = self.POSITIVE.replace(
            "wire ghost;", "wire ghost; // repro lint_off undriven"
        )
        assert not only(lint_source(src, "m"), "undriven")


class TestUnused:
    POSITIVE = """
module m(input a, input nc, output wire y);
  wire [3:0] dead;
  assign dead = {4{a}};
  assign y = a;
endmodule
"""

    def test_positive_reports_wire_and_input(self):
        report = lint_source(self.POSITIVE, "m")
        subjects = {d.subject for d in only(report, "unused")}
        assert subjects == {"dead", "nc"}

    def test_dce_crosscheck_in_message(self):
        # The optimizer eliminates `dead`; the diagnostic says so.
        report = lint_source(self.POSITIVE, "m")
        (d,) = [d for d in only(report, "unused") if d.subject == "dead"]
        assert "optimizer" in d.message

    def test_clean(self):
        assert not only(lint_source(CLEAN, "m"), "unused")

    def test_loop_variable_not_flagged(self):
        src = """
module m(input [3:0] a, output reg [3:0] y);
  integer i;
  always @* begin
    y = 4'd0;
    for (i = 0; i < 4; i = i + 1) y = y ^ (a >> i);
  end
endmodule
"""
        report = lint_source(src, "m")
        assert not only(report, "unused"), report.format_text()

    def test_waiver(self):
        src = "// repro lint_off unused\n" + self.POSITIVE
        report = lint_source(src, "m")
        assert not only(report, "unused")
        assert len(report.waived) == 2


class TestWidthTrunc:
    POSITIVE = """
module m(input [7:0] a, input [7:0] b, output wire [3:0] y);
  assign y = a + b;
endmodule
"""

    def test_positive(self):
        (d,) = only(lint_source(self.POSITIVE, "m"), "width-trunc")
        assert d.severity is Severity.WARNING
        assert "width 8" in d.message and "4 bits" in d.message

    def test_clean_explicit_slice(self):
        src = self.POSITIVE.replace("a + b", "a[3:0] + b[3:0]")
        assert lint_source(src, "m").clean

    def test_clean_unsized_literal_that_fits(self):
        src = """
module m(input clk, input [3:0] a, output reg [3:0] q);
  always @(posedge clk) q <= a + 1;
endmodule
"""
        assert not only(lint_source(src, "m"), "width-trunc")

    def test_waiver(self):
        src = "// repro lint_off width-trunc\n" + self.POSITIVE
        assert not only(lint_source(src, "m"), "width-trunc")


class TestWidthExt:
    def test_positive_plain_copy(self):
        src = """
module m(input [3:0] a, output wire [7:0] y);
  assign y = a;
endmodule
"""
        (d,) = only(lint_source(src, "m"), "width-ext")
        assert d.severity is Severity.INFO

    def test_clean_arithmetic_not_flagged(self):
        src = """
module m(input [3:0] a, output wire [7:0] y);
  assign y = a + a;
endmodule
"""
        assert not only(lint_source(src, "m"), "width-ext")


class TestNoReset:
    POSITIVE = """
module m(input clk, input d, output reg q);
  always @(posedge clk) q <= d;
endmodule
"""

    def test_positive(self):
        (d,) = only(lint_source(self.POSITIVE, "m"), "no-reset")
        assert d.severity is Severity.WARNING and d.subject == "q"

    def test_clean_sync_reset(self):
        src = """
module m(input clk, input rst, input d, output reg q);
  always @(posedge clk) if (rst) q <= 1'b0; else q <= d;
endmodule
"""
        assert not only(lint_source(src, "m"), "no-reset")

    def test_clean_async_reset(self):
        src = """
module m(input clk, input rst, input d, output reg q);
  always @(posedge clk or posedge rst)
    if (rst) q <= 1'b0; else q <= d;
endmodule
"""
        assert not only(lint_source(src, "m"), "no-reset")

    def test_waiver(self):
        src = "// repro lint_off no-reset\n" + self.POSITIVE
        assert not only(lint_source(src, "m"), "no-reset")


class TestDerivedClock:
    POSITIVE = """
module m(input clk, input rst, input d, output reg q);
  reg slow;
  always @(posedge clk) slow <= rst ? 1'b0 : ~slow;
  always @(posedge slow) q <= d;
endmodule
"""

    def test_positive(self):
        (d,) = only(lint_source(self.POSITIVE, "m"), "derived-clock")
        assert d.severity is Severity.WARNING
        assert "'slow'" in d.message and "batch" in d.message

    def test_clean_input_clock(self):
        assert not only(lint_source(CLEAN, "m"), "derived-clock")

    def test_waiver(self):
        src = "// repro lint_off derived-clock\n" + self.POSITIVE
        assert not only(lint_source(src, "m"), "derived-clock")


class TestMemBounds:
    POSITIVE = """
module m(input clk, input we, input [7:0] addr, input [7:0] din,
         output reg [7:0] q);
  reg [7:0] mem [0:9];
  always @(posedge clk) begin
    if (we) mem[addr] <= din;
    q <= mem[addr];
  end
endmodule
"""

    def test_positive_read_and_write(self):
        report = lint_source(self.POSITIVE, "m")
        msgs = [d.message for d in only(report, "mem-bounds")]
        assert len(msgs) == 2
        assert any("drop the write" in m for m in msgs)
        assert any("clamp" in m for m in msgs)

    def test_clean_exact_address(self):
        src = self.POSITIVE.replace("[0:9]", "[0:255]")
        assert not only(lint_source(src, "m"), "mem-bounds")

    def test_clean_minimal_encoding(self):
        # 4 bits is the narrowest address that reaches depth 10.
        src = self.POSITIVE.replace("mem[addr]", "mem[addr[3:0]]")
        assert not only(lint_source(src, "m"), "mem-bounds")

    def test_waiver(self):
        src = "// repro lint_off mem-bounds\n" + self.POSITIVE
        assert not only(lint_source(src, "m"), "mem-bounds")


class TestEngineTolerance:
    def test_syntax_error_becomes_diagnostic(self):
        report = lint_source("module m(\nassign = 1;\n", "m", filename="bad.v")
        (d,) = report.diagnostics
        assert d.rule_id == "syntax" and d.severity is Severity.ERROR
        assert d.loc is not None and d.loc.filename == "bad.v"

    def test_elab_error_becomes_diagnostic(self):
        report = lint_source("module m; ghost g0 (); endmodule", "m")
        assert ids(report) == ["elab"]
        assert "ghost" in report.diagnostics[0].message

    def test_flat_rules_still_run_when_lowering_fails(self):
        # Duplicate drivers make lower() raise; lint still reports the
        # multi-driven rule (with a location) instead of the raw error.
        src = """
module m(input a, output wire y);
  wire w;
  assign w = a;
  assign w = ~a;
  assign y = w;
endmodule
"""
        report = lint_source(src, "m")
        assert "multi-driven" in ids(report)
        assert "elab" not in ids(report)

    def test_rules_filter(self):
        report = lint_source(TestMemBounds.POSITIVE, "m", rules=["mem-bounds"])
        assert set(ids(report)) == {"mem-bounds"}
        # The same design without the filter also reports no-reset etc.
        assert set(ids(lint_source(TestMemBounds.POSITIVE, "m"))) > {"mem-bounds"}


class TestWaiverScanner:
    def test_off_then_on_bounds_region(self):
        ws = scan_waivers("a\n// repro lint_off unused\nb\n// repro lint_on unused\nc")
        assert ws.regions["unused"] == [(2, 4)]

    def test_open_region_runs_to_eof(self):
        ws = scan_waivers("// repro lint_off mem-bounds\nx\ny")
        assert ws.regions["mem-bounds"] == [(1, None)]

    def test_star_waives_everything(self):
        src = "// repro lint_off *\n" + TestCombLoop.POSITIVE
        report = lint_source(src, "m")
        assert report.clean and report.waived

    def test_unlocated_diag_needs_line1_waiver(self):
        d = Diagnostic("unused", Severity.WARNING, "x")
        ws = scan_waivers("a\n// repro lint_off unused")
        assert not ws.is_waived(d)
        ws2 = scan_waivers("// repro lint_off unused")
        assert ws2.is_waived(d)


class TestEmbeddedLint:
    def test_warnings_collect_on_flow(self):
        flow = RTLFlow.from_source(TestNoReset.POSITIVE, "m")
        assert flow.lint_report is not None
        assert "no-reset" in [d.rule_id for d in flow.lint_report.diagnostics]

    def test_clean_design_has_empty_report(self):
        flow = RTLFlow.from_source(CLEAN, "m")
        assert flow.lint_report is not None and flow.lint_report.clean

    def test_error_raises_lint_error(self):
        # An aliased comb loop: copy-propagation used to delete it
        # silently; the embedded pass now rejects the design.
        src = """
module m(input a, output wire y);
  wire p, q;
  assign p = q;
  assign q = p;
  assign y = a;
endmodule
"""
        with pytest.raises(LintError) as ei:
            RTLFlow.from_source(src, "m", filename="alias_loop.v")
        assert "comb-loop" in str(ei.value)
        assert "alias_loop.v" in str(ei.value)
        assert [d.rule_id for d in ei.value.diagnostics] == ["comb-loop"]

    def test_lint_false_disables(self):
        src = """
module m(input a, output wire y);
  wire p, q;
  assign p = q;
  assign q = p;
  assign y = a;
endmodule
"""
        flow = RTLFlow.from_source(src, "m", lint=False)
        assert flow.lint_report is None

    def test_waiver_respected_by_embedded_pass(self):
        src = "// repro lint_off no-reset\n" + TestNoReset.POSITIVE
        flow = RTLFlow.from_source(src, "m")
        assert flow.lint_report.clean
        assert flow.lint_report.waived


def _eager_report(src, top, filename="<input>"):
    """The whole rule pack in one pass over the artifacts from_source builds."""
    unit = parse_source(src, filename)
    flat = elaborate(unit, top)
    lowered = lower(flat)
    optimized = optimize_design(lowered)
    ctx = LintContext(
        top=top, filename=filename, unit=unit, flat=flat, lowered=lowered,
        optimized=optimized, graph=build_graph(optimized),
    )
    return lint_artifacts(ctx, text=src)


def _same_report(lazy, eager):
    assert lazy.to_json() == eager.to_json()
    # Insertion order too, not only the rendered (sorted) order.
    assert [d.to_dict() for d in lazy.diagnostics] == [
        d.to_dict() for d in eager.diagnostics
    ]
    assert [d.to_dict() for d in lazy.waived] == [d.to_dict() for d in eager.waived]


# Copy propagation deletes these aliases, so the pipeline accepts the
# design and only the eager error rules reject it.
ALIAS_LOOP = """
module m(input a, output wire y);
  wire p, q;
  assign p = q;
  assign q = p;
  assign y = a;
endmodule
"""
ALIAS_LATCH = """
module m(input a, output wire y);
  wire p;
  assign p = p;
  assign y = a;
endmodule
"""
RULE_HINTS = {
    "comb-loop": "break the feedback with a register, or restructure so "
    "each signal depends only on earlier logic",
    "inferred-latch": "assign a default at the top of the block or complete "
    "every if/case branch",
}

_LAZY_FIXTURES = {
    "comb-loop-waived": "// repro lint_off comb-loop\n" + ALIAS_LOOP,
    # The waived inferred-latch is found first but is listed after the
    # waived derived-clock, as in one eager pass.
    "latch-and-clock-waived": """// repro lint_off *
module m(input clk, input rst, input d, output reg q);
  wire p;
  assign p = p;
  reg slow;
  always @(posedge clk) slow <= rst ? 1'b0 : ~slow;
  always @(posedge slow) q <= d;
endmodule
""",
    "undriven": TestUndriven.POSITIVE,
    "unused": TestUnused.POSITIVE,
    "unused-waived": "// repro lint_off unused\n" + TestUnused.POSITIVE,
    "width-trunc": TestWidthTrunc.POSITIVE,
    "no-reset-waived": "// repro lint_off no-reset\n" + TestNoReset.POSITIVE,
    "derived-clock": TestDerivedClock.POSITIVE,
    "mem-bounds": TestMemBounds.POSITIVE,
    "star-waived": "// repro lint_off *\n" + TestDerivedClock.POSITIVE,
}


class TestLazyEmbeddedLint:
    """from_source runs the error rules; the rest run on first read of
    ``flow.lint_report`` and give exactly the eager report."""

    @pytest.mark.parametrize("read_after_run", [False, True])
    @pytest.mark.parametrize("name", list_designs())
    def test_bundled_design_report_equals_eager(self, name, read_after_run):
        b = get_design(name)
        flow = RTLFlow.from_source(b.source, b.top, filename=name)
        if read_after_run:
            # Codegen and simulation must not touch what the deferred
            # rules read.
            sim = flow.simulator(4)
            b.preload(sim)
            sim.run(b.make_stimulus(4, 8, seed=1), watch=b.watch)
        _same_report(flow.lint_report, _eager_report(b.source, b.top, name))

    @pytest.mark.parametrize("read_after_run", [False, True])
    @pytest.mark.parametrize("fixture", sorted(_LAZY_FIXTURES))
    def test_fixture_report_equals_eager(self, fixture, read_after_run):
        src = _LAZY_FIXTURES[fixture]
        flow = RTLFlow.from_source(src, "m", filename="f.v")
        if read_after_run:
            flow.simulator(3).run(flow.random_stimulus(3, 6, seed=2))
        _same_report(flow.lint_report, _eager_report(src, "m", "f.v"))

    def test_warning_rules_run_on_first_read_only(self, monkeypatch):
        calls = []
        rule = RULES["no-reset"]

        def counting(ctx):
            calls.append(1)
            return rule.fn(ctx)

        monkeypatch.setitem(
            RULES, "no-reset", Rule(rule.rule_id, rule.severity, rule.summary,
                                    rule.stage, counting),
        )
        flow = RTLFlow.from_source(TestNoReset.POSITIVE, "m")
        assert calls == []
        assert flow.lint_report.rule_ids() == ["no-reset"]
        assert flow.lint_report.rule_ids() == ["no-reset"]
        assert calls == [1]

    @pytest.mark.parametrize("src, rule_id, message", [
        (ALIAS_LOOP, "comb-loop", "combinational loop through signals: p -> q -> p"),
        (ALIAS_LATCH, "inferred-latch",
         "combinational driver of 'p' reads its own value — some path through "
         "the always block leaves it unassigned (inferred latch)"),
    ])
    def test_lint_error_diagnostics_unchanged(self, src, rule_id, message):
        with pytest.raises(LintError) as ei:
            RTLFlow.from_source(src, "m", filename="f.v")
        assert str(ei.value) == f"f.v:3:8: lint: [{rule_id}] {message}"
        (diag,) = ei.value.diagnostics
        assert diag.to_dict() == {
            "rule": rule_id, "severity": "error", "message": message,
            "hint": RULE_HINTS[rule_id], "subject": "p",
            "file": "f.v", "line": 3, "col": 8,
        }
        assert [d.to_dict() for d in ei.value.diagnostics] == [
            d.to_dict() for d in _eager_report(src, "m", "f.v").errors
        ]

    def test_multi_driven_is_rejected_before_lint(self):
        # Lowering refuses a second driver before any lint rule runs; the
        # multi-driven rule reports it through `repro lint`.
        with pytest.raises(ElaborationError, match="multiple combinational drivers for: w"):
            RTLFlow.from_source(TestMultiDriven.POSITIVE, "m")
        assert only(lint_source(TestMultiDriven.POSITIVE, "m"), "multi-driven")

    def test_lint_false_leaves_no_report(self):
        flow = RTLFlow.from_source(TestNoReset.POSITIVE, "m", lint=False)
        assert flow.lint_report is None


class TestReportRendering:
    def test_text_format_has_location_severity_rule(self):
        report = lint_source(TestCombLoop.POSITIVE, "m", filename="d.v")
        text = report.format_text()
        assert "d.v:" in text and "error: [comb-loop]" in text
        assert "hint:" in text
        assert "1 error(s)" in text

    def test_json_roundtrip(self):
        report = lint_source(TestMemBounds.POSITIVE, "m", filename="d.v")
        data = json.loads(report.to_json())
        assert data["top"] == "m"
        assert data["counts"]["warning"] == len(report.warnings)
        diag = data["diagnostics"][0]
        assert {"rule", "severity", "message", "file", "line"} <= set(diag)

    def test_severity_parse(self):
        assert Severity.parse("warning") is Severity.WARNING
        assert Severity.ERROR > Severity.WARNING > Severity.INFO
        with pytest.raises(ValueError):
            Severity.parse("fatal")


class TestCli:
    def _write(self, tmp_path, src):
        p = tmp_path / "design.v"
        p.write_text(src)
        return str(p)

    def test_lint_clean_exit_zero(self, tmp_path, capsys):
        rc = main(["lint", self._write(tmp_path, CLEAN), "--top", "m"])
        assert rc == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_error_exit_one(self, tmp_path, capsys):
        path = self._write(tmp_path, TestCombLoop.POSITIVE)
        rc = main(["lint", path, "--top", "m"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "[comb-loop]" in out and f"{path}:" in out

    def test_fail_on_warning(self, tmp_path, capsys):
        path = self._write(tmp_path, TestNoReset.POSITIVE)
        assert main(["lint", path, "--top", "m"]) == 0
        assert main(["lint", path, "--top", "m", "--fail-on", "warning"]) == 1
        assert main(["lint", path, "--top", "m", "--fail-on", "never"]) == 0
        capsys.readouterr()

    def test_json_output(self, tmp_path, capsys):
        path = self._write(tmp_path, TestMemBounds.POSITIVE)
        rc = main(["lint", path, "--top", "m", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counts"]["warning"] >= 1

    def test_missing_top_is_error(self, tmp_path, capsys):
        rc = main(["lint", self._write(tmp_path, CLEAN)])
        assert rc == 2
        assert "--top" in capsys.readouterr().err

    def test_design_flag(self, capsys):
        rc = main(["lint", "--design", "counter"])
        assert rc == 0
        assert "counter" in capsys.readouterr().out

    def test_stats_json(self, tmp_path, capsys):
        path = self._write(tmp_path, CLEAN)
        rc = main(["stats", path, "--top", "m", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["top"] == "m"
        assert "comb_nodes" in data["graph"]
        assert "tasks" in data["taskgraph"] or data["taskgraph"]


class TestBundledSweep:
    @pytest.mark.parametrize("name", list_designs())
    def test_design_lints_clean_at_error(self, name):
        bundle = get_design(name)
        report = lint_source(bundle.source, bundle.top, filename=name)
        assert not report.errors, report.format_text()

    def test_nvdla_waives_coefficient_registers(self):
        bundle = get_design("nvdla")
        report = lint_source(bundle.source, bundle.top)
        assert not only(report, "no-reset")
        assert all(d.rule_id == "no-reset" for d in report.waived)
        assert report.waived  # the metacomment is exercised, not dead
