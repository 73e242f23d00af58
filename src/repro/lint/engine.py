"""The lint engine: staged, failure-tolerant rule driver.

Two entry points:

* :func:`lint_source` — standalone (``repro lint``).  Runs the front end
  stage by stage and keeps linting with whatever artifacts exist: a
  design that fails to parse still gets waiver handling and a located
  ``syntax`` diagnostic; a design that parses but does not lower still
  gets the flat-stage rules (multi-driven, width checks); a design that
  lowers gets everything.  The pipeline errors the front end *would*
  raise are converted into diagnostics instead of exceptions, so one run
  reports as much as possible.

* :func:`lint_artifacts` — embedded (``RTLFlow.from_source``).  The
  pipeline already ran (and already raised on anything structural), so
  this only applies the registered rules to the artifacts in hand and
  returns the report; the flow raises :class:`~repro.utils.errors.LintError`
  if any error-severity finding survives waivers.  The flow splits the
  pass: the error-severity rules run at construction, the rest on the
  first read of ``flow.lint_report`` (``errors=`` / ``into=`` below).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from repro.lint.diagnostics import Diagnostic, LintReport, Severity, SourceLoc
from repro.lint.rules import RULES, LintContext, all_rules
from repro.lint.waivers import WaiverSet, scan_waivers
from repro.utils.errors import ReproError, VerilogSyntaxError


def _select_rules(only: Optional[Iterable[str]]) -> Sequence:
    if only is None:
        return all_rules()
    wanted = set(only)
    unknown = wanted - set(RULES)
    if unknown:
        raise ValueError(
            "unknown lint rule(s): " + ", ".join(sorted(unknown))
        )
    return [r for r in all_rules() if r.rule_id in wanted]


def _error_to_diag(rule_id: str, exc: ReproError) -> Diagnostic:
    loc = None
    if getattr(exc, "has_location", False):
        loc = SourceLoc(exc.filename, exc.line, exc.col)
    return Diagnostic(
        rule_id,
        Severity.ERROR,
        getattr(exc, "message", str(exc)),
        loc=loc,
    )


# Stage name -> the LintContext attribute that must exist for rules of
# that stage to run.  'graph' rules need the RtlGraph; 'taskgraph' and
# 'fused' rules (the verifier's stages, see repro.verify) need the
# partitioned TaskGraph / the CompiledModel respectively.
_STAGE_ATTR = {
    "flat": "flat",
    "lowered": "lowered",
    "optimized": "optimized",
    "graph": "graph",
    "taskgraph": "taskgraph",
    "fused": "model",
}


def _run_rules(
    ctx: LintContext,
    report: LintReport,
    waivers: Optional[WaiverSet],
    only: Optional[Iterable[str]],
    errors: Optional[bool] = None,
) -> None:
    """Apply every selected rule whose stage artifact exists (only the
    error-severity rules, or only the others, when ``errors`` is set)."""
    for r in _select_rules(only):
        if errors is not None and (r.severity is Severity.ERROR) != errors:
            continue
        attr = _STAGE_ATTR.get(r.stage)
        if attr is not None and getattr(ctx, attr, None) is None:
            continue
        for diag in r.fn(ctx):
            if waivers is not None and waivers.is_waived(diag):
                report.waived.append(diag)
            else:
                report.add(diag)


def lint_artifacts(
    ctx: LintContext,
    *,
    text: Optional[str] = None,
    rules: Optional[Iterable[str]] = None,
    errors: Optional[bool] = None,
    into: Optional[LintReport] = None,
) -> LintReport:
    """Lint already-built artifacts (the embedded path).

    ``text`` enables ``// repro lint_off`` waiver scanning; without it
    every finding is reported.  ``errors=True`` runs only the
    error-severity rules and ``errors=False`` only the others.  ``into``
    adds the findings to an earlier report of the same context, in the
    order a single unsplit run would have produced them.
    """
    report = into if into is not None else LintReport(top=ctx.top, filename=ctx.filename)
    waivers = scan_waivers(text) if text is not None else None
    _run_rules(ctx, report, waivers, rules, errors)
    if into is not None:
        rank = {r.rule_id: i for i, r in enumerate(all_rules())}
        report.diagnostics.sort(key=lambda d: rank.get(d.rule_id, len(rank)))
        report.waived.sort(key=lambda d: rank.get(d.rule_id, len(rank)))
    return report


def lint_source(
    text: str,
    top: str,
    filename: str = "<input>",
    defines: Optional[Mapping[str, str]] = None,
    rules: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint Verilog source text, tolerating front-end failures.

    Always returns a report; never raises on bad *designs* (only on bad
    arguments, e.g. an unknown rule id).
    """
    # Imports here keep `import repro.lint` light for API consumers.
    from repro.elaborate.elaborator import elaborate
    from repro.elaborate.optimize import optimize_design
    from repro.elaborate.symexec import lower
    from repro.rtlir.build import build_graph
    from repro.verilog.parser import parse_source

    _select_rules(rules)  # validate rule ids up front
    waivers = scan_waivers(text)
    report = LintReport(top=top, filename=filename)
    ctx = LintContext(top=top, filename=filename)

    def fail(rule_id: str, exc: ReproError) -> None:
        diag = _error_to_diag(rule_id, exc)
        if waivers.is_waived(diag):
            report.waived.append(diag)
        else:
            report.add(diag)

    try:
        ctx.unit = parse_source(
            text, filename, defines=dict(defines) if defines else None
        )
    except VerilogSyntaxError as e:
        fail("syntax", e)
        return report

    try:
        ctx.flat = elaborate(ctx.unit, top)
    except ReproError as e:
        fail("elab", e)
        _run_rules(ctx, report, waivers, rules)
        return report

    try:
        ctx.lowered = lower(ctx.flat)
    except ReproError as e:
        # Lowering rejects structural problems (duplicate drivers,
        # registers in two blocks, comb+seq conflicts).  The flat-stage
        # multi-driven rule reports the same conditions with locations;
        # only surface the raw error if no rule reproduces it.
        _run_rules(ctx, report, waivers, rules)
        if not report.errors:
            fail("elab", e)
        return report

    # Run the remaining pipeline stages before the rules: the optimizer
    # feeds the unused rule's dead-logic cross-check and build_graph
    # yields the RtlGraph.  Their failure modes (width annotation, comb
    # cycles) are only surfaced if no rule reproduces them with a better
    # diagnostic.
    pipeline_exc: Optional[ReproError] = None
    try:
        ctx.optimized = optimize_design(ctx.lowered)
        ctx.graph = build_graph(ctx.optimized)
    except ReproError as e:
        pipeline_exc = e

    _run_rules(ctx, report, waivers, rules)
    if pipeline_exc is not None and not report.errors:
        fail("elab", pipeline_exc)
    return report
