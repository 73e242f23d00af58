"""repro.verify — translation-validation verifier for the lowering flow.

Three layers of compile-time assurance over the RTL -> batch-program
pipeline (see ``docs/verify.md``):

1. **IR verifier passes** (:mod:`repro.verify.ir_checks`) re-derive the
   invariants of every lowering boundary — RtlGraph well-formedness,
   TaskGraph cover/edge/schedule consistency, memory-layout offset
   disjointness, fused-bundle clock-domain coverage and commit bindings.
2. **Known-bits dataflow** (:mod:`repro.verify.knownbits`) proves the
   fused emitter's rewrites sound (dropped constant-zero branches,
   increment-mux peepholes, demand-width truncation) and powers the
   ``const-cond`` / ``const-compare`` / ``redundant-mask`` lint rules.
3. **Scheduling-hazard detection** (:mod:`repro.verify.hazards`) —
   static conflict analysis over the task graph plus the opt-in
   :class:`CheckedFusedExecutor`, which holds each step of the product's
   evaluation to its static write set while simulating.

Verification reports through the lint machinery: findings are
:class:`~repro.lint.Diagnostic` records in a
:class:`~repro.lint.LintReport`, and every verify rule lives in the
shared registry under the ``verify-*`` ids (ERROR severity).  The
mutation self-test (:mod:`repro.verify.mutate`) injects synthetic IR
corruptions and requires the verifier to flag each one.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.lint.diagnostics import Diagnostic, LintReport, Severity, SourceLoc
from repro.lint.engine import lint_artifacts
from repro.lint.rules import LintContext

# Importing the rules module registers the verify-* rules.
from repro.verify import rules as _rules  # noqa: F401
from repro.verify.hazards import CheckedFusedExecutor, check_hazards
from repro.verify.knownbits import KnownBits, analyze_graph, expr_bits
from repro.verify.rules import VERIFY_RULE_IDS

__all__ = [
    "VERIFY_RULE_IDS",
    "VERIFY_STAGES",
    "CheckedFusedExecutor",
    "KnownBits",
    "analyze_graph",
    "check_hazards",
    "expr_bits",
    "verify_model",
    "verify_source",
]

#: Lint stages the verifier populates beyond plain lint.
VERIFY_STAGES = ("graph", "taskgraph", "fused")


def verify_model(
    model,
    *,
    filename: str = "<input>",
    text: Optional[str] = None,
    rules: Optional[Iterable[str]] = None,
) -> LintReport:
    """Run the verifier passes over a compiled model.

    Returns a :class:`LintReport` of ``verify-*`` findings (restrict or
    widen with ``rules``).  ``text`` enables source waivers.  Building
    the report forces the fused lowering (``model.fused()``) — the
    verifier's whole point is checking that artifact — and re-proves
    the per-task module's rewrites too when the model has built it.
    """
    design = model.graph.design
    ctx = LintContext(
        top=getattr(design, "top", "") or "",
        filename=filename,
        lowered=design,
        graph=model.graph,
        taskgraph=model.taskgraph,
        model=model,
    )
    selected = tuple(rules) if rules is not None else VERIFY_RULE_IDS
    return lint_artifacts(ctx, text=text, rules=selected)


def verify_source(
    text: str,
    top: str,
    *,
    filename: str = "<input>",
    defines: Optional[Mapping[str, str]] = None,
    rules: Optional[Iterable[str]] = None,
    target_weight: Optional[float] = None,
) -> LintReport:
    """Build ``text`` through the full flow (both lowerings) and verify.

    Front-end failures (parse/elaborate/lower) come back as a located
    ``elab`` ERROR diagnostic instead of raising, mirroring
    :func:`repro.lint.lint_source`'s tolerance — ``repro verify`` over a
    broken design reports *something* rather than crashing.
    """
    from repro.core.flow import RTLFlow
    from repro.utils.errors import ReproError

    report = LintReport(top=top, filename=filename)
    try:
        flow = RTLFlow.from_source(
            text, top, defines=defines, filename=filename, lint=False
        )
        kw = {} if target_weight is None else {"target_weight": target_weight}
        model = flow.compile(**kw)
        model.tasks()
    except ReproError as e:
        loc = None
        if getattr(e, "has_location", False):
            loc = SourceLoc(e.filename, e.line, e.col)
        report.add(Diagnostic(
            "elab", Severity.ERROR, getattr(e, "message", str(e)), loc=loc
        ))
        return report
    return verify_model(model, filename=filename, text=text, rules=rules)
