"""Verifier rules registered into the shared lint registry.

Each rule wraps one pure check from :mod:`repro.verify.ir_checks` /
:mod:`repro.verify.hazards` as a staged lint rule, so verification
reuses the Diagnostic/LintReport/waiver machinery and ``repro verify``
is just ``lint_artifacts`` restricted to these rule ids.  All verify
rules are ERROR severity: a finding means an IR invariant is broken —
builder bug or corrupted artifact — never a style issue.

Importing this module (done by ``import repro.verify``) performs the
registration.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.rules import LintContext, rule
from repro.verify import ir_checks
from repro.verify.hazards import check_hazards

#: Rule ids the ``repro verify`` entry points select (lint rules like
#: const-cond stay out: they judge the *design*, these judge the *IR*).
VERIFY_RULE_IDS = (
    "verify-graph",
    "verify-taskgraph",
    "verify-hazard",
    "verify-layout",
    "verify-fused",
    "verify-audit",
)


def _locate(ctx: LintContext, diags: List[Diagnostic]) -> Iterable[Diagnostic]:
    """Attach declaration locations to findings that name a subject."""
    for d in diags:
        if d.loc is None and d.subject:
            loc = ctx.loc_of(d.subject)
            if loc is not None:
                d.loc = loc
        yield d


@rule(
    "verify-graph",
    Severity.ERROR,
    "graph",
    "RtlGraph invariants: node ids, producer map, edges, topo order, levels",
)
def verify_graph(ctx: LintContext) -> Iterable[Diagnostic]:
    assert ctx.graph is not None
    return _locate(ctx, ir_checks.check_graph(ctx.graph))


@rule(
    "verify-taskgraph",
    Severity.ERROR,
    "taskgraph",
    "TaskGraph invariants: exact cover, edge/schedule consistency, domain "
    "uniformity, per-domain register write-disjointness",
)
def verify_taskgraph(ctx: LintContext) -> Iterable[Diagnostic]:
    assert ctx.taskgraph is not None
    return _locate(ctx, ir_checks.check_taskgraph(ctx.taskgraph))


@rule(
    "verify-hazard",
    Severity.ERROR,
    "taskgraph",
    "static scheduling hazards: unordered tasks with conflicting footprints",
)
def verify_hazard(ctx: LintContext) -> Iterable[Diagnostic]:
    assert ctx.taskgraph is not None
    return _locate(ctx, check_hazards(ctx.taskgraph))


@rule(
    "verify-layout",
    Severity.ERROR,
    "fused",
    "memory layout: offset disjointness, pool bounds, width/pool fit",
)
def verify_layout(ctx: LintContext) -> Iterable[Diagnostic]:
    assert ctx.model is not None
    return _locate(ctx, ir_checks.check_layout(ctx.model.layout))


@rule(
    "verify-fused",
    Severity.ERROR,
    "fused",
    "fused bundle: clock-domain coverage (plan-cache soundness), node "
    "counts, memory-commit bindings",
)
def verify_fused(ctx: LintContext) -> Iterable[Diagnostic]:
    assert ctx.model is not None
    return _locate(ctx, ir_checks.check_fused(ctx.model))


@rule(
    "verify-audit",
    Severity.ERROR,
    "fused",
    "translation validation: re-prove every rewrite the fused emitter "
    "recorded through the known-bits engine",
)
def verify_audit(ctx: LintContext) -> Iterable[Diagnostic]:
    assert ctx.model is not None
    return _locate(ctx, ir_checks.check_audit(ctx.model))
