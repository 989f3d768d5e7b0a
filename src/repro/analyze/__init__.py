"""Static schedule analysis: rule-based lints over the columnar IR.

The validator (:mod:`repro.sim.validate`) answers "is this a *legal*
LogP execution?"; this package answers the structural questions the
paper's optimality arguments are made of — dead sends, duplicate
deliveries, acausal provenance, idle slack, single-sending discipline,
closed-form optimality gaps, Theorem 3.2 endgame shape — **without
running the simulator**.  Every rule is vectorized over
:class:`~repro.schedule.columnar.ScheduleColumns` (zero-copy for
array-backed schedules), so the full ten-rule sweep over a million-send
all-to-all completes in well under a second.

Quick start::

    from repro.analyze import lint_schedule, render_text

    report = lint_schedule(schedule)
    assert not report.errors
    print(render_text(report))

Command line::

    python -m repro.cli lint schedule.json
    python -m repro.cli lint --builder bcast --P 8 --L 6 --o 2 --g 4

Codebase-tier gates (mypy ``--strict`` scoping, ruff, and the
``repro check`` REPRO001 AST checker that bans Python-level loops over
``.sends`` in hot modules) live in ``pyproject.toml``,
:mod:`repro.checkers` and CI; this package is the schedule tier.
"""

from repro.analyze.chunked import (
    AGGREGATE_RULES,
    PER_CHUNK_RULES,
    WHOLE_SCHEDULE_RULES,
    lint_implicit,
)
from repro.analyze.context import LintContext, Workload, detect_workload
from repro.analyze.diagnostics import (
    MAX_EMITTED_PER_RULE,
    Diagnostic,
    LintReport,
    Severity,
)
from repro.analyze.engine import assert_lint_clean, lint_schedule, resolve_rules
from repro.analyze.report import render_text, sarif_json, to_sarif
from repro.analyze.rules import RULES, Rule, get_rule, rule_ids

__all__ = [
    "Severity",
    "Diagnostic",
    "LintReport",
    "MAX_EMITTED_PER_RULE",
    "LintContext",
    "Workload",
    "detect_workload",
    "lint_schedule",
    "lint_implicit",
    "PER_CHUNK_RULES",
    "AGGREGATE_RULES",
    "WHOLE_SCHEDULE_RULES",
    "assert_lint_clean",
    "resolve_rules",
    "render_text",
    "to_sarif",
    "sarif_json",
    "RULES",
    "Rule",
    "rule_ids",
    "get_rule",
]
