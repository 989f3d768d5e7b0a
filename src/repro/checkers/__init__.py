"""Codebase static analysis: the REPRO convention checkers.

:mod:`repro.analyze` lints *schedules* (the paper's objects);
this package lints *the codebase that produces them*.  The conventions
it enforces are the ones this repository's performance and correctness
story actually rests on: the columnar hot path stays loop-free
(REPRO001), caches declare capacities (REPRO003), lock-guarded state
stays lock-guarded (REPRO004), content-addressed bytes stay canonical
and deterministic (REPRO005/006), registered passes declare their
invariants (REPRO007), and CLI-reachable errors carry messages
(REPRO008).

The architecture deliberately mirrors :mod:`repro.analyze` one tier up:
a decorator registry (:mod:`repro.checkers.registry`), a parse-once
per-file context (:mod:`repro.checkers.context`), pure rule functions
(:mod:`repro.checkers.rules`), an engine that stamps/suppresses/sorts
(:mod:`repro.checkers.engine`) and byte-stable text + SARIF renderers
(:mod:`repro.checkers.report`).  The severity scale *is*
:class:`repro.analyze.diagnostics.Severity` — one ``--fail-on`` grammar
across both tiers.

Quick start::

    from repro.checkers import check_paths, render_text

    report = check_paths(["src/repro"])
    assert not report.errors
    print(render_text(report))

Command line::

    python -m repro.cli check src/repro
    python -m repro.cli check --select REPRO001,REPRO007 src/repro/passes

Findings are suppressed per line with ``# repro: ignore[REPRO005]``;
stale suppressions surface as REPRO000 warnings.
"""

from repro.checkers.context import FileContext, parse_suppressions
from repro.checkers.diagnostics import (
    UNUSED_SUPPRESSION,
    CheckDiagnostic,
    CheckReport,
    Severity,
)
from repro.checkers.engine import check_context, check_paths, expand_paths
from repro.checkers.profiles import classify, pragma_profiles
from repro.checkers.registry import (
    CHECKERS,
    Checker,
    Finding,
    checker_ids,
    get_checker,
    register_checker,
    resolve_checkers,
)
from repro.checkers.report import render_text, sarif_json, to_sarif

__all__ = [
    "Severity",
    "CheckDiagnostic",
    "CheckReport",
    "UNUSED_SUPPRESSION",
    "FileContext",
    "parse_suppressions",
    "classify",
    "pragma_profiles",
    "CHECKERS",
    "Checker",
    "Finding",
    "register_checker",
    "checker_ids",
    "get_checker",
    "resolve_checkers",
    "check_context",
    "check_paths",
    "expand_paths",
    "render_text",
    "to_sarif",
    "sarif_json",
]
