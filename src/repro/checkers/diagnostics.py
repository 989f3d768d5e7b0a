"""Diagnostic records emitted by the codebase checkers.

The schedule lint engine's :class:`~repro.analyze.diagnostics.Diagnostic`
points at *send indices*; a codebase finding points at a *file and
line*.  Everything else carries over — and the severity scale is
literally shared: :class:`~repro.analyze.diagnostics.Severity` is
re-exported here so ``--fail-on`` parsing, SARIF level mapping and the
ERROR/WARNING semantics are one implementation across both tiers.

Severity semantics for code checks:

* ``ERROR`` — the convention is load-bearing for correctness or the
  perf architecture (a hot-module send loop, non-canonical bytes in a
  keyed path, a lock-guarded attribute mutated without the lock).
* ``WARNING`` — the convention guards against slow rot (unbounded
  caches, opaque exceptions).  ``repro check`` defaults to
  ``--fail-on warning``: a clean tree stays clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.analyze.diagnostics import Severity

__all__ = ["Severity", "CheckDiagnostic", "CheckReport", "UNUSED_SUPPRESSION"]

#: The engine-level meta rule: a ``# repro: ignore[...]`` comment whose
#: rule ran but matched nothing on that line.  Stale suppressions hide
#: future regressions, so they are findings themselves (and cannot be
#: suppressed in turn).
UNUSED_SUPPRESSION = "REPRO000"


@dataclass(frozen=True)
class CheckDiagnostic:
    """One structured code finding, anchored to ``path:line``."""

    rule: str
    severity: Severity
    path: str
    line: int
    message: str
    fixit: str | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity.label,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }
        if self.fixit is not None:
            out["fixit"] = self.fixit
        return out

    def render(self) -> str:
        """The byte-stable one-line text form."""
        return (
            f"{self.path}:{self.line}: {self.rule} "
            f"{self.severity.label}: {self.message}"
        )


@dataclass
class CheckReport:
    """All diagnostics from one ``repro check`` run, plus run metadata.

    ``rules_run`` lists every rule that executed on at least one file
    (so "no diagnostics" is distinguishable from "rule never applied");
    ``rule_totals`` maps rule id -> total findings.  ``elapsed_s`` is
    excluded from every rendered form so output stays byte-stable.
    """

    diagnostics: list[CheckDiagnostic]
    rules_run: list[str]
    rule_totals: dict[str, int]
    files_checked: int
    elapsed_s: float = 0.0

    def __iter__(self) -> Iterator[CheckDiagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity == severity)

    @property
    def errors(self) -> list[CheckDiagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.ERROR]

    @property
    def warnings(self) -> list[CheckDiagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    @property
    def max_severity(self) -> Severity | None:
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    def at_least(self, severity: Severity) -> list[CheckDiagnostic]:
        return [d for d in self.diagnostics if d.severity >= severity]

    def rule_ids(self) -> list[str]:
        """Sorted distinct rule ids that fired (the corpus-pinned view)."""
        return sorted({d.rule for d in self.diagnostics})
