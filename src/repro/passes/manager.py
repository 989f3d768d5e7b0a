"""`PassManager`: chain passes with lint verification between them.

The manager is the "verified" half of the framework: after every pass it
can re-run the lint engine (:mod:`repro.analyze`) as an IR verifier.
The legality rules SCHED001-003 (causality, self-send, negative time)
play the role of MLIR's structural verifier; warnings and info rules can
ride along with ``verify="all"`` for diagnosis but never fail a run.

Verification is *differential*: the input schedule's pre-existing error
rules form a baseline, and a pass fails verification only when it
**introduces** an error rule id that was not already present — so
normalization pipelines (e.g. ``canonicalize``) run cleanly over the
deliberately-broken lint corpus, while a buggy rewrite of a clean
schedule is caught immediately.  Passes declaring
``preserves_completion`` additionally have their makespan (completion
minus start time) checked.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.passes.base import SchedulePass
from repro.passes.pipeline import parse_pipeline
from repro.schedule.ops import Schedule

if TYPE_CHECKING:
    from repro.analyze import LintReport

__all__ = [
    "ERROR_RULES",
    "PassManager",
    "PassRecord",
    "PassVerificationError",
    "run_pipeline",
]

#: The legality rules used as the IR verifier (errors; SCHED004+ are
#: warnings/info and never fail verification).
ERROR_RULES = ("SCHED001", "SCHED002", "SCHED003")


class PassVerificationError(RuntimeError):
    """A pass broke a declared invariant (new lint errors or makespan)."""


@dataclass(frozen=True)
class PassRecord:
    """What one pass did: sizes, makespans, timing, stats, lint report."""

    index: int
    name: str
    description: str
    sends_before: int
    sends_after: int
    makespan_before: int
    makespan_after: int
    elapsed_s: float
    stats: dict[str, Any] = field(default_factory=dict)
    report: "LintReport | None" = None


def _makespan(schedule: Schedule) -> int:
    """Completion time minus start time (0 for an empty schedule)."""
    cols = schedule.columns()
    if len(cols) == 0:
        return 0
    return int(cols.arrivals.max()) - int(cols.times.min())


class PassManager:
    """Run a pass sequence over a schedule, verifying between passes.

    ``passes`` is either a list of :class:`SchedulePass` instances or
    pipeline text for :func:`repro.passes.pipeline.parse_pipeline`.
    ``verify`` is ``"errors"`` (default: re-lint SCHED001-003 after each
    pass), ``"all"`` (run every lint rule; reports carry warnings too,
    but only *introduced* errors fail), or ``"off"``.  After
    :meth:`run`, :attr:`records` holds one
    :class:`PassRecord` per executed pass.
    """

    def __init__(
        self,
        passes: list[SchedulePass] | str,
        verify: str = "errors",
    ):
        if verify not in ("errors", "all", "off"):
            raise ValueError(
                f"verify must be 'errors', 'all' or 'off', got {verify!r}"
            )
        self.passes = parse_pipeline(passes) if isinstance(passes, str) else list(passes)
        self.verify = verify
        self.records: list[PassRecord] = []

    def _lint(self, schedule: Schedule) -> "LintReport":
        # analyze transitively imports repro.registry; resolving lazily
        # keeps the passes package importable from anywhere in the core.
        from repro.analyze import lint_schedule

        if self.verify == "all":
            return lint_schedule(schedule)
        return lint_schedule(schedule, select=ERROR_RULES)

    def run(self, schedule: Schedule) -> Schedule:
        """Apply every pass in order; returns the final schedule."""
        from repro.schedule.implicit import ImplicitSchedule

        if isinstance(schedule, ImplicitSchedule):
            raise TypeError(
                "PassManager verifies materialized schedules; apply "
                "shift/remap to an implicit plan via pass.run_implicit() "
                "or materialize() it first"
            )
        self.records = []
        baseline: set[str] = set()
        if self.verify != "off":
            baseline = {d.rule for d in self._lint(schedule).errors}
        current = schedule
        for index, p in enumerate(self.passes):
            sends_before = current.num_sends
            makespan_before = _makespan(current)
            started = time.perf_counter()
            result = p.run(current)
            elapsed = time.perf_counter() - started
            report: "LintReport | None" = None
            if self.verify != "off":
                report = self._lint(result)
                post = {d.rule for d in report.errors}
                introduced = post - baseline
                if introduced and p.preserves_legality:
                    raise PassVerificationError(
                        f"pass {p.describe()!r} (step {index + 1}) introduced "
                        f"lint errors: {', '.join(sorted(introduced))}"
                    )
                baseline = post
                if (
                    p.preserves_completion
                    and _makespan(result) != makespan_before
                ):
                    raise PassVerificationError(
                        f"pass {p.describe()!r} (step {index + 1}) changed "
                        f"the makespan from {makespan_before} to "
                        f"{_makespan(result)} despite declaring "
                        "preserves_completion"
                    )
            self.records.append(
                PassRecord(
                    index=index,
                    name=p.name,
                    description=p.describe(),
                    sends_before=sends_before,
                    sends_after=result.num_sends,
                    makespan_before=makespan_before,
                    makespan_after=_makespan(result),
                    elapsed_s=elapsed,
                    stats=dict(p.stats),
                    report=report,
                )
            )
            current = result
        return current


def run_pipeline(
    pipeline: str | list[SchedulePass],
    schedule: Schedule,
    verify: str = "off",
) -> Schedule:
    """One-shot convenience: build a manager, run it, return the result."""
    return PassManager(pipeline, verify=verify).run(schedule)
