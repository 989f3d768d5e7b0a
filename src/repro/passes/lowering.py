"""The ``lower`` pass: compile a schedule to per-rank programs.

Registering the compilation step as a pass puts it on the same rails
as every other schedule rewrite: ``repro opt --pipeline
'canonicalize,lower'`` verifies the schedule with the
:class:`~repro.passes.manager.PassManager` machinery and *then* lowers
it, and the produced :class:`~repro.exec.program.ExecPlan` is stashed
on the pass instance (``pass.plan``) plus summarized in ``stats``.

The pass is schedule-in/schedule-out (the input is returned untouched
— lowering is a projection, not a rewrite), so it composes anywhere in
a pipeline; callers who want the artifact keep a reference to the pass
object or use :func:`repro.exec.lower_schedule` directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from repro.passes.base import SchedulePass, register_pass
from repro.schedule.ops import Schedule

if TYPE_CHECKING:
    from repro.exec.program import ExecPlan
    from repro.schedule.implicit import ImplicitSchedule

__all__ = ["LowerPass"]


@register_pass
class LowerPass(SchedulePass):
    """Lower to per-rank programs; the schedule passes through unchanged."""

    name: ClassVar[str] = "lower"
    summary: ClassVar[str] = (
        "compile to per-rank send/recv/reduce programs (repro.exec)"
    )
    params_doc: ClassVar[str] = ""
    preserves_legality: ClassVar[bool] = True
    preserves_completion: ClassVar[bool] = True

    def __init__(self) -> None:
        super().__init__()
        self.plan: "ExecPlan | None" = None

    def _record(self, plan: "ExecPlan") -> None:
        self.plan = plan
        self.stats["ranks"] = len(plan.programs)
        self.stats["instrs"] = plan.num_instrs
        self.stats["sends"] = plan.num_sends

    def run(self, schedule: Schedule) -> Schedule:
        from repro.exec.lower import lower_schedule

        self._record(lower_schedule(schedule))
        return schedule

    def run_implicit(self, schedule: "ImplicitSchedule") -> "ImplicitSchedule":
        """Lower through the bounded chunk stream; the implicit plan
        itself passes through unchanged.  The *programs* are inherently
        O(num_sends) — that is the cost of executing, not an accidental
        materialization of the schedule IR."""
        from repro.exec.lower import lower_schedule

        self._record(lower_schedule(schedule))
        return schedule
