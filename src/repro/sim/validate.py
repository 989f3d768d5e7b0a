"""LogP legality checking for schedules.

:func:`violations` inspects a :class:`~repro.schedule.ops.Schedule` and
returns a list of human-readable violation strings (empty means the
schedule is a legal LogP execution).  The checks implement the model of
Section 1 of the paper:

* **causality** — a processor only sends items it already holds;
* **send gap** — successive send *starts* at one processor are >= ``g``
  apart;
* **receive gap** — successive receive *starts* at one processor are
  >= ``g`` apart;
* **overhead exclusivity** — when ``o > 0``, the send and receive
  overhead intervals at one processor are pairwise disjoint;
* **capacity** — at most ``ceil(L/g)`` messages are simultaneously in
  transit from any processor, and to any processor.

Two further *problem-specific* predicates are provided:
:func:`single_reception_violations` (no processor receives the same item
twice — the "correctness" criterion of Section 3.1) and
:func:`is_single_sending` (the source transmits each item exactly once —
Section 3.4).

Legality is computed by the vectorized engine
(:mod:`repro.sim.validate_np`) over the schedule's cached columns; the
scalar walker it is property-tested against lives with the test
oracles.
"""

from __future__ import annotations

from typing import Hashable

from repro.schedule.ops import Schedule
from repro.sim.validate_np import violations_np

__all__ = [
    "violations",
    "assert_valid",
    "single_reception_violations",
    "is_single_sending",
]

Item = Hashable


def violations(schedule: Schedule, check_capacity: bool = True) -> list[str]:
    """Return all LogP-model violations in ``schedule`` (empty if legal)."""
    return violations_np(schedule, check_capacity=check_capacity)


def assert_valid(schedule: Schedule, check_capacity: bool = True) -> None:
    """Raise ``ValueError`` with all violations if the schedule is illegal."""
    problems = violations(schedule, check_capacity=check_capacity)
    if problems:
        preview = "\n  ".join(problems[:10])
        more = f"\n  ... and {len(problems) - 10} more" if len(problems) > 10 else ""
        raise ValueError(f"illegal LogP schedule:\n  {preview}{more}")


def single_reception_violations(schedule: Schedule) -> list[str]:
    """Check the broadcast *correctness* criterion: no processor receives
    the same item twice (and no processor receives an item it started with).
    """
    problems: list[str] = []
    seen: set[tuple[int, Item]] = set()
    for proc, items in schedule.initial.items():
        for item in items:
            seen.add((proc, item))
    for op in schedule.sorted_sends():
        key = (op.dst, op.item)
        if key in seen:
            problems.append(
                f"duplicate reception: proc {op.dst} receives item "
                f"{op.item!r} more than once (send at t={op.time})"
            )
        seen.add(key)
    return problems


def is_single_sending(
    schedule: Schedule,
    source: int = 0,
    items: set[Item] | None = None,
) -> bool:
    """True iff the source transmits each item exactly once (Section 3.4).

    ``items`` names the item set the criterion quantifies over and
    defaults to the source's initial holdings.  Every item in that set
    must be sent exactly once by ``source`` — a source that never
    transmits one of its items is *not* single-sending (it is simply not
    broadcasting) — and no item at all may be sent twice.
    """
    if items is None:
        items = set(schedule.initial.get(source, set()))
    counts: dict[Item, int] = {}
    for op in schedule.sends:
        if op.src == source:
            counts[op.item] = counts.get(op.item, 0) + 1
    if any(counts.get(item, 0) != 1 for item in items):
        return False
    return all(count == 1 for count in counts.values())
