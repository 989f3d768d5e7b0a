"""Scalar oracles for :mod:`repro.schedule.analysis`.

Same values as the production helpers (which run on the schedule's
columns), computed with one Python loop over the schedule's sends.
"""

from __future__ import annotations

from typing import Hashable

from repro.schedule.ops import Schedule

__all__ = [
    "availability",
    "completion_time",
    "item_completion_times",
    "broadcast_delay_per_proc",
]

Item = Hashable


def availability(schedule: Schedule) -> dict[tuple[int, Item], int]:
    """Map ``(proc, item) -> earliest cycle the item is available there``."""
    avail: dict[tuple[int, Item], int] = {}
    for proc, items in schedule.initial.items():
        for item in items:
            created = schedule.item_creation_time(item)
            key = (proc, item)
            avail[key] = min(avail.get(key, created), created)
    for op in schedule.sends:
        arrival = op.arrival(schedule.params)
        key = (op.dst, op.item)
        if key not in avail or arrival < avail[key]:
            avail[key] = arrival
    return avail


def completion_time(schedule: Schedule) -> int:
    """Cycle at which the last payload lands (0 for an empty schedule)."""
    if not schedule.num_sends:
        return 0
    return max(op.arrival(schedule.params) for op in schedule.sends)


def item_completion_times(
    schedule: Schedule, procs: set[int] | None = None
) -> dict[Item, int]:
    """Map item -> cycle by which *every* processor in ``procs`` holds it."""
    if procs is None:
        procs = schedule.processors()
    avail = availability(schedule)
    out: dict[Item, int] = {}
    for item in schedule.items():
        worst = 0
        for proc in procs:
            when = avail.get((proc, item))
            if when is None:
                raise ValueError(f"item {item!r} never reaches processor {proc}")
            worst = max(worst, when)
        out[item] = worst
    return out


def broadcast_delay_per_proc(schedule: Schedule, item: Item = 0) -> dict[int, int]:
    """For a single-item broadcast: map proc -> time it first holds ``item``."""
    avail = availability(schedule)
    return {
        proc: when for (proc, it), when in avail.items() if it == item
    }
