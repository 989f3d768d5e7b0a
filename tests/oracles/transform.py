"""Objects oracles for the schedule passes (:mod:`repro.passes`).

Pure-Python reference implementations of every built-in pass except
``heal`` (columnar-only; its legality is re-verified by the pass
manager instead).  The columnar kernels in :mod:`repro.passes.kernels`
are property-tested byte-identical (canonical JSON) against these.
:func:`run_objects` runs a constructed pass instance through its oracle.
"""

from __future__ import annotations

import bisect
from typing import Callable, Hashable, Iterable, Mapping

from repro.passes.base import SchedulePass
from repro.passes.kernels import SHIFT_BEFORE_ZERO, merge_source_items
from repro.passes.library import (
    ConcatPass,
    RemapPass,
    RestrictPass,
    ReversePass,
    ShiftPass,
)
from repro.schedule.ops import Schedule, SendOp

from tests.oracles.analysis import availability

__all__ = [
    "shift_objects",
    "remap_objects",
    "reverse_objects",
    "concat_objects",
    "restrict_objects",
    "canonicalize_objects",
    "prune_dead_sends_objects",
    "compact_time_objects",
    "run_objects",
]

Item = Hashable


def shift_objects(schedule: Schedule, offset: int) -> Schedule:
    """Objects oracle for :func:`shift`."""
    floor = list(schedule.source_items.values())
    if schedule.sends:
        floor.append(min(op.time for op in schedule.sends))
    if floor and min(floor) + offset < 0:
        raise ValueError(SHIFT_BEFORE_ZERO)
    return Schedule(
        params=schedule.params,
        sends=[
            SendOp(time=op.time + offset, src=op.src, dst=op.dst, item=op.item)
            for op in schedule.sends
        ],
        initial={p: set(items) for p, items in schedule.initial.items()},
        source_items={
            item: when + offset for item, when in schedule.source_items.items()
        },
        machine=schedule.machine,
    )


def remap_objects(schedule: Schedule, mapping: Mapping[int, int]) -> Schedule:
    """Objects oracle for :func:`remap`."""
    used = schedule.processors()
    image = {mapping.get(p, p) for p in used}
    if len(image) != len(used):
        raise ValueError("processor mapping is not injective on used processors")

    def m(p: int) -> int:
        return mapping.get(p, p)

    return Schedule(
        params=schedule.params,
        sends=[
            SendOp(time=op.time, src=m(op.src), dst=m(op.dst), item=op.item)
            for op in schedule.sends
        ],
        initial={m(p): set(items) for p, items in schedule.initial.items()},
        source_items=dict(schedule.source_items),
        machine=schedule.machine,
    )


def reverse_objects(
    schedule: Schedule,
    tag: str = "rev",
    initial: dict[int, set[Item]] | None = None,
    item_of: Callable[[SendOp], Item] | None = None,
) -> Schedule:
    """Objects oracle for :func:`reverse` (see shim docstring)."""
    params = schedule.params
    if not schedule.sends:
        return Schedule(
            params=params,
            initial=initial or dict(schedule.initial),
            machine=schedule.machine,
        )
    completion = max(op.arrival(params) for op in schedule.sends)

    def default_item(op: SendOp) -> Item:
        return (tag, op.dst)

    label = item_of or default_item
    sends = [
        SendOp(
            time=completion - op.arrival(params),
            src=op.dst,
            dst=op.src,
            item=label(op),
        )
        for op in schedule.sends
    ]
    source_items: dict[Item, int] = {}
    for op in sends:
        known = source_items.get(op.item)
        if known is None or op.time < known:
            source_items[op.item] = op.time
    if initial is None:
        initial = {}
        for op in sends:
            initial.setdefault(op.src, set()).add(op.item)
    return Schedule(
        params=params,
        sends=sorted(sends),
        initial=initial,
        source_items=source_items,
        machine=schedule.machine,
    )


def concat_objects(first: Schedule, second: Schedule) -> Schedule:
    """Objects oracle for :func:`concat`."""
    if first.params != second.params:
        raise ValueError("cannot concatenate schedules for different machines")
    if first.machine != second.machine:
        raise ValueError("cannot concatenate schedules for different machines")
    params = first.params
    finish = max((op.arrival(params) for op in first.sends), default=0)
    # params guarantee g >= 1, so max(g, o) is the documented spacing and
    # is already positive — the old `max(g, o, 1)` floor was dead code.
    moved = shift_objects(second, finish + max(params.g, params.o))
    initial = {p: set(items) for p, items in first.initial.items()}
    for p, items in moved.initial.items():
        initial.setdefault(p, set()).update(items)
    return Schedule(
        params=params,
        sends=sorted(first.sends + moved.sends),
        initial=initial,
        source_items=merge_source_items(first.source_items, moved.source_items),
        machine=first.machine,
    )


def restrict_objects(schedule: Schedule, procs: Iterable[int]) -> Schedule:
    """Objects oracle for :func:`restrict`."""
    keep = set(procs)
    return Schedule(
        params=schedule.params,
        sends=[
            op for op in schedule.sends if op.src in keep and op.dst in keep
        ],
        initial={
            p: set(items) for p, items in schedule.initial.items() if p in keep
        },
        source_items=merge_source_items(schedule.source_items, {}),
        machine=schedule.machine,
    )


def canonicalize_objects(schedule: Schedule) -> tuple[Schedule, int]:
    """Objects oracle for the ``canonicalize`` pass.

    Returns ``(canonical schedule, item-table entries dropped)``; on the
    objects path the drop count still reports how many entries of the
    *input's* interning table no send references.
    """
    sends = sorted(
        schedule.sends, key=lambda op: (op.time, op.src, op.dst)
    )
    referenced = {op.item for op in sends}
    dropped = len(schedule.columns().table) - len(referenced)
    return (
        Schedule(
            params=schedule.params,
            sends=sends,
            initial={p: set(items) for p, items in schedule.initial.items()},
            source_items=dict(schedule.source_items),
            machine=schedule.machine,
        ),
        dropped,
    )


def prune_dead_sends_objects(schedule: Schedule) -> tuple[Schedule, int]:
    """Objects oracle for the ``prune-dead-sends`` pass."""
    avail = availability(schedule)
    kept = [
        op for op in schedule.sends if avail[(op.dst, op.item)] > op.time
    ]
    removed = len(schedule.sends) - len(kept)
    return (
        Schedule(
            params=schedule.params,
            sends=kept,
            initial={p: set(items) for p, items in schedule.initial.items()},
            source_items=dict(schedule.source_items),
            machine=schedule.machine,
        ),
        removed,
    )


def compact_time_objects(schedule: Schedule) -> tuple[Schedule, int]:
    """Objects oracle for the ``compact-time`` pass.

    Mirrors :func:`repro.passes.kernels.compact_time_columns`: every send
    reserves ``[t, t + L + 2o + g]``, creation times reserve their own
    cycle, and uncovered cycles are deleted from the timeline.
    """
    params = schedule.params
    reserve = params.L + 2 * params.o + params.g
    deltas: dict[int, int] = {}
    for op in schedule.sends:
        deltas[op.time] = deltas.get(op.time, 0) + 1
        end = op.time + reserve + 1
        deltas[end] = deltas.get(end, 0) - 1
    for when in schedule.source_items.values():
        deltas[when] = deltas.get(when, 0) + 1
        deltas[when + 1] = deltas.get(when + 1, 0) - 1
    copy_initial = {p: set(items) for p, items in schedule.initial.items()}
    if not deltas:
        return (
            Schedule(
                params=params,
                sends=list(schedule.sends),
                initial=copy_initial,
                source_items={},
                machine=schedule.machine,
            ),
            0,
        )
    coords = sorted(deltas)
    gap_ends: list[int] = []
    removed_cum = [0]
    coverage = 0
    for left, right in zip(coords, coords[1:]):
        coverage += deltas[left]
        if coverage == 0:
            gap_ends.append(right)
            removed_cum.append(removed_cum[-1] + (right - left))

    def compacted(when: int) -> int:
        return when - removed_cum[bisect.bisect_right(gap_ends, when)]

    return (
        Schedule(
            params=params,
            sends=[
                SendOp(
                    time=compacted(op.time),
                    src=op.src,
                    dst=op.dst,
                    item=op.item,
                )
                for op in schedule.sends
            ],
            initial=copy_initial,
            source_items={
                item: compacted(when)
                for item, when in schedule.source_items.items()
            },
            machine=schedule.machine,
        ),
        removed_cum[-1],
    )


def run_objects(p: SchedulePass, schedule: Schedule) -> Schedule:
    """Apply pass instance ``p`` to ``schedule`` through its oracle."""
    if isinstance(p, ShiftPass):
        return shift_objects(schedule, p.offset)
    if isinstance(p, RemapPass):
        return remap_objects(schedule, p._mapping_for(schedule))
    if isinstance(p, ReversePass):
        return reverse_objects(schedule, tag=p.tag, initial=p.initial)
    if isinstance(p, ConcatPass):
        return concat_objects(schedule, p.second)
    if isinstance(p, RestrictPass):
        return restrict_objects(schedule, p.procs)
    normalizers: dict[str, Callable[[Schedule], tuple[Schedule, int]]] = {
        "canonicalize": canonicalize_objects,
        "prune-dead-sends": prune_dead_sends_objects,
        "compact-time": compact_time_objects,
    }
    if p.name not in normalizers:
        raise ValueError(f"pass {p.name!r} has no objects oracle")
    return normalizers[p.name](schedule)[0]
