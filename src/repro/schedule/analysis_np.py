"""Vectorized (numpy) schedule analysis: the kernels behind every helper.

:mod:`repro.schedule.analysis` exposes these as its public helpers;
sweeping thousands of processors or long continuous windows (hundreds
of thousands of sends) wants vectorization, and the kernels win from a
few dozen sends up.  They return the same values as the scalar loops
kept with the test oracles (property-tested) but operate on column
arrays.

Columns live in :mod:`repro.schedule.columnar` and are cached *on the
schedule* (:meth:`repro.schedule.ops.Schedule.columns`), so repeated
queries — and the validator — share one conversion; array-backed
schedules never convert at all.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.schedule.columnar import ScheduleColumns
from repro.schedule.ops import Schedule

__all__ = [
    "ScheduleColumns",
    "columns",
    "availability_arrays",
    "availability_np",
    "item_completion_times_np",
    "broadcast_delay_np",
    "completion_time_np",
    "per_proc_first_arrival_np",
    "per_item_completion_np",
    "send_load_np",
    "in_transit_profile",
    "per_proc_egress_peak",
]

def columns(schedule: Schedule) -> ScheduleColumns:
    """The schedule's cached column view (see :meth:`Schedule.columns`)."""
    return schedule.columns()


def availability_arrays(
    schedule: Schedule, cols: ScheduleColumns | None = None
) -> tuple[np.ndarray, np.ndarray, dict[Hashable, int], int]:
    """Struct-of-arrays availability: the kernel behind the dict helpers.

    Returns ``(keys, times, item_ids, n_items)`` where ``keys`` is a sorted
    array of encoded ``proc * n_items + item_id`` keys, ``times[i]`` is the
    earliest cycle that (proc, item) pair holds the item, and ``item_ids``
    extends ``cols.item_ids`` with any items that appear only in the
    initial placement.  Consumers look up pairs with ``np.searchsorted``.
    """
    if cols is None:
        cols = columns(schedule)
    item_ids = dict(cols.item_ids)
    init_entries: list[tuple[int, int, int]] = []
    for proc, items in schedule.initial.items():
        for item in items:
            if item not in item_ids:
                item_ids[item] = len(item_ids)
            init_entries.append(
                (proc, item_ids[item], schedule.item_creation_time(item))
            )
    n_items = len(item_ids)
    if n_items == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, item_ids, 0
    init_arr = np.array(init_entries, dtype=np.int64).reshape(-1, 3)
    keys = np.concatenate(
        [init_arr[:, 0] * n_items + init_arr[:, 1], cols.dsts * n_items + cols.items]
    )
    vals = np.concatenate([init_arr[:, 2], cols.arrivals])
    order = np.argsort(keys, kind="stable")
    sk, sv = keys[order], vals[order]
    starts = np.flatnonzero(np.concatenate(([True], sk[1:] != sk[:-1])))
    return sk[starts], np.minimum.reduceat(sv, starts), item_ids, n_items


def _id_to_item(item_ids: dict[Hashable, int]) -> list[Hashable]:
    out: list[Hashable] = [None] * len(item_ids)
    for item, idx in item_ids.items():
        out[idx] = item
    return out


def availability_np(schedule: Schedule) -> dict[tuple[int, Hashable], int]:
    """Vectorized :func:`repro.schedule.analysis.availability` (same dict)."""
    keys, times, item_ids, n_items = availability_arrays(schedule)
    if n_items == 0:
        return {}
    rev = _id_to_item(item_ids)
    procs = (keys // n_items).tolist()
    iids = (keys % n_items).tolist()
    return {
        (proc, rev[iid]): when
        for proc, iid, when in zip(procs, iids, times.tolist())
    }


def item_completion_times_np(
    schedule: Schedule, procs: set[int] | None = None
) -> dict[Hashable, int]:
    """Vectorized :func:`repro.schedule.analysis.item_completion_times`."""
    if procs is None:
        procs = schedule.processors()
    keys, times, item_ids, n_items = availability_arrays(schedule)
    items = schedule.items()
    if not items:
        return {}
    if not procs:
        return {item: 0 for item in items}
    procs_arr = np.fromiter(sorted(procs), dtype=np.int64, count=len(procs))
    kp = keys // n_items
    ki = keys % n_items
    mask = np.isin(kp, procs_arr)
    kp, ki, kt = kp[mask], ki[mask], times[mask]
    counts = np.zeros(n_items, dtype=np.int64)
    np.add.at(counts, ki, 1)
    worst = np.zeros(n_items, dtype=np.int64)
    np.maximum.at(worst, ki, kt)
    out: dict[Hashable, int] = {}
    for item in items:
        iid = item_ids[item]
        if counts[iid] != len(procs):
            held = set(kp[ki == iid].tolist())
            missing = min(p for p in procs if p not in held)
            raise ValueError(f"item {item!r} never reaches processor {missing}")
        out[item] = int(worst[iid])
    return out


def broadcast_delay_np(schedule: Schedule, item: Hashable = 0) -> dict[int, int]:
    """Vectorized :func:`repro.schedule.analysis.broadcast_delay_per_proc`."""
    keys, times, item_ids, n_items = availability_arrays(schedule)
    iid = item_ids.get(item)
    if iid is None:
        return {}
    mask = (keys % n_items) == iid
    return {
        proc: when
        for proc, when in zip((keys[mask] // n_items).tolist(), times[mask].tolist())
    }


def completion_time_np(cols: ScheduleColumns) -> int:
    """Last arrival cycle (0 for an empty schedule)."""
    return int(cols.arrivals.max(initial=0))


def per_proc_first_arrival_np(cols: ScheduleColumns, item: Hashable = 0) -> np.ndarray:
    """First arrival of ``item`` at each processor (``-1`` = never).

    Vectorized equivalent of
    :func:`repro.schedule.analysis.broadcast_delay_per_proc` for the
    non-initial processors.
    """
    out = np.full(cols.num_procs, -1, dtype=np.int64)
    item_id = cols.item_ids.get(item)
    if item_id is None:
        return out
    mask = cols.items == item_id
    dsts = cols.dsts[mask]
    arrivals = cols.arrivals[mask]
    order = np.argsort(arrivals)[::-1]  # later arrivals first, overwritten
    out[dsts[order]] = arrivals[order]
    return out


def per_item_completion_np(cols: ScheduleColumns) -> np.ndarray:
    """Completion (max arrival) per dense item id."""
    n_items = len(cols.item_ids)
    out = np.zeros(n_items, dtype=np.int64)
    np.maximum.at(out, cols.items, cols.arrivals)
    return out


def send_load_np(cols: ScheduleColumns) -> np.ndarray:
    """Messages sent per processor (the communicator's load profile)."""
    out = np.zeros(cols.num_procs, dtype=np.int64)
    np.add.at(out, cols.srcs, 1)
    return out


def in_transit_profile(cols: ScheduleColumns, L: int, o: int = 0) -> np.ndarray:
    """Messages in flight at each cycle (network occupancy over time).

    A message occupies the network during ``[time + o, time + o + L)``.
    Returns an array indexed by cycle, length = horizon + 1.
    """
    if len(cols.times) == 0:
        return np.zeros(1, dtype=np.int64)
    starts = cols.times + o
    ends = starts + L
    horizon = int(ends.max())
    deltas = np.zeros(horizon + 2, dtype=np.int64)
    np.add.at(deltas, starts, 1)
    np.add.at(deltas, ends, -1)
    return np.cumsum(deltas)[: horizon + 1]


def per_proc_egress_peak(cols: ScheduleColumns, L: int, o: int = 0) -> np.ndarray:
    """Peak simultaneous in-flight messages *from* each processor.

    The LogP capacity constraint bounds this by ``ceil(L/g)``; the
    returned profile lets benchmarks confirm optimal schedules saturate
    it while baselines underuse the network.
    """
    peaks = np.zeros(cols.num_procs, dtype=np.int64)
    if len(cols.times) == 0:
        return peaks
    horizon = int((cols.times + o + L).max())
    for proc in np.unique(cols.srcs):
        mask = cols.srcs == proc
        starts = cols.times[mask] + o
        ends = starts + L
        deltas = np.zeros(horizon + 2, dtype=np.int64)
        np.add.at(deltas, starts, 1)
        np.add.at(deltas, ends, -1)
        peaks[proc] = int(np.cumsum(deltas).max())
    return peaks
