"""Shared per-run state for the lint rules.

Every rule consumes the same handful of derived arrays (the columnar
view, the availability table, the replay order, per-send availability
lookups).  :class:`LintContext` computes each of them lazily and exactly
once per engine run, so a ten-rule sweep over a million-send schedule
costs one availability sort, not ten.  Everything here is numpy over
:class:`~repro.schedule.columnar.ScheduleColumns` — no rule or helper
ever iterates ``schedule.sends`` (``repro check`` rule REPRO001
enforces this).

Workload detection (:func:`detect_workload`) classifies the *shape* of
the initial placement so the paper-specific rules (optimality gaps,
single-sending, Theorem 3.2 endgame) know which closed forms apply:

* ``broadcast`` — one processor holds one item (Section 2);
* ``kitem`` — one processor holds ``k > 1`` items (Section 3);
* ``scattered`` — every initial processor holds its own disjoint items
  (all-to-all, reductions, combining broadcasts; Sections 4-5);
* ``empty`` / ``unknown`` — nothing to say structurally.

Detection reads only the initial placement; rules that need to know
whether a scattered schedule is genuinely an all-to-all (every item
reaches every participant) ask :attr:`LintContext.holders_per_item`.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.params import LogPParams
from repro.schedule.analysis_np import availability_arrays
from repro.schedule.columnar import ScheduleColumns
from repro.schedule.ops import Schedule

__all__ = ["Workload", "detect_workload", "LintContext"]


class Workload:
    """Workload-shape constants (plain strings, so reports serialize)."""

    EMPTY = "empty"
    BROADCAST = "broadcast"
    KITEM = "kitem"
    SCATTERED = "scattered"
    UNKNOWN = "unknown"


def detect_workload(schedule: Schedule) -> str:
    """Classify the schedule's initial placement (see module docstring)."""
    placements = {
        proc: items for proc, items in schedule.initial.items() if items
    }
    if not placements and schedule.num_sends == 0:
        return Workload.EMPTY
    if len(placements) == 1:
        (items,) = placements.values()
        return Workload.BROADCAST if len(items) == 1 else Workload.KITEM
    if len(placements) > 1:
        seen: set[Hashable] = set()
        for items in placements.values():
            if seen & items:
                return Workload.UNKNOWN
            seen |= items
        return Workload.SCATTERED
    return Workload.UNKNOWN


class LintContext:
    """Lazily-computed arrays shared by every rule in one lint run."""

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        self.params: LogPParams = schedule.params
        self.cols: ScheduleColumns = schedule.columns()
        self.workload: str = detect_workload(schedule)
        self._avail: (
            tuple[np.ndarray, np.ndarray, dict[Hashable, int], int] | None
        ) = None
        self._send_avail: np.ndarray | None = None
        self._dst_first: np.ndarray | None = None
        self._replay_order: np.ndarray | None = None
        self._participants: np.ndarray | None = None
        self._initial_keys: np.ndarray | None = None
        self._holders: np.ndarray | None = None
        self._source_counts: np.ndarray | None = None

    # -- basic shape -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.cols)

    @property
    def start_time(self) -> int:
        """Earliest send start (the schedule's time origin for bounds).

        Note ``min(initial=0)`` would be wrong here: ``initial`` joins
        the reduction, which would pin the origin to 0 and break shift
        invariance for schedules starting later.
        """
        if len(self.cols) == 0:
            return 0
        return int(self.cols.times.min())

    @property
    def makespan(self) -> int:
        """Completion relative to :attr:`start_time` (shift-invariant)."""
        if len(self.cols) == 0:
            return 0
        return int(self.cols.arrivals.max()) - self.start_time

    @property
    def source(self) -> int | None:
        """The single initial processor for broadcast/kitem workloads."""
        if self.workload not in (Workload.BROADCAST, Workload.KITEM):
            return None
        return next(
            proc for proc, items in self.schedule.initial.items() if items
        )

    # -- availability ----------------------------------------------------

    @property
    def avail(self) -> tuple[np.ndarray, np.ndarray, dict[Hashable, int], int]:
        """``(keys, times, item_ids, n_items)`` availability table.

        ``keys`` is sorted ``proc * n_items + item_id``; ``times[i]`` is
        the earliest cycle that pair holds the item (initial placements
        and arrivals folded together).  See
        :func:`repro.schedule.analysis_np.availability_arrays`.
        """
        if self._avail is None:
            self._avail = availability_arrays(self.schedule, self.cols)
        return self._avail

    @property
    def n_items(self) -> int:
        """Distinct items across sends *and* initial placements."""
        return self.avail[3]

    def item_of(self, code: int) -> Hashable:
        """Decode an extended item id back to the item value."""
        _, _, item_ids, _ = self.avail
        table = self.cols.table.items
        if code < len(table):
            return table[code]
        for item, idx in item_ids.items():
            if idx == code:
                return item
        raise KeyError(code)

    def _lookup(self, pair_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First-availability time for encoded (proc, item) keys.

        Returns ``(found, times)``; ``times`` is meaningless where
        ``found`` is False (the pair never holds the item).
        """
        keys, times, _, _ = self.avail
        if len(keys) == 0:
            n = len(pair_keys)
            return np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)
        pos = np.searchsorted(keys, pair_keys)
        pos_c = np.minimum(pos, len(keys) - 1)
        found = keys[pos_c] == pair_keys
        return found, np.where(found, times[pos_c], 0)

    @property
    def src_keys(self) -> np.ndarray:
        return self.cols.srcs * self.n_items + self.cols.items

    @property
    def dst_keys(self) -> np.ndarray:
        return self.cols.dsts * self.n_items + self.cols.items

    @property
    def send_avail(self) -> tuple[np.ndarray, np.ndarray]:
        """Per send: (sender ever holds the item, first time it does)."""
        if self._send_avail is None:
            self._send_avail = self._lookup(self.src_keys)
        return self._send_avail

    @property
    def dst_first_avail(self) -> np.ndarray:
        """Per send: first cycle the *destination* holds the sent item.

        Always found — the send's own arrival is in the table.
        """
        if self._dst_first is None:
            _, self._dst_first = self._lookup(self.dst_keys)
        return self._dst_first

    @property
    def initial_keys(self) -> np.ndarray:
        """Sorted encoded (proc, item) pairs of the initial placement."""
        if self._initial_keys is None:
            _, _, item_ids, n_items = self.avail
            entries = [
                proc * n_items + item_ids[item]
                for proc, items in self.schedule.initial.items()
                for item in items
            ]
            self._initial_keys = np.array(sorted(entries), dtype=np.int64)
        return self._initial_keys

    # -- orders and aggregates -------------------------------------------

    @property
    def replay_order(self) -> np.ndarray:
        """Indices ordering sends by ``(time, src, dst)`` (stable)."""
        if self._replay_order is None:
            cols = self.cols
            self._replay_order = np.lexsort((cols.dsts, cols.srcs, cols.times))
        return self._replay_order

    @property
    def participants(self) -> np.ndarray:
        """Sorted processor ids that appear anywhere in the schedule.

        On a fault-masked machine the expected survivor set joins the
        union: a surviving leaf that an over-eager ``restrict`` removed
        from every send would otherwise vanish from the observed
        participants and slip past coverage lint (SCHED010).
        """
        if self._participants is None:
            procs = np.union1d(self.cols.srcs, self.cols.dsts)
            initial = np.fromiter(
                (p for p, items in self.schedule.initial.items() if items),
                dtype=np.int64,
            )
            participants = np.union1d(procs, initial)
            machine = self.schedule.machine
            if machine is not None:
                expected = machine.expected_participants()
                if expected is not None:
                    participants = np.union1d(participants, expected)
            self._participants = participants
        return self._participants

    @property
    def holders_per_item(self) -> np.ndarray:
        """Distinct processors that ever hold each item (by extended id)."""
        if self._holders is None:
            keys, _, _, n_items = self.avail
            self._holders = np.bincount(
                keys % n_items, minlength=n_items
            ).astype(np.int64)
        return self._holders

    @property
    def source_item_send_counts(self) -> np.ndarray:
        """How often the broadcast source transmits each item code.

        Indexed by the *column table's* dense item codes; only meaningful
        for broadcast/kitem workloads (empty array otherwise).
        """
        if self._source_counts is None:
            source = self.source
            if source is None:
                self._source_counts = np.zeros(0, dtype=np.int64)
            else:
                mask = self.cols.srcs == source
                self._source_counts = np.bincount(
                    self.cols.items[mask],
                    minlength=len(self.cols.table.items),
                ).astype(np.int64)
        return self._source_counts

    def describe_send(self, index: int) -> str:
        """``t=<time> <src>-><dst> item <item>`` for one storage index."""
        cols = self.cols
        item = cols.table.items[int(cols.items[index])]
        return (
            f"t={int(cols.times[index])} "
            f"{int(cols.srcs[index])}->{int(cols.dsts[index])} "
            f"item {item!r}"
        )
