"""Analysis of schedules: availability, completion times, per-item delays.

These helpers are *descriptive* — they compute when items become available
under the IR's timing convention without judging legality.  Legality
checking lives in :mod:`repro.sim.validate`.

Every helper runs on the vectorized kernels in
:mod:`repro.schedule.analysis_np` over the schedule's cached columns
(per-edge arrivals included, so hierarchical machines price
correctly); the scalar loops they are property-tested against live
with the test oracles.
"""

from __future__ import annotations

from typing import Hashable

from repro.schedule import analysis_np as _np_kernels
from repro.schedule.ops import Schedule

__all__ = [
    "availability",
    "completion_time",
    "item_completion_times",
    "item_delays",
    "max_delay",
    "broadcast_delay_per_proc",
]

Item = Hashable


def availability(schedule: Schedule) -> dict[tuple[int, Item], int]:
    """Map ``(proc, item) -> earliest cycle the item is available there``.

    Initial placements are available at time 0 (or at the item's creation
    time for source items); each send makes its item available at the
    destination at ``time + L + 2o``.  If an item reaches a processor more
    than once, the earliest arrival wins.
    """
    return _np_kernels.availability_np(schedule)


def completion_time(schedule: Schedule) -> int:
    """Cycle at which the last payload lands (0 for an empty schedule)."""
    if not schedule.num_sends:
        return 0
    return _np_kernels.completion_time_np(schedule.columns())


def item_completion_times(
    schedule: Schedule, procs: set[int] | None = None
) -> dict[Item, int]:
    """Map item -> cycle by which *every* processor in ``procs`` holds it.

    ``procs`` defaults to every processor mentioned by the schedule.
    Raises ``ValueError`` if some item never reaches some processor.
    """
    return _np_kernels.item_completion_times_np(schedule, procs)


def item_delays(schedule: Schedule, procs: set[int] | None = None) -> dict[Item, int]:
    """Map item -> its *delay*: completion time minus creation time.

    This is the figure of merit of the continuous broadcast problem
    (Section 3.1 of the paper).
    """
    completion = item_completion_times(schedule, procs)
    return {
        item: done - schedule.item_creation_time(item)
        for item, done in completion.items()
    }


def max_delay(schedule: Schedule, procs: set[int] | None = None) -> int:
    """The maximum per-item delay (the continuous-broadcast objective)."""
    delays = item_delays(schedule, procs)
    return max(delays.values()) if delays else 0


def broadcast_delay_per_proc(
    schedule: Schedule, item: Item = 0
) -> dict[int, int]:
    """For a single-item broadcast: map proc -> time it first holds ``item``."""
    return _np_kernels.broadcast_delay_np(schedule, item)
