"""Schedule transformations: shift, remap, reverse, compose, restrict.

The public functions here are thin shims over the pass framework
(:mod:`repro.passes`): each builds the corresponding registered pass and
runs it on the vectorized columnar kernels.  The pure-Python oracles the
kernels are property-tested against (byte-identical canonical JSON) live
with the test oracles.

Algebraic properties (verified by replaying transformed schedules):

* :func:`shift` — translate all send times by a constant (legality is
  translation-invariant);
* :func:`remap` — rename processors by a bijection (legality is
  permutation-invariant);
* :func:`reverse` — time-reverse a schedule around its completion time,
  swapping senders and receivers.  Send gaps become receive gaps and
  vice versa, so legality is preserved; this is exactly the paper's
  broadcast-to-reduction correspondence (Section 4.2) and the
  summation correspondence (Section 5);
* :func:`concat` — run one schedule after another with a safety spacing
  of ``max(g, o)`` so boundary gaps hold;
* :func:`restrict` — keep only traffic within a processor subset
  (legality restricts; completeness of a collective generally does not —
  the caller asserts what survives).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.passes.library import (
    ConcatPass,
    RemapPass,
    RestrictPass,
    ReversePass,
    ShiftPass,
)
from repro.schedule.ops import Schedule

__all__ = ["shift", "remap", "reverse", "concat", "restrict"]

Item = Hashable


def shift(schedule: Schedule, offset: int) -> Schedule:
    """Translate every send (and source-item creation) by ``offset``.

    ``offset`` may be negative as long as no send *or item creation*
    would land before cycle 0 (raises ``ValueError`` at transform time).
    """
    return ShiftPass(offset).run(schedule)


def remap(schedule: Schedule, mapping: Mapping[int, int]) -> Schedule:
    """Rename processors; ``mapping`` must be injective on those used."""
    return RemapPass(mapping=mapping).run(schedule)


def reverse(
    schedule: Schedule, initial: dict[int, set[Item]] | None = None
) -> Schedule:
    """Time-reverse around the completion time, swapping directions.

    A message sent at ``s`` (received at ``s + L + 2o``) becomes one sent
    at ``C - (s + L + 2o)`` from the old receiver to the old sender,
    where ``C`` is the completion time.  Items are relabelled
    ``("rev", old_dst)`` — the partial-sum convention of the reduction
    correspondence; ``initial`` overrides the reversed schedule's initial
    placement (default: every processor holds the items it will send).
    The result's ``source_items`` record each reversed item's earliest
    send time, so causality re-validation stays meaningful.
    """
    return ReversePass(initial=initial).run(schedule)


def concat(first: Schedule, second: Schedule) -> Schedule:
    """Sequential composition: ``second`` starts after ``first`` finishes.

    The boundary spacing is ``max(g, o)`` cycles after the last arrival,
    which suffices for every per-processor gap/overhead constraint to
    hold across the seam.  Initial placements of ``second`` are assumed
    to be satisfied by ``first``'s effects (the caller's responsibility —
    items are merged into the combined initial set so causality checks
    pass only if that is true or items differ).  ``source_items`` keys
    present in both schedules with different creation times raise
    ``ValueError`` instead of being silently overwritten.
    """
    return ConcatPass(second).run(first)


def restrict(schedule: Schedule, procs: Iterable[int]) -> Schedule:
    """Keep only messages whose both endpoints lie in ``procs``."""
    return RestrictPass(procs).run(schedule)
