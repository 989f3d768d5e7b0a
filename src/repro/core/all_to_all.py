"""All-to-all broadcast and personalized communication (Section 4.1).

Each of ``P`` processors holds a data item that must reach every other
processor.  Since a processor must receive ``P - 1`` items, the first
arriving no earlier than ``L + 2o``, the time is at least
``L + 2o + (P - 2) g``.  The paper's matching schedule: processor ``i``
sends its item to ``i+1, i+2, ..., i+P-1 (mod P)`` at times
``0, g, ..., (P-2) g`` — every processor then receives exactly one
message every ``g`` cycles starting at ``L + 2o``.

The same schedule is optimal for all-to-all *personalized* communication
(distinct item per (source, destination) pair) and, repeated ``k`` times,
for the k-item variant with lower bound ``L + 2o + (k(P-1) - 1) g``.
Any per-processor permutations such that no processor is the target of
two messages at the same time work equally well;
:func:`all_to_all_schedule` accepts an optional list of permutations and
validates the no-collision property.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.params import LogPParams
from repro.schedule.columnar import ItemTable
from repro.schedule.ops import Schedule

__all__ = [
    "all_to_all_lower_bound",
    "all_to_all_time",
    "interleaving_gap",
    "is_tight",
    "all_to_all_schedule",
    "all_to_all_personalized_schedule",
    "k_item_all_to_all_lower_bound",
    "k_item_all_to_all_schedule",
]


def all_to_all_lower_bound(params: LogPParams) -> int:
    """``L + 2o + (P-2) g``: minimum time for P-way all-to-all broadcast."""
    if params.P < 2:
        return 0
    return params.send_cost + (params.P - 2) * params.g


def interleaving_gap(params: LogPParams) -> int:
    """The send spacing the cyclic schedule actually uses.

    With ``o = 0`` (the paper's analysis setting) the spacing is ``g`` and
    the lower bound is met exactly.  With ``o > 0`` the strict synchronous
    model additionally requires each processor's send overheads and its
    incoming receive overheads to interleave: spacing ``g'`` works iff
    ``o <= (o + L) mod g' <= g' - o``.  We return the smallest feasible
    ``g' >= g`` (equal to ``g`` whenever the machine's parameters already
    interleave).
    """
    if params.o == 0:
        return params.g
    gp = max(params.g, 2 * params.o)
    while True:
        phase = (params.o + params.L) % gp
        if params.o <= phase <= gp - params.o:
            return gp
        gp += 1


def is_tight(params: LogPParams) -> bool:
    """True iff the cyclic schedule meets the lower bound exactly."""
    return interleaving_gap(params) == params.g


def all_to_all_time(params: LogPParams) -> int:
    """Completion time of the cyclic schedule (== lower bound when tight)."""
    if params.P < 2:
        return 0
    return params.send_cost + (params.P - 2) * interleaving_gap(params)


def k_item_all_to_all_lower_bound(params: LogPParams, k: int) -> int:
    """``L + 2o + (k(P-1) - 1) g`` for ``k`` items per processor."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if params.P < 2:
        return 0
    return params.send_cost + (k * (params.P - 1) - 1) * params.g


def _check_orders(P: int, orders: Sequence[Sequence[int]]) -> None:
    if len(orders) != P:
        raise ValueError(f"need one permutation per processor, got {len(orders)}")
    for i, order in enumerate(orders):
        expected = set(range(P)) - {i}
        if set(order) != expected or len(order) != P - 1:
            raise ValueError(
                f"processor {i}'s order must be a permutation of the other "
                f"{P - 1} processors"
            )
    for slot in range(P - 1):
        targets = [order[slot] for order in orders]
        if len(set(targets)) != P:
            raise ValueError(
                f"two processors target the same destination in round {slot}"
            )


def _cyclic_grid(P: int, gp: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(srcs, slots, times)`` for one round of the cyclic schedule.

    Send order is source-major, then slot.
    """
    srcs = np.repeat(np.arange(P, dtype=np.int64), P - 1)
    slots = np.tile(np.arange(P - 1, dtype=np.int64), P)
    return srcs, slots, slots * gp


def all_to_all_schedule(
    params: LogPParams,
    orders: Sequence[Sequence[int]] | None = None,
) -> Schedule:
    """Optimal all-to-all broadcast: item ``("a2a", i)`` starts at proc ``i``.

    ``orders[i]`` is the destination sequence of processor ``i``; the
    default is the paper's cyclic ``i+1, ..., i+P-1 (mod P)``.  Custom
    orders are validated for the round-collision-freedom criterion the
    paper states.  The array-backed schedule is built with numpy
    broadcasting — no per-send Python loop.
    """
    P = params.P
    if P < 2:
        return Schedule(params=params, initial={0: {("a2a", 0)}})
    if orders is not None:
        _check_orders(P, orders)
    gp = interleaving_gap(params)
    initial = {i: {("a2a", i)} for i in range(P)}
    srcs, slots, times = _cyclic_grid(P, gp)
    if orders is None:
        dsts = (srcs + 1 + slots) % P
    else:
        dsts = np.asarray(orders, dtype=np.int64).reshape(-1)
    return Schedule.from_arrays(
        params,
        times,
        srcs,
        dsts,
        item_codes=srcs,
        item_table=ItemTable(("a2a", i) for i in range(P)),
        initial=initial,
    )


def all_to_all_personalized_schedule(params: LogPParams) -> Schedule:
    """All-to-all personalized communication: item ``("p2p", i, j)`` goes
    from ``i`` to ``j`` only.  Same timing as the broadcast schedule."""
    P = params.P
    initial = {
        i: {("p2p", i, j) for j in range(P) if j != i} for i in range(P)
    }
    gp = interleaving_gap(params)
    if P < 2:
        return Schedule(params=params, initial=initial or {0: set()})
    srcs, slots, times = _cyclic_grid(P, gp)
    dsts = (srcs + 1 + slots) % P
    # every send carries a distinct item, in storage order
    table = ItemTable(
        ("p2p", i, j) for i, j in zip(srcs.tolist(), dsts.tolist())
    )
    return Schedule.from_arrays(
        params,
        times,
        srcs,
        dsts,
        item_codes=np.arange(len(times), dtype=np.int64),
        item_table=table,
        initial=initial,
    )


def k_item_all_to_all_schedule(params: LogPParams, k: int) -> Schedule:
    """``k`` repetitions of the cyclic schedule: optimal k-item all-to-all."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    P = params.P
    initial = {i: {("a2a", i, copy) for copy in range(k)} for i in range(P)}
    if P < 2:
        return Schedule(params=params, initial=initial)
    gp = interleaving_gap(params)
    round_sends = P * (P - 1)
    copies = np.repeat(np.arange(k, dtype=np.int64), round_sends)
    srcs1, slots1, times1 = _cyclic_grid(P, gp)
    srcs = np.tile(srcs1, k)
    slots = np.tile(slots1, k)
    times = copies * ((P - 1) * gp) + np.tile(times1, k)
    dsts = (srcs + 1 + slots) % P
    # interning order (first occurrence: copy-major, then source) gives
    # item ("a2a", i, copy) the code copy * P + i
    table = ItemTable(
        ("a2a", i, copy) for copy in range(k) for i in range(P)
    )
    return Schedule.from_arrays(
        params,
        times,
        srcs,
        dsts,
        item_codes=copies * P + srcs,
        item_table=table,
        initial=initial,
    )
