"""Objects oracles for the columnar schedule builders.

The original per-send loops of the broadcast tree emitter
(:func:`repro.core.single_item.schedule_from_tree`) and the all-to-all
builders (:mod:`repro.core.all_to_all`).  The production builders emit
the same sends as numpy batches; these loops are what they are
property-tested against (identical send lists, byte-identical JSON).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.all_to_all import _check_orders, interleaving_gap
from repro.core.tree import BroadcastTree
from repro.params import LogPParams
from repro.schedule.ops import Schedule

__all__ = [
    "schedule_from_tree",
    "all_to_all_schedule",
    "all_to_all_personalized_schedule",
    "k_item_all_to_all_schedule",
]


def schedule_from_tree(
    tree: BroadcastTree,
    item: object = 0,
    start_time: int = 0,
    proc_map: dict[int, int] | None = None,
) -> Schedule:
    """Expand a broadcast tree into an explicit schedule, one send at a time."""
    params = tree.params
    g = params.g
    proc = (lambda i: i) if proc_map is None else (lambda i: proc_map[i])
    schedule = Schedule(
        params=params,
        initial={proc(0): {item}},
        source_items={item: start_time},
    )
    for node in tree.nodes:
        for j, child in enumerate(node.children):
            schedule.add(
                time=start_time + node.delay + j * g,
                src=proc(node.index),
                dst=proc(child),
                item=item,
            )
    return schedule


def all_to_all_schedule(
    params: LogPParams, orders: Sequence[Sequence[int]] | None = None
) -> Schedule:
    """Optimal all-to-all broadcast: item ``("a2a", i)`` starts at proc ``i``."""
    P = params.P
    if P < 2:
        return Schedule(params=params, initial={0: {("a2a", 0)}})
    if orders is not None:
        _check_orders(P, orders)
    gp = interleaving_gap(params)
    initial = {i: {("a2a", i)} for i in range(P)}
    if orders is None:
        orders = [[(i + d) % P for d in range(1, P)] for i in range(P)]
    schedule = Schedule(params=params, initial=initial)
    for i in range(P):
        for slot, dst in enumerate(orders[i]):
            schedule.add(time=slot * gp, src=i, dst=dst, item=("a2a", i))
    return schedule


def all_to_all_personalized_schedule(params: LogPParams) -> Schedule:
    """All-to-all personalized communication: item ``("p2p", i, j)`` goes
    from ``i`` to ``j`` only.  Same timing as the broadcast schedule."""
    P = params.P
    initial = {
        i: {("p2p", i, j) for j in range(P) if j != i} for i in range(P)
    }
    gp = interleaving_gap(params)
    schedule = Schedule(params=params, initial=initial)
    for i in range(P):
        for slot in range(P - 1):
            dst = (i + 1 + slot) % P
            schedule.add(
                time=slot * gp, src=i, dst=dst, item=("p2p", i, dst)
            )
    return schedule


def k_item_all_to_all_schedule(params: LogPParams, k: int) -> Schedule:
    """``k`` repetitions of the cyclic schedule: optimal k-item all-to-all."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    P = params.P
    initial = {i: {("a2a", i, copy) for copy in range(k)} for i in range(P)}
    if P < 2:
        return Schedule(params=params, initial=initial)
    gp = interleaving_gap(params)
    schedule = Schedule(params=params, initial=initial)
    for copy in range(k):
        base = copy * (P - 1) * gp
        for i in range(P):
            for slot in range(P - 1):
                dst = (i + 1 + slot) % P
                schedule.add(
                    time=base + slot * gp,
                    src=i,
                    dst=dst,
                    item=("a2a", i, copy),
                )
    return schedule
