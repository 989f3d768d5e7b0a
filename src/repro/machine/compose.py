"""Two-level composed collectives for hierarchical machines.

Promotes the composition that ``examples/hierarchical_broadcast.py``
sketched — broadcast among node leaders on the slow inter-node fabric,
then fan out inside each node on the fast intra-node one — into library
builders the registry can plan with (``hier-bcast`` / ``hier-reduce``).

Two layers live here:

* :func:`hier_broadcast_schedule` / :func:`hier_reduction_schedule` —
  fully columnar builders over a :class:`HierarchicalMachine`.  Both
  phases come from the paper's optimal constructions (Theorem 2.1 trees
  on each fabric); the intra-node phase is one tiled template, so the
  build never materializes a ``SendOp`` and stays O(level schedules),
  not O(ranks x ranks).
* :func:`two_level_broadcast_plan` — the leader phase planned through
  :func:`repro.registry.plan` and relabelled onto the leaders' global
  ranks, returned with the composed schedule, the per-phase cycle
  counts and the topology-oblivious flat baseline it beats.

Legality of the composition (per-level semantics, DESIGN S38): the
leader phase is the inter-node optimal broadcast with ranks relabelled
injectively (level-0 legal); each node's fan-out is the intra-node
optimal broadcast shifted to start exactly when its leader is informed,
on rank sets disjoint across nodes (level-1 legal); and a leader driving
its NIC and its local bus concurrently is precisely the multi-interface
concurrency the per-level validator licenses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fib import broadcast_time
from repro.core.single_item import schedule_from_tree
from repro.core.tree import optimal_tree
from repro.machine.model import HierarchicalMachine, MachineModel
from repro.schedule.columnar import ItemTable
from repro.schedule.ops import Schedule

__all__ = [
    "hier_broadcast_schedule",
    "hier_reduction_schedule",
    "TwoLevelBroadcast",
    "two_level_broadcast_plan",
]

_EMPTY = np.empty(0, dtype=np.int64)


def _require_hier(machine: MachineModel) -> HierarchicalMachine:
    if not isinstance(machine, HierarchicalMachine):
        raise ValueError(
            f"hierarchical builders need a HierarchicalMachine, got "
            f"{type(machine).__name__}"
        )
    return machine


def hier_broadcast_schedule(machine: MachineModel, item: object = 0) -> Schedule:
    """Two-level broadcast of one item from global rank 0.

    Phase 0 broadcasts among the node leaders with the optimal inter-node
    tree; phase 1 tiles the optimal intra-node tree inside every node,
    each tile starting the cycle its leader first holds the item.  Every
    rank is informed exactly once, so the plan lints warning-free.
    """
    m = _require_hier(machine)
    nodes, cores = m.nodes, m.cores

    if nodes > 1:
        inter = schedule_from_tree(optimal_tree(m.inter)).columns()
        inter_times = inter.times
        inter_srcs = inter.srcs * cores
        inter_dsts = inter.dsts * cores
        # the broadcast tree informs each node exactly once, so a plain
        # scatter of arrivals is the leaders' availability table
        avail = np.zeros(nodes, dtype=np.int64)
        avail[inter.dsts] = inter.arrivals
    else:
        inter_times = inter_srcs = inter_dsts = _EMPTY
        avail = np.zeros(1, dtype=np.int64)

    if cores > 1:
        tile = schedule_from_tree(optimal_tree(m.intra)).columns()
        T = len(tile)
        offsets = np.arange(nodes, dtype=np.int64) * cores
        intra_times = np.repeat(avail, T) + np.tile(tile.times, nodes)
        intra_srcs = np.tile(tile.srcs, nodes) + np.repeat(offsets, T)
        intra_dsts = np.tile(tile.dsts, nodes) + np.repeat(offsets, T)
    else:
        intra_times = intra_srcs = intra_dsts = _EMPTY

    return Schedule.from_arrays(
        m.flat_params,
        np.concatenate([inter_times, intra_times]),
        np.concatenate([inter_srcs, intra_srcs]),
        np.concatenate([inter_dsts, intra_dsts]),
        item_table=ItemTable([item]),
        initial={0: {item}},
        machine=m,
    )


def hier_reduction_schedule(machine: MachineModel) -> Schedule:
    """Two-level all-to-one reduction: the hier broadcast time-reversed.

    Per-edge arrivals make the reversal machine-aware for free: a send at
    ``t`` with level cost ``c`` becomes a send at ``completion - t - c``
    in the opposite direction, and the (src, dst) swap preserves each
    edge's level, so every per-level spacing argument mirrors.  Items
    follow the flat reduction's ``("red", proc)`` convention.
    """
    m = _require_hier(machine)
    from repro.passes.kernels import reverse_columns

    bcast = hier_broadcast_schedule(m)
    initial = {p: {("red", p)} for p in range(m.num_procs)}
    if len(bcast.columns()) == 0:
        return Schedule(params=m.flat_params, initial=initial, machine=m)
    return reverse_columns(bcast, tag="red", initial=initial)


@dataclass(frozen=True)
class TwoLevelBroadcast:
    """A composed two-level broadcast plan plus its cost decomposition."""

    machine: HierarchicalMachine
    #: The composed global schedule (machine-priced, array-backed).
    schedule: Schedule
    #: The leader phase lifted onto global ranks (flat-envelope params).
    leader_schedule: Schedule
    inter_cycles: int
    intra_cycles: int
    total_cycles: int
    #: The topology-oblivious optimal broadcast on the flat envelope.
    flat_cycles: int

    @property
    def speedup(self) -> float:
        """How much topology awareness buys over the oblivious plan."""
        if self.total_cycles == 0:
            return 1.0
        return self.flat_cycles / self.total_cycles


def two_level_broadcast_plan(machine: MachineModel) -> TwoLevelBroadcast:
    """The leader-plan + fan-out composition, as library code.

    Plans the inter-node phase with :func:`repro.registry.plan` over
    the leaders, relabels it onto their global ranks with
    :func:`~repro.schedule.transform.remap` (re-tagged with the flat
    envelope's parameters), and pairs it with the composed columnar
    schedule and the flat baseline.
    """
    m = _require_hier(machine)
    # the registry sits above this module in the layering; import lazily
    # so the machine package stays importable from the core builders
    from repro import registry
    from repro.schedule.analysis import completion_time
    from repro.schedule.transform import remap
    from repro.sim.machine import replay

    inter = registry.plan("broadcast", m.inter)
    assert isinstance(inter, Schedule)
    lifted = remap(inter, {i: m.leader(i) for i in range(m.nodes)})
    leader_schedule = Schedule(
        params=m.flat_params,
        sends=lifted.sends,
        initial=lifted.initial,
        source_items=lifted.source_items,
    )
    replay(leader_schedule)
    schedule = hier_broadcast_schedule(m)
    inter_cycles = broadcast_time(m.nodes, m.inter)
    intra_cycles = broadcast_time(m.cores, m.intra)
    return TwoLevelBroadcast(
        machine=m,
        schedule=schedule,
        leader_schedule=leader_schedule,
        inter_cycles=inter_cycles,
        intra_cycles=intra_cycles,
        total_cycles=completion_time(schedule),
        flat_cycles=broadcast_time(m.num_procs, m.flat_params),
    )
