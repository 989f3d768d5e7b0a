"""Vectorized (numpy) LogP legality checking — the validator fast path.

:func:`violations_np` runs every check of the LogP model over
struct-of-arrays send tables
(:class:`repro.schedule.analysis_np.ScheduleColumns`) instead of per-op
Python loops: causality, send gap, receive gap, overhead exclusivity and
per-endpoint capacity.  It produces the *same violation strings* as the
scalar reference walker kept with the test oracles (property-tested for
multiset equality); only violating ops are ever formatted in Python, so
legal schedules stay entirely in numpy.

:func:`repro.sim.validate.violations` is the public entry point and
always runs this engine; at the P=256 all-to-all scale (65,280 sends)
the speedup over the scalar walker is roughly 7-8x (see
``BENCH_PR1.json``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.machine.model import MachineModel

from repro.schedule.analysis_np import (
    ScheduleColumns,
    availability_arrays,
    columns,
)
from repro.schedule.implicit import DEFAULT_CHUNK_SENDS, ImplicitSchedule
from repro.schedule.ops import Schedule

__all__ = ["violations_np", "violations_np_implicit"]


def _causality(
    schedule: Schedule, cols: ScheduleColumns, problems: list[str]
) -> None:
    n = len(cols.times)
    avail_keys, avail_times, item_ids, n_items = availability_arrays(
        schedule, cols
    )
    # look up availability of (src, item) for every send
    send_keys = cols.srcs * n_items + cols.items
    pos = np.searchsorted(avail_keys, send_keys)
    pos_c = np.minimum(pos, len(avail_keys) - 1)
    found = (len(avail_keys) > 0) & (avail_keys[pos_c] == send_keys)
    have = np.where(found, avail_times[pos_c], 0)
    never = ~found
    early = found & (cols.times < have)
    selfsend = cols.srcs == cols.dsts
    if not (never.any() or early.any() or selfsend.any()):
        return
    # format in the scalar path's order: replay order (time, src, dst)
    # with positional tie-break, causality before self-send per op
    rev = [None] * n_items
    for item, idx in item_ids.items():
        rev[idx] = item
    order = np.lexsort((cols.dsts, cols.srcs, cols.times))
    flagged = order[(never | early | selfsend)[order]]
    for i in flagged.tolist():
        t, src, dst = int(cols.times[i]), int(cols.srcs[i]), int(cols.dsts[i])
        item = rev[int(cols.items[i])]
        if never[i]:
            problems.append(
                f"causality: proc {src} sends item {item!r} at t={t} "
                f"but never holds it"
            )
        elif early[i]:
            problems.append(
                f"causality: proc {src} sends item {item!r} at t={t} "
                f"but only holds it from t={int(have[i])}"
            )
        if selfsend[i]:
            problems.append(f"self-send: proc {src} at t={t}")


def _adjacent_gap(
    procs: np.ndarray,
    starts: np.ndarray,
    minor: np.ndarray,
    g: int,
    fmt: str,
    problems: list[str],
) -> None:
    """Report adjacent same-proc event pairs closer than ``g`` apart."""
    order = np.lexsort((minor, starts, procs))
    p, s = procs[order], starts[order]
    bad = (p[1:] == p[:-1]) & (s[1:] - s[:-1] < g)
    for i in np.flatnonzero(bad).tolist():
        problems.append(fmt.format(proc=int(p[i]), prev=int(s[i]), cur=int(s[i + 1])))


def _overhead(
    send_starts: np.ndarray,
    send_procs: np.ndarray,
    recv_starts: np.ndarray,
    recv_procs: np.ndarray,
    o: int,
    problems: list[str],
) -> None:
    # busy intervals: send overhead [t, t+o) at src, receive overhead
    # [t+o+L, t+o+L+o) at dst; all have length o, so sorted adjacency
    # suffices for overlap detection (as in the scalar path)
    starts = np.concatenate([send_starts, recv_starts])
    procs = np.concatenate([send_procs, recv_procs])
    # scalar sorts (start, end, label) tuples; "recv@..." < "send@..."
    kind = np.concatenate(
        [
            np.ones(len(send_starts), np.int64),
            np.zeros(len(recv_starts), np.int64),
        ]
    )
    order = np.lexsort((kind, starts, procs))
    p, s, k = procs[order], starts[order], kind[order]
    bad = (p[1:] == p[:-1]) & (s[1:] < s[:-1] + o)
    for i in np.flatnonzero(bad).tolist():
        what_a = f"send@{int(s[i])}" if k[i] else f"recv@{int(s[i])}"
        what_b = f"send@{int(s[i + 1])}" if k[i + 1] else f"recv@{int(s[i + 1])}"
        problems.append(
            f"overhead overlap: proc {int(p[i])} busy with {what_a} and {what_b}"
        )


def _capacity_peaks(procs: np.ndarray, t0: np.ndarray, t1: np.ndarray):
    """Per-proc peak of simultaneously open [t0, t1) intervals."""
    ev_proc = np.concatenate([procs, procs])
    ev_time = np.concatenate([t0, t1])
    ev_delta = np.concatenate(
        [np.ones(len(t0), np.int64), -np.ones(len(t1), np.int64)]
    )
    # -1 sorts before +1 at equal times, matching the scalar (t, delta) sort
    order = np.lexsort((ev_delta, ev_time, ev_proc))
    p, d = ev_proc[order], ev_delta[order]
    running = np.cumsum(d)
    starts = np.flatnonzero(np.concatenate(([True], p[1:] != p[:-1])))
    base = np.concatenate(([0], running[starts[1:] - 1]))
    counts = np.diff(np.concatenate((starts, [len(p)])))
    in_group = running - np.repeat(base, counts)
    return p[starts], np.maximum.reduceat(in_group, starts)


def _violations_machine(
    schedule: Schedule,
    cols: ScheduleColumns,
    machine: "MachineModel",
    check_capacity: bool = True,
) -> list[str]:
    """Per-level legality checks for non-flat machines (DESIGN S38).

    Each level of the machine is an *independent interface*: gap,
    overhead-exclusivity, and capacity constraints bind only among sends
    of the same level, each priced with that level's ``(L, o, g)`` — a
    node leader may drive its inter-node NIC and its intra-node bus in
    the same cycle.  Causality and self-send are global and consume the
    per-edge ``cols.arrivals``, and on a fault-masked machine any send
    touching a dead rank is illegal outright.
    """
    problems: list[str] = []
    _causality(schedule, cols, problems)

    alive = machine.alive_np()
    if len(alive) < machine.num_procs:
        for role, procs in (("sends", cols.srcs), ("receives", cols.dsts)):
            bad = ~np.isin(procs, alive)
            for i in np.flatnonzero(bad).tolist():
                problems.append(
                    f"dead rank: proc {int(procs[i])} {role} at "
                    f"t={int(cols.times[i])} but is masked out"
                )

    edge_levels = machine.edge_levels_np(cols.srcs, cols.dsts)
    for level, p in enumerate(machine.levels):
        mask = edge_levels == level
        if not mask.any():
            continue
        times = cols.times[mask]
        srcs = cols.srcs[mask]
        dsts = cols.dsts[mask]
        recv_starts = cols.arrivals[mask] - p.o

        _adjacent_gap(
            srcs,
            times,
            dsts,
            p.g,
            "send gap: proc {proc} sends at t={prev} and t={cur} "
            f"(< g={p.g} apart)",
            problems,
        )
        _adjacent_gap(
            dsts,
            recv_starts,
            srcs,
            p.g,
            "receive gap: proc {proc} receives at t={prev} and t={cur} "
            f"(< g={p.g} apart)",
            problems,
        )
        if p.o > 0:
            _overhead(times, srcs, recv_starts, dsts, p.o, problems)
        if check_capacity:
            cap = p.capacity
            t0 = times + p.o
            t1 = t0 + p.L
            for direction, endpoint in (("from", srcs), ("to", dsts)):
                procs, peaks = _capacity_peaks(endpoint, t0, t1)
                for proc in procs[peaks > cap].tolist():
                    problems.append(
                        f"capacity: > {cap} messages in transit "
                        f"{direction} proc {proc}"
                    )
    return problems


def violations_np(schedule: Schedule, check_capacity: bool = True) -> list[str]:
    """Vectorized equivalent of :func:`repro.sim.validate.violations`.

    Returns the same violation strings as the scalar checker (the order of
    unrelated violations may differ); empty list means the schedule is a
    legal LogP execution.
    """
    params = schedule.params
    problems: list[str] = []
    cols = columns(schedule)
    if len(cols.times) == 0:
        return problems

    machine = schedule.machine
    if machine is not None and not machine.is_flat:
        return _violations_machine(
            schedule, cols, machine, check_capacity=check_capacity
        )

    _causality(schedule, cols, problems)

    _adjacent_gap(
        cols.srcs,
        cols.times,
        cols.dsts,
        params.g,
        "send gap: proc {proc} sends at t={prev} and t={cur} "
        f"(< g={params.g} apart)",
        problems,
    )

    recv_starts = cols.arrivals - params.o
    _adjacent_gap(
        cols.dsts,
        recv_starts,
        cols.srcs,
        params.g,
        "receive gap: proc {proc} receives at t={prev} and t={cur} "
        f"(< g={params.g} apart)",
        problems,
    )

    if params.o > 0:
        _overhead(cols.times, cols.srcs, recv_starts, cols.dsts, params.o, problems)

    if check_capacity:
        cap = params.capacity
        t0 = cols.times + params.o
        t1 = t0 + params.L
        for direction, endpoint in (("from", cols.srcs), ("to", cols.dsts)):
            procs, peaks = _capacity_peaks(endpoint, t0, t1)
            for proc in procs[peaks > cap].tolist():
                problems.append(
                    f"capacity: > {cap} messages in transit "
                    f"{direction} proc {proc}"
                )

    return problems


def violations_np_implicit(
    implicit: ImplicitSchedule, max_sends: int = DEFAULT_CHUNK_SENDS
) -> list[str]:
    """Chunk-streamed legality checks for an implicit plan.

    Runs, in memory bounded by ``max_sends`` and never by ``P``:

    * **causality** (exact): each edge's send time against the sender's
      closed-form hold time (``ChunkFacts.send_avail``), plus self-sends
      — same strings as :func:`violations_np`;
    * **send gap / receive gap** (chunk-local): adjacency within each
      streamed block.  Every report is a genuine violation (two
      same-endpoint events < ``g`` apart stay < ``g`` apart globally),
      but a pair split across a chunk boundary is not seen — this check
      is *sound, not complete*.

    Overhead exclusivity and capacity need globally sorted busy
    intervals, so they are whole-schedule only: run
    ``violations_np(implicit.materialize())`` when full fidelity
    matters (the property suite does, at small P).
    """
    params = implicit.params
    problems: list[str] = []
    if max_sends < 1:
        raise ValueError(f"max_sends must be >= 1, got {max_sends}")
    for lo in range(0, implicit.num_sends, max_sends):
        hi = min(lo + max_sends, implicit.num_sends)
        facts = implicit.chunk_with_facts(lo, hi)
        cols = facts.cols
        early = cols.times < facts.send_avail
        selfsend = cols.srcs == cols.dsts
        if early.any() or selfsend.any():
            order = np.lexsort((cols.dsts, cols.srcs, cols.times))
            flagged = order[(early | selfsend)[order]]
            for i in flagged.tolist():
                t, src = int(cols.times[i]), int(cols.srcs[i])
                item = cols.table.items[int(cols.items[i])]
                if early[i]:
                    problems.append(
                        f"causality: proc {src} sends item {item!r} at t={t} "
                        f"but only holds it from t={int(facts.send_avail[i])}"
                    )
                if selfsend[i]:
                    problems.append(f"self-send: proc {src} at t={t}")
        _adjacent_gap(
            cols.srcs,
            cols.times,
            cols.dsts,
            params.g,
            "send gap: proc {proc} sends at t={prev} and t={cur} "
            f"(< g={params.g} apart)",
            problems,
        )
        _adjacent_gap(
            cols.dsts,
            cols.arrivals - params.o,
            cols.srcs,
            params.g,
            "receive gap: proc {proc} receives at t={prev} and t={cur} "
            f"(< g={params.g} apart)",
            problems,
        )
    return problems
