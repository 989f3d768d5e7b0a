"""Storage-mode equivalence (property-based).

An array-backed :class:`~repro.schedule.ops.Schedule` built via
``Schedule.from_arrays`` must be observationally identical to an
object-backed twin holding the same sends: *byte-identical* violation
strings (in the same order, not merely the same multiset) from both the
scalar and the vectorized validator, identical JSON serialization, and
identical serialize round-trips — on legal and hostile schedules alike.

The array twin's :class:`ItemTable` is interned in a *shuffled* order,
so its integer item codes differ from the natural encounter order.  Any
output that leaked the internal codes (instead of the decoded items)
would fail these properties.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.all_to_all import (
    all_to_all_personalized_schedule,
    all_to_all_schedule,
    k_item_all_to_all_schedule,
)
from repro.params import LogPParams, postal
from repro.schedule.columnar import ItemTable
from repro.schedule.ops import Schedule
from repro.schedule.serialize import schedule_from_json, schedule_to_json
from repro.sim.validate_np import violations_np

from tests.oracles import builders as oracle_builders
from tests.oracles.validate import violations as scalar_violations

# deliberately unorderable mix: int < tuple raises TypeError, so any
# code path that sorts raw items (rather than (time, src, dst) keys or
# interned codes) blows up on these schedules
_ITEM_POOL = [0, 1, ("blk", 0), ("blk", 1, 2)]


@st.composite
def _twin_schedules(draw):
    """A fuzzed (mostly illegal) schedule as (object-backed, array-backed)."""
    g = draw(st.integers(1, 4))
    params = LogPParams(
        P=draw(st.integers(2, 7)),
        L=draw(st.integers(1, 6)),
        o=draw(st.integers(0, min(3, g))),
        g=g,
    )
    initial: dict[int, set] = {}
    for item in _ITEM_POOL:
        if draw(st.booleans()):
            initial.setdefault(draw(st.integers(0, params.P - 1)), set()).add(item)
    initial = initial or {0: {_ITEM_POOL[0]}}

    n_sends = draw(st.integers(0, 12))
    rows = [
        (
            draw(st.integers(0, 15)),
            draw(st.integers(0, params.P - 1)),
            draw(st.integers(0, params.P - 1)),
            draw(st.integers(0, len(_ITEM_POOL) - 1)),
        )
        for _ in range(n_sends)
    ]

    obj = Schedule(params=params, initial={p: set(s) for p, s in initial.items()})
    for t, src, dst, idx in rows:
        obj.add(time=t, src=src, dst=dst, item=_ITEM_POOL[idx])

    # intern the pool in a drawn permutation so the array twin's codes
    # differ from the object twin's encounter order
    perm = draw(st.permutations(range(len(_ITEM_POOL))))
    table = ItemTable(_ITEM_POOL[i] for i in perm)
    arr = Schedule.from_arrays(
        params,
        np.array([r[0] for r in rows], dtype=np.int64),
        np.array([r[1] for r in rows], dtype=np.int64),
        np.array([r[2] for r in rows], dtype=np.int64),
        item_codes=np.array(
            [table.intern(_ITEM_POOL[r[3]]) for r in rows], dtype=np.int64
        ),
        item_table=table,
        initial={p: set(s) for p, s in initial.items()},
    )
    return obj, arr


class TestHostileTwins:
    @given(twins=_twin_schedules())
    @settings(max_examples=150, deadline=None)
    def test_scalar_violations_byte_identical(self, twins):
        obj, arr = twins
        assert scalar_violations(obj) == scalar_violations(arr)

    @given(twins=_twin_schedules())
    @settings(max_examples=150, deadline=None)
    def test_vectorized_violations_byte_identical(self, twins):
        obj, arr = twins
        assert violations_np(obj) == violations_np(arr)

    @given(twins=_twin_schedules())
    @settings(max_examples=100, deadline=None)
    def test_serialization_byte_identical(self, twins):
        obj, arr = twins
        assert schedule_to_json(obj) == schedule_to_json(arr)

    @given(twins=_twin_schedules())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_fixed_point(self, twins):
        _, arr = twins
        text = schedule_to_json(arr)
        restored = schedule_from_json(text)
        assert schedule_to_json(restored) == text
        assert restored.sorted_sends() == arr.sorted_sends()
        assert restored.initial == arr.initial
        assert restored.params == arr.params


class TestLegalBuilders:
    """The columnar builders vs their object-path oracles, end to end."""

    @given(P=st.integers(2, 20), L=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_all_to_all(self, P, L):
        params = postal(P=P, L=L)
        fast = all_to_all_schedule(params)
        oracle = oracle_builders.all_to_all_schedule(params)
        assert scalar_violations(fast) == []
        assert violations_np(fast) == []
        assert schedule_to_json(fast) == schedule_to_json(oracle)

    @given(P=st.integers(2, 14), L=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_personalized(self, P, L):
        params = postal(P=P, L=L)
        fast = all_to_all_personalized_schedule(params)
        oracle = oracle_builders.all_to_all_personalized_schedule(params)
        assert fast.sends == oracle.sends
        assert schedule_to_json(fast) == schedule_to_json(oracle)

    @given(P=st.integers(2, 10), L=st.integers(1, 4), k=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_kitem(self, P, L, k):
        params = postal(P=P, L=L)
        fast = k_item_all_to_all_schedule(params, k)
        oracle = oracle_builders.k_item_all_to_all_schedule(params, k)
        assert scalar_violations(fast) == []
        assert schedule_to_json(fast) == schedule_to_json(oracle)
