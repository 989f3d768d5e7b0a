"""Scalar/vectorized validator agreement (property-based).

The numpy engine in :mod:`repro.sim.validate_np` must report *exactly*
the same violation strings as the pure-Python reference walker in
:mod:`tests.oracles.validate` — same messages, same multiplicities — on
any schedule, legal or hostile.  Order may differ (the scalar walker emits
per-check, the vectorized one per-array-pass), so agreement is checked
as a multiset.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.all_to_all import all_to_all_schedule, k_item_all_to_all_schedule
from repro.core.single_item import optimal_broadcast_schedule
from repro.params import LogPParams, postal
from repro.schedule.ops import Schedule
from repro.sim.validate import violations
from repro.sim.validate_np import violations_np

from tests.oracles.validate import violations as scalar_violations


def assert_agree(schedule: Schedule, check_capacity: bool = True) -> None:
    scalar = scalar_violations(schedule, check_capacity=check_capacity)
    vector = violations_np(schedule, check_capacity=check_capacity)
    assert Counter(scalar) == Counter(vector)


@st.composite
def _hostile_schedules(draw):
    """Arbitrary (mostly illegal) schedules exercising every check."""
    g = draw(st.integers(1, 4))
    params = LogPParams(
        P=draw(st.integers(2, 7)),
        L=draw(st.integers(1, 6)),
        o=draw(st.integers(0, min(3, g))),
        g=g,
    )
    n_items = draw(st.integers(1, 3))
    initial: dict[int, set] = {}
    for item in range(n_items):
        if draw(st.booleans()):
            initial.setdefault(draw(st.integers(0, params.P - 1)), set()).add(item)
    schedule = Schedule(params=params, initial=initial or {0: {0}})
    n_sends = draw(st.integers(0, 12))
    for _ in range(n_sends):
        schedule.add(
            time=draw(st.integers(0, 15)),
            src=draw(st.integers(0, params.P - 1)),
            dst=draw(st.integers(0, params.P - 1)),
            item=draw(st.integers(0, n_items - 1)),
        )
    return schedule


class TestFuzzedAgreement:
    @given(schedule=_hostile_schedules())
    @settings(max_examples=200, deadline=None)
    def test_hostile_schedules_agree(self, schedule):
        assert_agree(schedule)

    @given(schedule=_hostile_schedules())
    @settings(max_examples=60, deadline=None)
    def test_agreement_without_capacity_check(self, schedule):
        assert_agree(schedule, check_capacity=False)

    @given(
        g=st.integers(1, 4),
        P=st.integers(2, 24),
        L=st.integers(1, 8),
        o_raw=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_optimal_broadcasts_clean_on_both(self, g, P, L, o_raw):
        params = LogPParams(P=P, L=L, o=min(o_raw, g), g=g)
        schedule = optimal_broadcast_schedule(params)
        assert scalar_violations(schedule) == []
        assert violations_np(schedule) == []

    @given(P=st.integers(2, 16), L=st.integers(1, 6), k=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_all_to_all_clean_on_both(self, P, L, k):
        schedule = k_item_all_to_all_schedule(postal(P=P, L=L), k)
        assert scalar_violations(schedule) == []
        assert violations_np(schedule) == []


class TestDispatch:
    def test_large_schedule_routes_to_numpy_with_identical_result(self):
        # the public entry point runs the numpy engine at every size;
        # the scalar oracle must agree on a 48*47 = 2256-send schedule
        schedule = all_to_all_schedule(postal(P=48, L=4))
        assert len(schedule.sends) >= 1024
        assert violations(schedule) == scalar_violations(schedule) == []

    def test_large_corrupted_schedule_same_messages(self):
        schedule = all_to_all_schedule(postal(P=48, L=4))
        schedule.add(time=0, src=1, dst=1, item=("a2a", 1))  # self-send
        schedule.add(time=0, src=2, dst=3, item=("a2a", 5))  # causality
        auto = violations(schedule)
        scalar = scalar_violations(schedule)
        assert Counter(auto) == Counter(scalar)
        assert any("self-send" in v for v in auto)
        assert any("causality" in v for v in auto)

    def test_empty_schedule(self):
        assert_agree(Schedule(params=postal(P=2, L=1)))


class TestTargetedParity:
    """One deterministic case per violation family (message-exact)."""

    def test_never_held(self):
        s = Schedule(params=postal(P=3, L=2))
        s.add(time=0, src=1, dst=2, item=0)
        assert_agree(s)

    def test_held_too_late(self):
        s = Schedule(params=postal(P=3, L=5))
        s.add(time=0, src=0, dst=1, item=0)
        s.add(time=3, src=1, dst=2, item=0)
        assert_agree(s)

    def test_send_and_receive_gaps(self):
        p = LogPParams(P=4, L=3, o=0, g=3)
        s = Schedule(params=p, initial={0: {0}, 1: {1}})
        s.add(time=0, src=0, dst=2, item=0)
        s.add(time=1, src=0, dst=3, item=0)  # send gap
        s.add(time=0, src=1, dst=2, item=1)  # receive gap at proc 2
        assert_agree(s)

    def test_overhead_overlap(self):
        p = LogPParams(P=3, L=6, o=2, g=4)
        s = Schedule(params=p, initial={0: {0}, 1: {1}})
        s.add(time=0, src=0, dst=1, item=0)
        s.add(time=9, src=1, dst=2, item=1)  # send during recv overhead
        assert_agree(s)

    def test_capacity_overflow(self):
        p = LogPParams(P=5, L=3, o=0, g=1)
        s = Schedule(params=p)
        for i in range(1, 5):
            s.add(time=0, src=0, dst=i, item=0)  # 4 in flight, cap = 3
        assert_agree(s)
