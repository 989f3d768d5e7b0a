"""Tests for the vectorized analysis (agreement with the scalar oracles)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kitem.single_sending import single_sending_schedule
from repro.core.single_item import optimal_broadcast_schedule
from repro.params import LogPParams, postal
from repro.schedule import analysis
from repro.schedule.analysis_np import (
    columns,
    completion_time_np,
    per_item_completion_np,
    per_proc_first_arrival_np,
    send_load_np,
)
from repro.schedule.ops import Schedule

from tests.oracles.analysis import (
    availability,
    broadcast_delay_per_proc,
    completion_time,
    item_completion_times,
)


class TestAgreement:
    def test_completion_matches(self):
        s = optimal_broadcast_schedule(LogPParams(P=32, L=6, o=2, g=4))
        assert completion_time_np(columns(s)) == completion_time(s)

    def test_first_arrival_matches(self):
        s = optimal_broadcast_schedule(postal(P=40, L=3))
        cols = columns(s)
        arrivals = per_proc_first_arrival_np(cols)
        scalar = broadcast_delay_per_proc(s)
        for p in range(1, 40):
            assert arrivals[p] == scalar[p]
        assert arrivals[0] == -1  # source never receives

    def test_item_completion_matches(self):
        s = single_sending_schedule(6, 10, 3)
        cols = columns(s)
        vec = per_item_completion_np(cols)
        scalar = item_completion_times(s, procs=set(range(1, 10)))
        for item, done in scalar.items():
            assert vec[cols.item_ids[item]] == done

    def test_send_load(self):
        s = optimal_broadcast_schedule(postal(P=20, L=2))
        load = send_load_np(columns(s))
        assert load.sum() == len(s.sends)
        assert load[0] == max(load)  # the root sends most

    def test_empty_schedule(self):
        cols = columns(Schedule(params=postal(P=3, L=2)))
        assert completion_time_np(cols) == 0

    @given(P=st.integers(2, 60), L=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_property_agreement(self, P, L):
        s = optimal_broadcast_schedule(postal(P=P, L=L))
        cols = columns(s)
        assert completion_time_np(cols) == completion_time(s)
        scalar = broadcast_delay_per_proc(s)
        vec = per_proc_first_arrival_np(cols)
        for p in range(1, P):
            assert vec[p] == scalar[p]

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_public_helpers_match_oracles(self, data):
        # 0- and 1-send schedules included: the sizes the scalar loops
        # used to serve in production
        P = data.draw(st.integers(2, 6))
        params = LogPParams(
            P=P, L=data.draw(st.integers(1, 5)), o=data.draw(st.integers(0, 1)), g=1
        )
        s = Schedule(params=params, initial={0: {0}}, source_items={0: 0})
        for _ in range(data.draw(st.integers(0, 8))):
            s.add(
                time=data.draw(st.integers(0, 12)),
                src=data.draw(st.integers(0, P - 1)),
                dst=data.draw(st.integers(0, P - 1)),
                item=data.draw(st.integers(0, 2)),
            )
        assert analysis.availability(s) == availability(s)
        assert analysis.completion_time(s) == completion_time(s)
        for item in range(3):
            assert analysis.broadcast_delay_per_proc(s, item) == (
                broadcast_delay_per_proc(s, item)
            )
        procs = data.draw(st.sets(st.integers(0, P - 1)))
        try:
            expected = item_completion_times(s, procs)
        except ValueError:
            try:
                analysis.item_completion_times(s, procs)
            except ValueError as exc:
                assert "never reaches processor" in str(exc)
            else:
                raise AssertionError("production helper accepted a gap")
        else:
            assert analysis.item_completion_times(s, procs) == expected


class TestScale:
    def test_large_schedule(self):
        # a 2000-processor broadcast: vectorized analysis stays instant
        s = optimal_broadcast_schedule(postal(P=2000, L=4))
        cols = columns(s)
        assert completion_time_np(cols) == completion_time(s)
        assert send_load_np(cols).sum() == 1999


class TestNetworkOccupancy:
    def test_in_transit_profile(self):
        from repro.schedule.analysis_np import in_transit_profile

        s = optimal_broadcast_schedule(postal(P=9, L=3))
        cols = columns(s)
        profile = in_transit_profile(cols, L=3)
        assert profile.min() >= 0
        assert profile.sum() == 3 * len(s.sends)  # each message in flight L cycles

    def test_egress_respects_capacity(self):
        from repro.schedule.analysis_np import per_proc_egress_peak

        params = postal(P=21, L=4)
        s = optimal_broadcast_schedule(params)
        cols = columns(s)
        peaks = per_proc_egress_peak(cols, L=params.L)
        assert peaks.max() <= params.capacity
        # the optimal schedule saturates the source's egress capacity
        assert peaks[0] == params.capacity

    def test_empty(self):
        from repro.schedule.ops import Schedule
        from repro.schedule.analysis_np import in_transit_profile, per_proc_egress_peak

        cols = columns(Schedule(params=postal(P=2, L=2)))
        assert in_transit_profile(cols, L=2).sum() == 0
        assert per_proc_egress_peak(cols, L=2).sum() == 0
