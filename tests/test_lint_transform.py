"""Property tests: lint verdicts across schedule transforms and mutations.

Two invariance tiers (see :mod:`repro.analyze.diagnostics`):

* legality-preserving *relabelings* — :func:`shift`, :func:`remap`,
  :func:`reverse` — keep a clean schedule free of WARNING-and-above
  findings (INFO observations may appear; ``reverse`` legitimately has
  slack on the reversed critical path);
* *compositions* — :func:`concat`, :func:`restrict` — only promise
  error-freedom: ``concat`` inserts idle spacing and merges initial
  placements by design, and ``restrict`` drops completeness, so
  WARNING-tier waste findings are expected and correct there.

The mutation properties are the flip side: corrupting a clean schedule
must trip the matching rule — the engine has no false negatives on the
defect classes it claims to catch.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analyze import Severity, Workload, lint_schedule
from repro.core.kitem.single_sending import single_sending_schedule
from repro.core.single_item import optimal_broadcast_schedule
from repro.params import LogPParams
from repro.schedule.ops import Schedule, SendOp
from repro.schedule.transform import concat, remap, restrict, shift

from tests.oracles.transform import reverse_objects

SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def clean_schedules(draw):
    """A builder-produced schedule that lints clean at WARNING+."""
    kind = draw(st.sampled_from(["bcast", "bcast-logp", "kitem"]))
    if kind == "bcast":
        P = draw(st.integers(2, 12))
        L = draw(st.integers(1, 6))
        return optimal_broadcast_schedule(LogPParams(P=P, L=L, o=0, g=1))
    if kind == "bcast-logp":
        P = draw(st.integers(2, 9))
        L = draw(st.integers(2, 6))
        g = draw(st.integers(1, 4))
        o = draw(st.integers(1, min(2, g)))  # LogPParams requires o <= g
        return optimal_broadcast_schedule(LogPParams(P=P, L=L, o=o, g=g))
    k = draw(st.integers(2, 5))
    P = draw(st.integers(2, 8))
    L = draw(st.integers(1, 5))
    return single_sending_schedule(k, P, L)


def warnings_and_up(schedule: Schedule):
    return {d.rule for d in lint_schedule(schedule).at_least(Severity.WARNING)}


# Builders are error-free but not always warning-free: for some (P, L)
# the k-item construction lands strictly between the Thm 3.7 lower bound
# and the Thm 3.6 upper bound (the lower bound needs P - 1 = P(t), Cor
# 3.1), so SCHED008 correctly reports the gap.  The invariance contract
# is therefore relative: a relabeling introduces no *new* findings.


class TestRelabelingInvariance:
    @SETTINGS
    @given(sched=clean_schedules(), offset=st.integers(0, 50))
    def test_shift_introduces_no_warnings(self, sched, offset):
        assert warnings_and_up(shift(sched, offset)) <= warnings_and_up(sched)

    @SETTINGS
    @given(sched=clean_schedules(), data=st.data())
    def test_remap_introduces_no_warnings(self, sched, data):
        procs = sorted(sched.processors())
        image = data.draw(st.permutations(procs))
        remapped = remap(sched, dict(zip(procs, image)))
        assert warnings_and_up(remapped) <= warnings_and_up(sched)

    @SETTINGS
    @given(sched=clean_schedules())
    def test_reverse_introduces_no_warnings(self, sched):
        # per-(dst, item) labels: the default ("rev", dst) tag collapses
        # the k items a single edge carries into one, which would turn a
        # legal k-item reversal into genuine duplicate deliveries, so
        # this relabelling runs through the objects oracle
        reversed_ = reverse_objects(
            sched, item_of=lambda op: ("rev", op.dst, op.item)
        )
        assert warnings_and_up(reversed_) <= warnings_and_up(sched)


class TestCompositionErrorFreedom:
    @SETTINGS
    @given(sched=clean_schedules())
    def test_concat_with_itself_is_error_free(self, sched):
        # concat raises on conflicting source_items keys, so
        # self-composition is only well-defined without creation times —
        # drop them (making items available from t=0 is strictly more
        # permissive, per the "caller's responsibility" clause)
        base = Schedule(sched.params, sends=list(sched.sends), initial=sched.initial)
        report = lint_schedule(concat(base, base))
        assert report.errors == []

    @SETTINGS
    @given(sched=clean_schedules(), data=st.data())
    def test_restrict_to_receive_closed_subset_is_error_free(self, sched, data):
        procs = sorted(sched.processors())
        keep = set(data.draw(st.sets(st.sampled_from(procs), min_size=1)))
        # close under "receives from": drop any proc fed by an excluded
        # one, so every kept proc keeps its full provenance chain
        changed = True
        while changed:
            changed = False
            for op in sched.sends:
                if op.dst in keep and op.src not in keep:
                    keep.discard(op.dst)
                    changed = True
        assume(keep)
        report = lint_schedule(restrict(sched, keep))
        assert report.errors == []


class TestMutationsTrip:
    @SETTINGS
    @given(sched=clean_schedules(), data=st.data())
    def test_negative_time_trips_sched003(self, sched, data):
        i = data.draw(st.integers(0, sched.num_sends - 1))
        sends = list(sched.sends)
        op = sends[i]
        sends[i] = SendOp(time=-1 - op.time, src=op.src, dst=op.dst, item=op.item)
        mutated = Schedule(sched.params, sends=sends, initial=sched.initial)
        assert "SCHED003" in lint_schedule(mutated).rule_ids()

    @SETTINGS
    @given(sched=clean_schedules(), data=st.data())
    def test_duplicated_send_trips_sched005(self, sched, data):
        i = data.draw(st.integers(0, sched.num_sends - 1))
        op = sched.sends[i]
        horizon = int(max(o.arrival(sched.params) for o in sched.sends))
        dup = SendOp(
            time=horizon + 1, src=op.src, dst=op.dst, item=op.item
        )
        mutated = Schedule(
            sched.params, sends=[*sched.sends, dup], initial=sched.initial
        )
        ids = lint_schedule(mutated).rule_ids()
        assert "SCHED005" in ids
        assert "SCHED004" in ids  # a re-delivery is also a dead send

    @SETTINGS
    @given(sched=clean_schedules(), data=st.data())
    def test_self_send_trips_sched002(self, sched, data):
        i = data.draw(st.integers(0, sched.num_sends - 1))
        sends = list(sched.sends)
        op = sends[i]
        sends[i] = SendOp(time=op.time, src=op.src, dst=op.src, item=op.item)
        mutated = Schedule(sched.params, sends=sends, initial=sched.initial)
        assert "SCHED002" in lint_schedule(mutated).rule_ids()

    @SETTINGS
    @given(sched=clean_schedules(), data=st.data())
    def test_dropping_an_internal_delivery_trips_sched001(self, sched, data):
        # only deliveries whose destination later forwards the *same*
        # item are guaranteed to leave a dangling (acausal) send behind
        internal = [
            i
            for i, op in enumerate(sched.sends)
            if op.dst not in sched.initial
            and any(
                later.src == op.dst and later.item == op.item
                for later in sched.sends
                if later.time > op.time
            )
        ]
        assume(internal)
        i = data.draw(st.sampled_from(internal))
        sends = [op for j, op in enumerate(sched.sends) if j != i]
        mutated = Schedule(sched.params, sends=sends, initial=sched.initial)
        report = lint_schedule(mutated)
        assert "SCHED001" in report.rule_ids()
        assert report.max_severity is Severity.ERROR

    @SETTINGS
    @given(P=st.integers(4, 12), L=st.integers(1, 6), slip=st.integers(1, 20))
    def test_delaying_the_last_send_trips_a_gap_or_slack(self, P, L, slip):
        sched = optimal_broadcast_schedule(LogPParams(P=P, L=L, o=0, g=1))
        times = np.array([op.time for op in sched.sends])
        i = int(times.argmax())
        sends = list(sched.sends)
        op = sends[i]
        sends[i] = SendOp(
            time=op.time + slip, src=op.src, dst=op.dst, item=op.item
        )
        mutated = Schedule(sched.params, sends=sends, initial=sched.initial)
        report = lint_schedule(mutated)
        # the delayed finale shows up as an optimality gap (the makespan
        # grew) and as idle slack on the late send
        assert "SCHED008" in report.rule_ids()
        assert "SCHED007" in report.rule_ids()
        assert report.workload == Workload.BROADCAST
