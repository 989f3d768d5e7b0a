"""Execution-stack tests (S37): lowering, transports, verification.

The contract under test is the PR-9 acceptance bar: for every registry
collective the lowered per-rank programs, executed on *real* transports
(inproc threads, mp processes), must deliver exactly the simulator's
``(src, dst, item)`` multiset — byte-for-byte on the canonical trace
encoding — and failures (unknown transports, dead workers, hangs) must
surface as one-line diagnostics naming the offending ranks instead of
hanging the caller.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.exec import (
    ExecError,
    ExecPlan,
    ExecTimeout,
    InprocTransport,
    LoweringError,
    MpTransport,
    RecvInstr,
    SendInstr,
    TransportUnavailable,
    available_transports,
    execute,
    get_transport,
    lower_schedule,
    sim_delivered,
    verify_against_sim,
)
from repro.exec.program import KIND_RECV, KIND_SEND, RankProgram
from repro.exec.trace import ExecTrace, delivered_json
from repro.params import LogPParams, postal
from repro.schedule.columnar import ItemTable
from repro.schedule.ops import Schedule, SendOp
from repro.sim.machine import format_blocked, format_rank_set

TRANSPORTS = available_transports()

# (collective, machine/extra kwargs) at P in {4, 8, 16}: every registered
# collective in a machine inside its declared domain.
COLLECTIVE_CASES = [
    ("broadcast", dict(P=4, L=6, o=2, g=4)),
    ("broadcast", dict(P=8, L=6, o=2, g=4)),
    ("broadcast", dict(P=16, L=6, o=2, g=4)),
    ("reduction", dict(P=4, L=6, o=2, g=4)),
    ("reduction", dict(P=8, L=6, o=2, g=4)),
    ("reduction", dict(P=16, L=6, o=2, g=4)),
    ("all-to-all", dict(P=4, L=3)),
    ("all-to-all", dict(P=8, L=3)),
    ("all-to-all", dict(P=16, L=3)),
    ("kitem", dict(P=4, L=3, k=4)),
    ("kitem", dict(P=8, L=3, k=4)),
    ("kitem", dict(P=16, L=3, k=4)),
    # continuous requires P-1 to be a reachable-set size P(t) for L
    ("continuous", dict(P=4, L=3, k=4)),
    ("continuous", dict(P=8, L=6, k=4)),
    ("continuous", dict(P=16, L=5, k=4)),
    ("summation", dict(P=4, L=5, o=2, g=4, n=40)),
    ("summation", dict(P=8, L=5, o=2, g=4, n=79)),
    ("summation", dict(P=16, L=5, o=2, g=4, n=120)),
    ("allreduce", dict(P=4, L=3)),
    ("allreduce", dict(P=8, L=3)),
    ("allreduce", dict(P=16, L=3)),
]


class TestLowering:
    def test_broadcast_programs_shape(self):
        schedule = registry.plan("broadcast", P=8, L=6, o=2, g=4)
        plan = lower_schedule(schedule)
        assert plan.num_ranks == 8
        assert plan.num_sends == 7
        # every non-root rank receives the item exactly once
        for rank in range(1, 8):
            assert plan.program(rank).num_recvs == 1
        total_sends = sum(p.num_sends for p in plan.programs.values())
        assert total_sends == 7
        # root holds the item initially; its first send has no producer
        root = plan.program(0)
        first = root.instructions()[0]
        assert isinstance(first, SendInstr) and first.dep == -1

    def test_relay_send_depends_on_its_recv(self):
        schedule = registry.plan("broadcast", P=8, L=6, o=2, g=4)
        plan = lower_schedule(schedule)
        for rank in range(1, 8):
            program = plan.program(rank)
            instrs = program.instructions()
            assert isinstance(instrs[0], RecvInstr)
            for i, instr in enumerate(instrs):
                if isinstance(instr, SendInstr):
                    # the forwarded item was produced by the recv at dep
                    assert instr.dep >= 0
                    producer = instrs[instr.dep]
                    assert isinstance(producer, RecvInstr)
                    assert producer.item == instr.item

    def test_lowering_is_zero_copy_on_columnar_schedules(self):
        schedule = registry.plan("broadcast", P=256, L=4, o=1, g=2)
        assert schedule.is_array_backed
        plan = lower_schedule(schedule)
        assert schedule.is_array_backed  # no SendOp materialization
        assert plan.num_sends == 255

    def test_implicit_lowering_matches_materialized(self):
        implicit = registry.plan("broadcast", P=64, L=4, o=1, g=2,
                                 storage="implicit")
        mat = implicit.materialize()
        a = lower_schedule(implicit)
        b = lower_schedule(mat)
        assert a.num_sends == b.num_sends
        assert set(a.programs) == set(b.programs)
        for rank, pa in a.programs.items():
            pb = b.program(rank)
            assert np.array_equal(pa.kinds, pb.kinds)
            assert np.array_equal(pa.peers, pb.peers)
            # item codes may be interned in a different order across the
            # two paths; compare the decoded items instead
            assert [pa._table.decode(int(c)) for c in pa.items] == [
                pb._table.decode(int(c)) for c in pb.items
            ]

    def test_send_without_source_raises_lowering_error(self):
        params = LogPParams(P=2, L=2, o=0, g=1)
        bad = Schedule(
            params=params,
            sends=[SendOp(time=0, src=0, dst=1, item="ghost")],
            initial={0: set()},  # rank 0 never holds "ghost"
        )
        with pytest.raises(LoweringError, match="ghost"):
            lower_schedule(bad)

    def test_program_arrays_are_frozen(self):
        plan = lower_schedule(registry.plan("broadcast", P=4, L=6, o=2, g=4))
        program = plan.program(0)
        with pytest.raises(ValueError):
            program.kinds[0] = KIND_RECV

    def test_unknown_rank_program_raises(self):
        plan = lower_schedule(registry.plan("broadcast", P=4, L=6, o=2, g=4))
        with pytest.raises(KeyError):
            plan.program(99)


class TestExecVsSim:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize(
        "name,kwargs",
        COLLECTIVE_CASES,
        ids=[f"{n}-P{kw['P']}" for n, kw in COLLECTIVE_CASES],
    )
    def test_registry_collective_delivers_sim_multiset(
        self, name, kwargs, transport
    ):
        schedule = registry.plan(name, **kwargs)
        result = execute(schedule, transport=transport, verify=True)
        assert result.num_delivered == schedule.num_sends
        assert result.transport == transport

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_p256_broadcast_byte_identical(self, transport):
        schedule = registry.plan("broadcast", P=256, L=4, o=1, g=2)
        result = execute(schedule, transport=transport, verify=True)
        assert result.num_delivered == 255
        assert result.trace.to_json() == delivered_json(
            schedule.params, sim_delivered(schedule)
        )

    def test_trace_bytes_are_transport_independent(self):
        schedule = registry.plan("all-to-all", P=8, L=3)
        a = execute(schedule, transport="inproc").trace.to_json()
        b = execute(schedule, transport="mp").trace.to_json()
        assert a == b

    def test_verification_failure_names_divergence(self):
        schedule = registry.plan("broadcast", P=4, L=6, o=2, g=4)
        wrong = ExecTrace(
            params=schedule.params, transport="inproc", delivered=()
        )
        from repro.exec import ExecVerificationError

        with pytest.raises(ExecVerificationError, match="missing"):
            verify_against_sim(schedule, wrong)

    def test_verify_rejects_bare_exec_plan(self):
        plan = lower_schedule(registry.plan("broadcast", P=4, L=6, o=2, g=4))
        with pytest.raises(ExecError, match="verify"):
            execute(plan, transport="inproc", verify=True)

    def test_sim_delivered_rejects_illegal_schedules(self):
        params = LogPParams(P=2, L=2, o=0, g=1)
        # legal placement, but two sends violate the gap g=1 at time 0
        bad = Schedule(
            params=params,
            sends=[
                SendOp(time=0, src=0, dst=1, item="a"),
                SendOp(time=0, src=0, dst=1, item="b"),
            ],
            initial={0: {"a", "b"}},
        )
        with pytest.raises(ValueError, match="not a legal LogP execution"):
            sim_delivered(bad)


@st.composite
def builder_schedules(draw):
    """A random legal registry plan, spanning the collective families."""
    kind = draw(st.sampled_from(["bcast", "a2a", "kitem", "sum", "reduce"]))
    if kind == "bcast":
        P = draw(st.integers(2, 12))
        L = draw(st.integers(1, 5))
        o = draw(st.integers(0, 2))
        g = draw(st.integers(max(1, o), 3))
        return registry.plan("broadcast", LogPParams(P=P, L=L, o=o, g=g))
    if kind == "a2a":
        return registry.plan(
            "all-to-all", postal(P=draw(st.integers(2, 10)),
                                 L=draw(st.integers(1, 4)))
        )
    if kind == "kitem":
        return registry.plan(
            "kitem", postal(P=draw(st.integers(2, 8)),
                            L=draw(st.integers(1, 3))),
            k=draw(st.integers(1, 4)),
        )
    if kind == "sum":
        P = draw(st.integers(2, 8))
        return registry.plan(
            "summation", LogPParams(P=P, L=4, o=1, g=2),
            n=draw(st.integers(4 * P, 8 * P)),
        )
    P = draw(st.integers(2, 12))
    return registry.plan("reduction", LogPParams(P=P, L=4, o=1, g=2))


class TestHypothesisExecVsSim:
    @settings(max_examples=25, deadline=None)
    @given(schedule=builder_schedules())
    def test_inproc_delivers_sim_multiset(self, schedule):
        result = execute(schedule, transport="inproc", verify=True)
        assert result.num_delivered == schedule.num_sends

    @settings(max_examples=6, deadline=None)
    @given(schedule=builder_schedules())
    def test_mp_delivers_sim_multiset(self, schedule):
        result = execute(schedule, transport="mp", verify=True)
        assert result.num_delivered == schedule.num_sends


class TestTransports:
    def test_unknown_transport_lists_known(self):
        with pytest.raises(ValueError, match="inproc, mp, mpi"):
            get_transport("carrier-pigeon")

    def test_mpi_unavailable_skips_cleanly(self):
        try:
            import mpi4py  # noqa: F401
        except ImportError:
            with pytest.raises(TransportUnavailable, match="mpi4py"):
                get_transport("mpi")
            assert "mpi" not in available_transports()
        else:  # pragma: no cover - only when mpi4py is installed
            assert "mpi" in available_transports()

    def test_available_transports_always_has_inproc_and_mp(self):
        assert {"inproc", "mp"} <= set(available_transports())

    def test_mp_dead_worker_names_rank_without_hanging(self):
        schedule = registry.plan("broadcast", P=4, L=6, o=2, g=4)
        transport = MpTransport(workers=4, fault_ranks=(1,))
        with pytest.raises(
            ExecError, match=r"worker \d+ hosting ranks .*exited with code 17"
        ) as err:
            execute(schedule, transport=transport, timeout=20.0)
        assert "1" in format_rank_set([1]) and "1" in str(err.value)

    def test_inproc_timeout_reports_blocked_ranks(self):
        # rank 0 waits forever for a message rank 1 never sends: a
        # hand-built plan (lowering would reject the schedule)
        params = LogPParams(P=2, L=2, o=0, g=1)
        table = ItemTable()
        code = table.intern("never")
        program = RankProgram(
            rank=0,
            kinds=np.array([KIND_RECV], dtype=np.int8),
            peers=np.array([1], dtype=np.int64),
            items=np.array([code], dtype=np.int64),
            deps=np.array([-1], dtype=np.int64),
            reduce_operands={},
            table=table,
        )
        plan = ExecPlan(
            params=params,
            table=table,
            programs={0: program},
            initial={},
            num_sends=0,
        )
        with pytest.raises(ExecTimeout) as err:
            execute(plan, transport="inproc", timeout=0.4)
        message = str(err.value)
        assert "timeout: inproc transport hit the 0.4s deadline" in message
        assert "1 of 2 ranks blocked (ranks 0)" in message
        assert "rank 0 waits to receive item 'never' from rank 1" in message


class TestBlockedFormatting:
    def test_format_rank_set_collapses_runs(self):
        assert format_rank_set([0, 1, 2, 3, 7]) == "0-3,7"
        assert format_rank_set([5]) == "5"
        assert format_rank_set([2, 4, 6]) == "2,4,6"

    def test_format_blocked_truncates_detail(self):
        waiters = [(r, f"rank {r} stuck") for r in range(12)]
        text = format_blocked("deadlock: stuck", waiters, total_ranks=16)
        assert "12 of 16 ranks blocked (ranks 0-11)" in text
        assert "... and 4 more blocked rank(s)" in text

    def test_machine_deadlock_reports_blocked_rank_set(self):
        from repro.sim.machine import Context, Machine

        class SendToDeaf:
            def on_start(self, ctx: Context) -> None:
                if ctx.proc == 1:
                    ctx.send(0, "x")

            def on_receive(self, ctx, item, src):  # pragma: no cover
                pass

        # L puts delivery past max_cycles: the send can never land
        machine = Machine(
            LogPParams(P=2, L=50, o=1, g=1),
            {0: SendToDeaf(), 1: SendToDeaf()},
            max_cycles=10,
        )
        with pytest.raises(RuntimeError) as err:
            machine.run()
        message = str(err.value)
        assert "deadlock" in message
        assert "1 of 2 ranks blocked (ranks 1)" in message
        assert "proc 1" in message and "proc 0" in message


class TestLowerPassAndRegistry:
    def test_lower_pass_in_pipeline_passes_schedule_through(self):
        from repro.passes import PassManager

        schedule = registry.plan("broadcast", P=8, L=6, o=2, g=4)
        manager = PassManager("lower", verify="errors")
        out = manager.run(schedule)
        assert out is schedule
        [record] = manager.records
        assert record.stats["sends"] == 7
        assert record.stats["ranks"] == 8

    def test_lower_pass_keeps_compiled_plan(self):
        from repro.passes import LowerPass

        schedule = registry.plan("broadcast", P=8, L=6, o=2, g=4)
        lower = LowerPass()
        assert lower.run(schedule) is schedule
        assert isinstance(lower.plan, ExecPlan)
        assert lower.plan.num_sends == 7

    def test_registry_execute_keyword_verifies_and_returns_schedule(self):
        schedule = registry.plan("broadcast", P=8, L=6, o=2, g=4,
                                 execute="inproc")
        assert schedule.num_sends == 7

    def test_registry_execute_rejects_implicit(self):
        with pytest.raises(ValueError, match="implicit"):
            registry.plan("broadcast", P=8, L=6, o=2, g=4,
                          storage="implicit", execute="inproc")


class TestRunCli:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_run_builder_verified(self, capsys):
        rc = self.run_cli(
            "run", "--builder", "bcast", "-P", "8", "-L", "6",
            "--o", "2", "--g", "4", "--verify",
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "delivered 7 messages" in out
        assert "verified" in out

    def test_run_schedule_file(self, tmp_path, capsys):
        from repro.schedule.serialize import dump_schedule

        path = tmp_path / "b.json"
        dump_schedule(registry.plan("broadcast", P=6, L=4), str(path))
        rc = self.run_cli("run", str(path), "--transport", "mp", "--verify")
        assert rc == 0
        assert "on mp" in capsys.readouterr().out

    def test_run_usage_errors_exit_2(self, tmp_path, capsys):
        assert self.run_cli("run") == 2
        assert self.run_cli("run", "--builder", "nope") == 2
        assert self.run_cli("run", str(tmp_path / "missing.json")) == 2
        err = capsys.readouterr().err
        assert err.count("repro: error:") == 3

    def test_run_mpi_unavailable_exits_2(self, capsys):
        try:
            import mpi4py  # noqa: F401
        except ImportError:
            rc = self.run_cli("run", "--builder", "bcast", "--transport", "mpi")
            assert rc == 2
            assert "mpi4py" in capsys.readouterr().err
        else:  # pragma: no cover - only when mpi4py is installed
            pytest.skip("mpi4py installed; unavailability path not reachable")
