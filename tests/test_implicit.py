"""Unit tests for the implicit O(log P) schedule IR and its consumers.

Covers the tree families against brute-force materialization, the
chunking contract, the O(1) shift/remap rewrites, the pass-framework
integration (``run_implicit`` twins + materialization guards), the
registry ``storage="implicit"`` flag, the chunked lint engine's
agreement with the full engine, the chunked validator, and the CLI
``--implicit`` path.  The randomized twins live in
``test_implicit_properties.py``; these are the deterministic anchors.
"""

import numpy as np
import pytest

from repro import registry
from repro.analyze import lint_schedule
from repro.analyze.chunked import (
    AGGREGATE_RULES,
    PER_CHUNK_RULES,
    WHOLE_SCHEDULE_RULES,
    lint_implicit,
)
from repro.cli import main
from repro.core.fib import broadcast_time
from repro.params import LogPParams, postal
from repro.passes import PassManager
from repro.passes.library import CanonicalizePass, RemapPass, ShiftPass
from repro.schedule.columnar import materialize_sends
from repro.schedule.implicit import (
    DEFAULT_CHUNK_SENDS,
    BinomialTreeFamily,
    ImplicitSchedule,
    OptimalTreeFamily,
    implicit_broadcast,
    implicit_families,
    implicit_reduction,
)
from repro.schedule.serialize import schedule_to_json
from repro.sim.validate import violations
from repro.sim.validate_np import violations_np, violations_np_implicit

FIG1 = LogPParams(P=8, L=6, o=2, g=4)

MACHINES = [
    FIG1,
    postal(P=10, L=3),
    LogPParams(P=23, L=2, o=1, g=1),
    LogPParams(P=64, L=1, o=0, g=3),
]

FAMILIES = ["optimal", "binomial"]


class EarlyFamily(BinomialTreeFamily):
    """A broken family: claims rank 1 is informed before its edge could
    even be sent, so the edge into rank 1 leaves at cycle -1."""

    name = "early"

    def inform_times(self, ranks: np.ndarray) -> np.ndarray:
        informs = super().inform_times(ranks)
        return np.where(ranks == 1, informs - self.params.send_cost - 1, informs)


class LyingFamily(BinomialTreeFamily):
    """A broken family: rank 2 informed one cycle early, so its parent's
    send sequence violates the gap ``g`` (but no per-edge SCHED rule)."""

    name = "lying"

    def inform_times(self, ranks: np.ndarray) -> np.ndarray:
        informs = super().inform_times(ranks)
        return np.where(ranks == 2, informs - 1, informs)


class TestFamilies:
    @pytest.mark.parametrize("params", MACHINES, ids=lambda p: f"P{p.P}")
    @pytest.mark.parametrize("family", FAMILIES)
    def test_materialized_broadcast_is_legal(self, params, family):
        sched = implicit_broadcast(params, family=family).materialize()
        assert violations(sched) == []

    @pytest.mark.parametrize("params", MACHINES, ids=lambda p: f"P{p.P}")
    @pytest.mark.parametrize("family", FAMILIES)
    def test_materialized_reduction_is_legal(self, params, family):
        sched = implicit_reduction(params, family=family).materialize()
        assert violations(sched) == []

    @pytest.mark.parametrize("params", MACHINES, ids=lambda p: f"P{p.P}")
    def test_optimal_family_makespan_is_exactly_B(self, params):
        impl = implicit_broadcast(params, family="optimal")
        assert impl.makespan == broadcast_time(params.P, params)

    @pytest.mark.parametrize("params", MACHINES, ids=lambda p: f"P{p.P}")
    @pytest.mark.parametrize("family", FAMILIES)
    def test_makespan_matches_materialized_arrivals(self, params, family):
        impl = implicit_broadcast(params, family=family)
        cols = impl.chunk(0, impl.num_sends)
        assert impl.makespan == int(cols.arrivals.max())
        assert int(cols.times.min()) == 0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_parents_precede_children(self, family):
        impl = implicit_broadcast(LogPParams(P=200, L=3, o=1, g=2), family=family)
        ranks = np.arange(1, 200, dtype=np.int64)
        parents = impl.family.parents(ranks)
        assert (parents < ranks).all()
        assert (parents >= 0).all()
        # strict progress: the parent holds the item strictly earlier
        assert (
            impl.family.inform_times(parents) < impl.family.inform_times(ranks)
        ).all()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_trivial_sizes(self, family):
        one = implicit_broadcast(LogPParams(P=1, L=2, o=1, g=1), family=family)
        assert one.num_sends == 0
        assert one.makespan == 0
        assert list(one.iter_chunks()) == []
        assert violations(one.materialize()) == []
        two = implicit_broadcast(LogPParams(P=2, L=2, o=1, g=1), family=family)
        assert two.num_sends == 1
        assert two.makespan == two.params.send_cost

    def test_family_listing_and_unknown_name(self):
        assert implicit_families() == ("binomial", "optimal")
        with pytest.raises(ValueError, match="unknown implicit family 'fft'"):
            implicit_broadcast(FIG1, family="fft")


class TestQueries:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("reduction", [False, True], ids=["bcast", "reduce"])
    def test_sends_of_covers_materialized_sends(self, family, reduction):
        build = implicit_reduction if reduction else implicit_broadcast
        impl = build(FIG1, family=family)
        expected = {
            (op.time, op.src, op.dst, op.item)
            for op in impl.materialize().sends
        }
        got = set()
        for proc in range(impl.num_procs):
            cols = impl.sends_of(proc)
            assert (np.diff(cols.times) >= 0).all()
            for op in materialize_sends(cols):
                assert op.src == proc
                got.add((op.time, op.src, op.dst, op.item))
        assert got == expected

    @pytest.mark.parametrize("family", FAMILIES)
    def test_parent_matches_realized_edges(self, family):
        impl = implicit_broadcast(FIG1, family=family)
        by_dst = {op.dst: op.src for op in impl.materialize().sends}
        assert impl.parent(0) is None
        for proc in range(1, FIG1.P):
            assert impl.parent(proc) == by_dst[proc]
            assert impl.parent(proc, item=0) == by_dst[proc]

    def test_parent_checks_item_and_rank(self):
        impl = implicit_broadcast(FIG1)
        with pytest.raises(ValueError, match="handles item 0"):
            impl.parent(3, item="wrong")
        with pytest.raises(ValueError, match="not a rank"):
            impl.parent(FIG1.P)
        red = implicit_reduction(FIG1)
        assert red.parent(3, item=("rev", 3)) is not None
        with pytest.raises(ValueError, match=r"handles item \('rev', 3\)"):
            red.parent(3, item=("rev", 4))

    def test_sends_of_unused_label_is_empty(self):
        impl = implicit_broadcast(FIG1).remapped({0: 100})
        assert len(impl.sends_of(0)) == 0  # label vacated by the remap
        assert len(impl.sends_of(100)) == FIG1.g and impl.parent(1) == 100


class TestChunking:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("max_sends", [1, 3, 64])
    def test_chunks_partition_the_edge_list(self, family, max_sends):
        impl = implicit_broadcast(postal(P=37, L=2), family=family)
        chunks = list(impl.iter_chunks(max_sends=max_sends))
        assert sum(len(c) for c in chunks) == impl.num_sends
        whole = impl.chunk(0, impl.num_sends)
        times = np.concatenate([c.times for c in chunks])
        srcs = np.concatenate([c.srcs for c in chunks])
        dsts = np.concatenate([c.dsts for c in chunks])
        assert (times == whole.times).all()
        assert (srcs == whole.srcs).all()
        assert (dsts == whole.dsts).all()

    def test_chunk_range_and_size_validation(self):
        impl = implicit_broadcast(FIG1)
        with pytest.raises(ValueError, match="outside"):
            impl.chunk(3, 2)
        with pytest.raises(ValueError, match="outside"):
            impl.chunk(0, impl.num_sends + 1)
        with pytest.raises(ValueError, match="max_sends must be >= 1"):
            list(impl.iter_chunks(max_sends=0))

    def test_chunk_facts_are_closed_form_availability(self):
        impl = implicit_broadcast(FIG1)
        facts = impl.chunk_with_facts(0, impl.num_sends)
        # the sender holds the item when it sends, the destination first
        # holds it exactly at this edge's arrival (tree: unique delivery)
        assert (facts.send_avail <= facts.cols.times).all()
        assert (facts.dst_avail == facts.cols.arrivals).all()


class TestRewrites:
    def test_shift_is_a_query_rewrite(self):
        impl = implicit_broadcast(FIG1)
        moved = impl.shifted(5).shifted(2)
        assert moved.start_time == 7
        assert moved.makespan == impl.makespan
        assert (moved.chunk(0, 3).times == impl.chunk(0, 3).times + 7).all()
        back = moved.shifted(-7)
        assert back.start_time == 0

    def test_shift_below_zero_matches_materialized_error(self):
        from repro.passes.kernels import SHIFT_BEFORE_ZERO

        impl = implicit_broadcast(FIG1)
        with pytest.raises(ValueError) as excinfo:
            impl.shifted(-1)
        assert str(excinfo.value) == SHIFT_BEFORE_ZERO

    def test_remap_relabels_and_composes(self):
        impl = implicit_broadcast(FIG1)
        swapped = impl.remapped({0: 1, 1: 0})
        assert swapped.source == 1
        assert swapped.parent(0) == 1
        # composing the swap with itself is the identity
        identity = swapped.remapped({0: 1, 1: 0})
        assert schedule_to_json(identity.materialize()) == schedule_to_json(
            impl.materialize()
        )

    def test_remap_validation(self):
        impl = implicit_broadcast(FIG1)
        with pytest.raises(ValueError, match="not injective"):
            impl.remapped({0: 5, 1: 5})
        with pytest.raises(ValueError, match="not injective"):
            impl.remapped({0: 3})  # collides with untouched rank 3
        with pytest.raises(ValueError, match="non-negative"):
            impl.remapped({0: -1})
        # like the materialized remap, unused labels are silently ignored
        same = impl.remapped({FIG1.P + 5: 99})
        assert same.mapping is None
        with pytest.raises(ValueError, match="not a rank"):
            ImplicitSchedule(impl.family, mapping={FIG1.P: 99})

    @pytest.mark.parametrize("reduction", [False, True], ids=["bcast", "reduce"])
    def test_rewrites_match_materialized_passes(self, reduction):
        from repro.schedule.transform import remap, shift

        build = implicit_reduction if reduction else implicit_broadcast
        impl = build(FIG1)
        mapping = {0: 9, 3: 0, 9: 3} if not reduction else {1: 11}
        twin = shift(remap(impl.materialize(), mapping), 4)
        ours = impl.remapped(mapping).shifted(4).materialize()
        assert schedule_to_json(ours) == schedule_to_json(twin)


class TestPassIntegration:
    def test_shift_and_remap_passes_route_to_rewrites(self):
        impl = implicit_broadcast(FIG1)
        moved = ShiftPass(3).run_implicit(impl)
        assert isinstance(moved, ImplicitSchedule) and moved.start_time == 3
        renamed = RemapPass(mapping={0: 7, 7: 0}).run_implicit(impl)
        assert isinstance(renamed, ImplicitSchedule) and renamed.source == 7

    def test_materializing_pass_refuses_implicit(self):
        impl = implicit_broadcast(FIG1)
        with pytest.raises(TypeError, match="would materialize"):
            CanonicalizePass().run_implicit(impl)

    def test_pass_manager_refuses_implicit(self):
        impl = implicit_broadcast(FIG1)
        with pytest.raises(TypeError, match="materialized schedules"):
            PassManager([ShiftPass(1)]).run(impl)


class TestRegistryStorage:
    def test_plan_implicit_broadcast_and_reduction(self):
        impl = registry.plan("broadcast", FIG1, storage="implicit")
        assert isinstance(impl, ImplicitSchedule)
        assert impl.family.name == "optimal" and not impl.is_reduction
        red = registry.plan(
            "reduce", FIG1, storage="implicit", family="binomial"
        )
        assert red.is_reduction and red.family.name == "binomial"

    def test_plan_storage_validation(self):
        with pytest.raises(ValueError, match="storage must be"):
            registry.plan("broadcast", FIG1, storage="sparse")
        with pytest.raises(ValueError, match="supported by: broadcast, reduction"):
            registry.plan("kitem", postal(P=8, L=2), storage="implicit", k=3)
        # there is no compute-backend option to pin, implicit or not
        with pytest.raises(ValueError, match=r"unknown parameter\(s\) backend"):
            registry.plan(
                "broadcast", FIG1, storage="implicit", backend="columnar"
            )
        with pytest.raises(ValueError, match="unknown implicit family"):
            registry.plan("broadcast", FIG1, storage="implicit", family="fft")


class TestChunkedLint:
    def test_rule_split_is_total(self):
        from repro.analyze import rule_ids

        covered = set(PER_CHUNK_RULES) | set(AGGREGATE_RULES) | set(
            WHOLE_SCHEDULE_RULES
        )
        assert covered == set(rule_ids())

    @pytest.mark.parametrize("params", MACHINES, ids=lambda p: f"P{p.P}")
    @pytest.mark.parametrize("family", FAMILIES)
    def test_clean_plans_lint_clean(self, params, family):
        report = lint_implicit(implicit_broadcast(params, family=family))
        assert report.errors == []
        assert sorted(report.rules_run) == sorted(
            PER_CHUNK_RULES + AGGREGATE_RULES
        )
        # legal plans trip no structural rule; the binomial family may
        # carry a (warning-severity) SCHED008 gap above B(P)
        for rule_id in PER_CHUNK_RULES + ("SCHED010",):
            assert report.rule_totals[rule_id] == 0

    def test_optimal_family_has_zero_optimality_gap(self):
        report = lint_implicit(implicit_broadcast(FIG1, family="optimal"))
        assert report.rule_totals["SCHED008"] == 0

    @pytest.mark.parametrize("max_sends", [1, 4, DEFAULT_CHUNK_SENDS])
    def test_agreement_with_full_engine_on_broken_family(self, max_sends):
        impl = ImplicitSchedule(EarlyFamily(FIG1))
        chunked = lint_implicit(impl, max_sends=max_sends)
        full = lint_schedule(impl.materialize())
        assert chunked.rule_totals["SCHED001"] >= 1
        assert chunked.rule_totals["SCHED003"] >= 1
        for rule_id in chunked.rules_run:
            if rule_id in full.rule_totals:
                assert (
                    chunked.rule_totals[rule_id] == full.rule_totals[rule_id]
                ), rule_id
        # per-chunk messages must be byte-identical; SCHED008's numbers
        # legitimately differ here — this family breaks the "earliest
        # send at cycle 0" contract, so the implicit (nominal) makespan
        # and the realized one disagree
        ours = sorted(
            d.message for d in chunked.diagnostics if d.rule in PER_CHUNK_RULES
        )
        theirs = sorted(
            d.message for d in full.diagnostics if d.rule in PER_CHUNK_RULES
        )
        assert ours == theirs

    def test_selecting_whole_schedule_rule_raises(self):
        impl = implicit_broadcast(FIG1)
        for rule_id, reason in WHOLE_SCHEDULE_RULES.items():
            with pytest.raises(ValueError, match=rule_id):
                lint_implicit(impl, select=[rule_id])
        # ...but a default sweep silently skips them
        report = lint_implicit(impl)
        assert not set(WHOLE_SCHEDULE_RULES) & set(report.rules_run)

    def test_select_and_ignore_narrow_the_sweep(self):
        impl = implicit_broadcast(FIG1)
        only = lint_implicit(impl, select=["SCHED002"])
        assert only.rules_run == ["SCHED002"]
        without = lint_implicit(impl, ignore=["SCHED008"])
        assert "SCHED008" not in without.rules_run


class TestChunkedValidator:
    @pytest.mark.parametrize("params", MACHINES, ids=lambda p: f"P{p.P}")
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("reduction", [False, True], ids=["bcast", "reduce"])
    def test_legal_plans_validate_clean(self, params, family, reduction):
        build = implicit_reduction if reduction else implicit_broadcast
        impl = build(params, family=family)
        assert violations_np_implicit(impl, max_sends=5) == []

    def test_gap_violation_matches_materialized_validator(self):
        impl = ImplicitSchedule(LyingFamily(FIG1))
        chunked = violations_np_implicit(impl)
        materialized = violations_np(impl.materialize())
        assert chunked, "the lying family must trip the send-gap check"
        # chunk-local gap checks are sound (never a false positive), so
        # everything they report is also in the whole-schedule sweep
        assert set(chunked) <= set(materialized)
        assert any("gap" in v for v in chunked)

    def test_causality_violation_string_matches(self):
        impl = ImplicitSchedule(EarlyFamily(LogPParams(P=4, L=1, o=0, g=2)))
        chunked = violations_np_implicit(impl, max_sends=2)
        materialized = violations_np(impl.materialize())
        causal = [v for v in chunked if v.startswith("causality:")]
        assert causal and set(causal) <= set(materialized)


class TestCLI:
    def test_lint_implicit_small(self, capsys):
        code = main(
            [
                "lint", "--builder", "bcast", "--implicit",
                "-P", "1000", "-L", "2", "--o", "1", "--g", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "whole-schedule rules skipped: SCHED006, SCHED007, SCHED009" in out

    def test_lint_implicit_binomial_reduction(self, capsys):
        code = main(
            [
                "lint", "--builder", "reduce", "--implicit",
                "--family", "binomial", "--chunk-sends", "128",
                "-P", "500", "-L", "3", "--o", "1", "--g", "2",
            ]
        )
        assert code == 0

    def test_lint_implicit_requires_builder(self, capsys):
        assert main(["lint", "--implicit", "-P", "8", "-L", "2"]) == 2
        err = capsys.readouterr().err
        assert "--builder" in err

    def test_lint_implicit_rejects_unsupported_builder(self, capsys):
        code = main(
            [
                "lint", "--builder", "kitem", "--implicit",
                "-P", "8", "-L", "2", "--k", "3",
            ]
        )
        assert code == 2
        assert "broadcast, reduction" in capsys.readouterr().err
