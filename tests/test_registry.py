"""Registry-parametrized suite: every collective through one entry point.

Replaces the five per-builder lint smoke tests that used to be scattered
across ``test_single_item.py`` / ``test_kitem.py`` / ``test_all_to_all.py``
/ ``test_combining.py`` / ``test_summation.py``: each registered
:class:`~repro.registry.spec.CollectiveSpec` sample case is built via
:func:`repro.registry.plan` and must

* replay legally on the LogP simulator,
* pass the static lint sweep with nothing at ERROR severity,
* complete no earlier than its registered closed-form lower bound —
  and *exactly at* the bound whenever the spec claims tightness,
* round-trip through JSON serialization byte-identically, and serialize
  to the same bytes as the objects oracle of its builder where one
  exists (``tests/oracles/builders.py``).

Adding a spec to :mod:`repro.registry.specs` automatically enrolls it
here — no new test code required.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.analyze import assert_lint_clean
from repro.core.tree import optimal_tree
from repro.params import LogPParams
from repro.schedule.serialize import schedule_from_json, schedule_to_json
from repro.sim.machine import replay

from tests.oracles import builders as oracle_builders

#: collective -> objects-oracle builder for the specs with a columnar
#: builder (everything else builds object-stored schedules directly)
OBJECTS_ORACLES = {
    "broadcast": lambda params: oracle_builders.schedule_from_tree(
        optimal_tree(params)
    ),
    "all-to-all": oracle_builders.all_to_all_schedule,
    "all-to-all-personalized": oracle_builders.all_to_all_personalized_schedule,
}


def split_case(case: dict) -> tuple[LogPParams, dict]:
    case = dict(case)
    params = LogPParams(
        P=case.pop("P"),
        L=case.pop("L"),
        o=case.pop("o", 0),
        g=case.pop("g", 1),
    )
    return params, case


CASES = [
    pytest.param(spec, case, id=f"{spec.name}-{i}")
    for spec in registry.specs()
    for i, case in enumerate(spec.sample_cases)
]

SPECS_BY_ID = [pytest.param(spec, id=spec.name) for spec in registry.specs()]


class TestEverySpec:
    def test_registry_covers_all_builders(self):
        assert registry.spec_names() == (
            "broadcast",
            "kitem",
            "continuous",
            "all-to-all",
            "summation",
            "allreduce",
            "reduction",
            "scatter",
            "gather",
            "all-to-all-personalized",
            "hier-bcast",
            "hier-reduce",
        )

    @pytest.mark.parametrize("spec", SPECS_BY_ID)
    def test_spec_has_sample_cases_and_metadata(self, spec):
        assert spec.sample_cases, f"{spec.name} has no sample cases"
        assert spec.theorem
        assert spec.paper
        assert spec.summary

    @pytest.mark.parametrize("spec,case", CASES)
    def test_replays_legally(self, spec, case):
        params, extra = split_case(case)
        replay(registry.plan(spec.name, params, **extra))

    @pytest.mark.parametrize("spec,case", CASES)
    def test_lint_clean(self, spec, case):
        params, extra = split_case(case)
        assert_lint_clean(registry.plan(spec.name, params, **extra))

    @pytest.mark.parametrize("spec,case", CASES)
    def test_meets_registered_lower_bound(self, spec, case):
        params, extra = split_case(case)
        schedule = registry.plan(spec.name, params, **extra)
        bound = registry.lower_bound(spec.name, params, **extra)
        assert bound is not None, f"{spec.name} registered no lower bound"
        done = registry.completion(schedule)
        assert done >= bound
        if spec.tight is not None:
            resolved = spec.validate_extra(params, extra)
            if spec.tight(params, **resolved):
                assert done == bound, (
                    f"{spec.name} claims tightness but completes at "
                    f"{done} > bound {bound}"
                )

    @pytest.mark.parametrize("spec,case", CASES)
    def test_serialize_round_trip_every_backend(self, spec, case):
        params, extra = split_case(case)
        blob = schedule_to_json(registry.plan(spec.name, params, **extra))
        assert schedule_to_json(schedule_from_json(blob)) == blob
        oracle = OBJECTS_ORACLES.get(spec.name)
        if oracle is not None:
            # the columnar builder and its per-send oracle loop must
            # serialize to the same bytes
            assert schedule_to_json(oracle(params)) == blob


class TestLookup:
    def test_every_alias_resolves_to_its_spec(self):
        for spec in registry.specs():
            for name in spec.all_names():
                assert registry.get_spec(name) is spec

    def test_alias_plans_identically(self):
        params = LogPParams(P=8, L=6, o=2, g=4)
        assert registry.plan("bcast", params) == registry.plan(
            "broadcast", params
        )

    def test_unknown_collective_is_one_line(self):
        with pytest.raises(ValueError, match=r"unknown collective 'scan'"):
            registry.get_spec("scan")
        try:
            registry.get_spec("scan")
        except ValueError as exc:
            assert "\n" not in str(exc)
            assert "broadcast" in str(exc)  # lists the known names

    def test_names_are_unique(self):
        names = [n for s in registry.specs() for n in s.all_names()]
        assert len(names) == len(set(names))


class TestDomainErrors:
    def test_kitem_rejects_small_P(self):
        with pytest.raises(ValueError, match=r"kitem: P must be >= 2, got 1"):
            registry.plan("kitem", P=1, L=3, k=2)

    def test_kitem_rejects_small_k(self):
        with pytest.raises(ValueError, match=r"kitem: k must be >= 1, got 0"):
            registry.plan("kitem", P=4, L=3, k=0)

    def test_kitem_rejects_non_postal_machine(self):
        with pytest.raises(ValueError, match=r"kitem: requires the postal"):
            registry.plan("kitem", P=4, L=3, o=1, g=2, k=2)

    def test_kitem_requires_k(self):
        with pytest.raises(ValueError, match=r"kitem: missing required"):
            registry.plan("kitem", P=4, L=3)

    def test_unknown_extra_parameter_lists_accepted(self):
        with pytest.raises(
            ValueError, match=r"broadcast: unknown parameter\(s\) k"
        ):
            registry.plan("broadcast", P=4, L=3, k=2)

    def test_non_integer_extra_rejected(self):
        with pytest.raises(ValueError, match=r"kitem: k must be an int"):
            registry.plan("kitem", P=4, L=3, k="many")

    def test_summation_needs_exactly_one_of_n_t(self):
        with pytest.raises(ValueError, match="exactly one"):
            registry.plan("summation", P=4, L=2, n=10, t=9)
        with pytest.raises(ValueError, match="exactly one"):
            registry.plan("summation", P=4, L=2)

    def test_summation_rejects_overlapping_merges_when_g_equals_o(self):
        # node 0 merges several children; with g <= o their o+1-cycle
        # merge windows overlap and Lemma 5.1's cycle count fails
        with pytest.raises(ValueError, match=r"^summation: .*assumes g > o"):
            registry.plan("summation", P=8, L=3, o=2, g=2, n=40)

    def test_continuous_rejects_unreachable_P(self):
        with pytest.raises(ValueError, match=r"nearest valid P is 15"):
            registry.plan("continuous", P=14, L=4, k=3)

    def test_continuous_rejects_small_L(self):
        with pytest.raises(ValueError, match=r"continuous: .* L >= 3"):
            registry.plan("continuous", P=3, L=2, k=3)

    def test_backend_override_must_be_supported(self):
        # no builder supports a compute-backend override any more: the
        # keyword gets the uniform unknown-parameter error
        for name, extra in (("kitem", {"k": 2}), ("broadcast", {})):
            with pytest.raises(
                ValueError, match=rf"{name}: unknown parameter\(s\) backend"
            ):
                registry.plan(name, P=4, L=3, backend="columnar", **extra)

    def test_params_and_machine_kwargs_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            registry.plan("broadcast", LogPParams(P=4, L=3), P=4, L=3)

    def test_machine_kwargs_require_L(self):
        with pytest.raises(ValueError, match="L= is required"):
            registry.plan("broadcast", P=4)

    def test_bad_machine_propagates_params_validation(self):
        with pytest.raises(ValueError):
            registry.plan("broadcast", P=0, L=3)


machines = st.builds(
    lambda P, L, o, dg: LogPParams(P=P, L=L, o=o, g=o + dg),
    P=st.integers(1, 24),
    L=st.integers(1, 10),
    o=st.integers(0, 3),
    dg=st.integers(1, 4),
)

postal_machines = st.builds(
    lambda P, L: LogPParams(P=P, L=L),
    P=st.integers(2, 24),
    L=st.integers(1, 8),
)


class TestHypothesis:
    @settings(max_examples=30, deadline=None)
    @given(params=machines)
    def test_broadcast_always_tight_and_clean(self, params):
        schedule = registry.plan("broadcast", params)
        assert_lint_clean(schedule)
        assert registry.completion(schedule) == registry.lower_bound(
            "broadcast", params
        )

    @settings(max_examples=30, deadline=None)
    @given(params=machines.filter(lambda p: p.P >= 2))
    def test_reduction_mirrors_broadcast_time(self, params):
        schedule = registry.plan("reduction", params)
        assert_lint_clean(schedule)
        assert registry.completion(schedule) == registry.lower_bound(
            "reduction", params
        )

    @settings(max_examples=30, deadline=None)
    @given(params=machines.filter(lambda p: p.P >= 2))
    def test_all_to_all_meets_bound(self, params):
        schedule = registry.plan("all-to-all", params)
        assert_lint_clean(schedule)
        done = registry.completion(schedule)
        bound = registry.lower_bound("all-to-all", params)
        assert done >= bound
        spec = registry.get_spec("all-to-all")
        if spec.tight(params):
            assert done == bound

    @settings(max_examples=30, deadline=None)
    @given(params=postal_machines, k=st.integers(1, 6))
    def test_kitem_clean_and_above_counting_bound(self, params, k):
        schedule = registry.plan("kitem", params, k=k)
        assert_lint_clean(schedule)
        assert registry.completion(schedule) >= registry.lower_bound(
            "kitem", params, k=k
        )

    @settings(max_examples=30, deadline=None)
    @given(
        params=st.builds(
            lambda P, L, o, dg: LogPParams(P=P, L=L, o=o, g=o + dg),
            P=st.integers(1, 10),
            L=st.integers(1, 6),
            o=st.integers(0, 2),
            dg=st.integers(1, 3),
        ),
        n=st.integers(1, 120),
    )
    def test_summation_meets_min_time(self, params, n):
        schedule = registry.plan("summation", params, n=n)
        assert_lint_clean(schedule)
        assert registry.completion(schedule) == registry.lower_bound(
            "summation", params, n=n
        )

    @settings(max_examples=30, deadline=None)
    @given(params=postal_machines)
    def test_allreduce_completes_at_combining_time(self, params):
        schedule = registry.plan("allreduce", params)
        assert_lint_clean(schedule)
        assert registry.completion(schedule) == registry.lower_bound(
            "allreduce", params
        )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_sample_case_round_trips(self, data):
        spec, case = data.draw(st.sampled_from(CASES).map(lambda p: p.values))
        params, extra = split_case(case)
        schedule = registry.plan(spec.name, params, **extra)
        blob = schedule_to_json(schedule)
        assert schedule_to_json(schedule_from_json(blob)) == blob
