"""Unified collective registry and planner.

One lookup table for every collective the repo builds, and one entry
point to build them::

    from repro.registry import plan

    sched = plan("broadcast", P=8, L=6, o=2, g=4)
    sched = plan("kitem", P=10, L=3, k=8)
    sched = plan("summation", P=8, L=5, o=2, g=4, n=79)

Roots other than rank 0 are a relabelling of the root-0 plan
(``repro.schedule.transform.remap`` with ``p -> (p + root) % P``).

:func:`plan` resolves the collective by canonical name or alias,
validates the machine and the collective-specific parameters against the
spec's declared domain (uniform one-line ``ValueError``\\ s instead of
builder-specific crashes), and runs the builder.

The same records drive the CLI's builder tables, the bench harness, the
figure scripts and SCHED008's closed-form optimality bounds
(:func:`closed_form_bound`), so a new collective added to
:mod:`repro.registry.specs` shows up everywhere at once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.params import LogPParams
from repro.registry.spec import BoundQuery, CollectiveSpec, ParamField
from repro.registry.specs import SPECS
from repro.schedule.ops import Schedule

if TYPE_CHECKING:
    from repro.schedule.implicit import ImplicitSchedule

__all__ = [
    "BoundQuery",
    "CollectiveSpec",
    "ParamField",
    "SPECS",
    "specs",
    "spec_names",
    "all_names",
    "get_spec",
    "plan",
    "lower_bound",
    "closed_form_bound",
    "completion",
    "figure_builders",
]

_BY_NAME: dict[str, CollectiveSpec] = {}
for _spec in SPECS:
    for _name in _spec.all_names():
        if _name in _BY_NAME:
            raise RuntimeError(f"duplicate collective name: {_name}")
        _BY_NAME[_name] = _spec
del _spec, _name


def specs() -> tuple[CollectiveSpec, ...]:
    """All registered collective specs, in registration order."""
    return SPECS


def spec_names() -> tuple[str, ...]:
    """Canonical names of all registered collectives."""
    return tuple(s.name for s in SPECS)


def all_names() -> tuple[str, ...]:
    """Every accepted collective name, canonical names first."""
    return tuple(s.name for s in SPECS) + tuple(
        a for s in SPECS for a in s.aliases
    )


def get_spec(name: str) -> CollectiveSpec:
    """Resolve a canonical name or alias to its spec.

    Raises a one-line ``ValueError`` naming the known collectives for
    anything unknown.
    """
    spec = _BY_NAME.get(name)
    if spec is None:
        known = ", ".join(s.name for s in SPECS)
        raise ValueError(f"unknown collective {name!r} (known: {known})")
    return spec


def _machine_from_kwargs(kwargs: dict[str, Any]) -> LogPParams:
    P = kwargs.pop("P", None)
    if P is None:
        raise ValueError(
            "plan: machine parameters missing — pass params=LogPParams(...) "
            "or at least P= and L="
        )
    L = kwargs.pop("L", None)
    if L is None:
        raise ValueError("plan: L= is required when P= is given")
    return LogPParams(P=P, L=L, o=kwargs.pop("o", 0), g=kwargs.pop("g", 1))


def plan(
    name: str,
    params: LogPParams | None = None,
    *,
    storage: str = "materialized",
    cache: Any | None = None,
    execute: str | None = None,
    machine: Any | None = None,
    **kwargs: Any,
) -> Schedule | ImplicitSchedule:
    """Build the named collective's schedule.

    Machine parameters come either as ``params=LogPParams(...)`` or as
    the keywords ``P``/``L``/``o``/``g`` (postal defaults ``o=0, g=1``).
    ``machine=`` names the full topology (a
    :class:`~repro.machine.model.MachineModel`): when given, ``params``
    defaults to ``machine.flat_params`` (and must equal it if passed
    explicitly).  Machine-aware collectives (``hier-bcast``,
    ``hier-reduce``) receive the topology and attach it to the built
    schedule, switching validation/lint/exec to per-edge pricing; other
    collectives accept a :class:`~repro.machine.model.FlatMachine`
    (identical semantics, ignored) and reject anything else.
    Collective-specific parameters (``k``, ``n``, ``t``) are validated
    against the spec's declared domain.

    The returned schedule's ``params`` name the machine it was planned
    for, which is the requested one for every collective but
    ``allreduce``: the combining broadcast exists only at the natural
    sizes ``P(T)``, so a request for ``P`` is planned on the next one,
    ``P(T) >= P`` ranks (``P=7, L=3`` gives a 9-rank plan finishing at
    ``T = 7``, the Thm 4.1 bound for ``P=7``).

    ``storage="implicit"`` returns an O(log P)-state
    :class:`~repro.schedule.implicit.ImplicitSchedule` instead of
    materialized columns, for specs with a closed-form builder
    (broadcast and reduction); an optional ``family=`` keyword selects
    the tree family (``"optimal"``/``"binomial"``).

    ``cache=`` routes the request through a
    :class:`~repro.serve.PlanService` (the content-addressed plan
    cache): hits deserialize the cached canonical plan JSON instead of
    rebuilding.  Cached plans round-trip through serialization, so they
    come back object-stored with redundant time-0 ``source_items``
    normalized away — byte-identical canonical JSON, not identical
    Python object graphs.  ``storage="implicit"`` (an O(log P) build,
    cheaper than any lookup) is rejected alongside ``cache=``.

    ``execute=`` names a transport (``"inproc"``/``"mp"``/``"mpi"``):
    the built schedule is lowered to per-rank programs, run on that
    transport, and verified against the simulator (delivered multisets
    byte-identical) before being returned — "plan it, then prove it
    runs".  Implicit storage is rejected with ``execute=`` (execution
    is inherently O(num_sends); materialize first).
    """
    spec = get_spec(name)
    if machine is not None and not spec.machine_aware and not machine.is_flat:
        aware = ", ".join(s.name for s in SPECS if s.machine_aware)
        raise ValueError(
            f"{spec.name}: does not accept a machine topology "
            f"(machine-aware collectives: {aware})"
        )
    if machine is not None and storage == "implicit":
        raise ValueError(
            f"{spec.name}: machine= does not apply to storage='implicit' "
            f"(per-edge pricing needs materialized columns)"
        )
    if execute is not None and storage == "implicit":
        raise ValueError(
            f"{spec.name}: execute= does not apply to storage='implicit' "
            f"(execution is O(num_sends); build materialized or call "
            f"repro.exec.execute on schedule.materialize())"
        )
    if cache is not None:
        if storage == "implicit":
            raise ValueError(
                f"{spec.name}: cache= does not apply to storage='implicit' "
                f"(implicit plans are O(log P) to build; the serve layer "
                f"caches their materialized form instead)"
            )
        from repro.schedule.serialize import schedule_from_json
        from repro.serve import canonical_request

        if machine is not None and params is None:
            params = machine.flat_params
        request = canonical_request(spec.name, params, machine=machine, **kwargs)
        return _maybe_execute(
            schedule_from_json(cache.plan_json(request)), execute
        )
    if params is None and machine is not None:
        params = machine.flat_params
    if params is None:
        params = _machine_from_kwargs(kwargs)
    elif "P" in kwargs or "L" in kwargs:
        raise ValueError(
            f"{spec.name}: give either params=LogPParams(...) or "
            f"P=/L= keywords, not both"
        )
    if machine is not None and params != machine.flat_params:
        raise ValueError(
            f"{spec.name}: params {params} conflict with the machine's "
            f"flat envelope {machine.flat_params}"
        )
    if storage not in ("materialized", "implicit"):
        raise ValueError(
            f"{spec.name}: storage must be 'materialized' or 'implicit', "
            f"got {storage!r}"
        )
    if spec.check_machine is not None:
        spec.check_machine(params)
    if storage == "implicit":
        if spec.implicit_build is None:
            supported = ", ".join(
                s.name for s in SPECS if s.implicit_build is not None
            )
            raise ValueError(
                f"{spec.name}: no implicit builder "
                f"(storage='implicit' is supported by: {supported})"
            )
        family = kwargs.pop("family", None)
        extra = spec.validate_extra(params, kwargs)
        if family is not None:
            extra["family"] = family
        return spec.implicit_build(params, **extra)
    extra = spec.validate_extra(params, kwargs)
    if spec.machine_aware:
        # machines travel outside the int-only extra_params validation
        extra["machine"] = machine
    return _maybe_execute(spec.build(params, **extra), execute)


def _maybe_execute(schedule: Schedule, execute: str | None) -> Schedule:
    """Run the built schedule on a transport with verification on.

    Raises the exec stack's errors unchanged: ``ValueError`` for an
    unknown transport name,
    :class:`~repro.exec.errors.TransportUnavailable` when the backend
    cannot run here, and
    :class:`~repro.exec.errors.ExecVerificationError` if the delivered
    multiset diverges from the simulator's.
    """
    if execute is None:
        return schedule
    from repro.exec import execute as _run

    _run(schedule, transport=execute, verify=True)
    return schedule


def lower_bound(
    name: str, params: LogPParams, **kwargs: Any
) -> int | None:
    """The spec's closed-form lower bound for this instance, if any."""
    spec = get_spec(name)
    if spec.lower_bound is None:
        return None
    if spec.check_machine is not None:
        spec.check_machine(params)
    extra = spec.validate_extra(params, kwargs)
    return spec.lower_bound(params, **extra)


def closed_form_bound(query: BoundQuery) -> tuple[int, str] | None:
    """Answer a lint-engine bound query from the spec owning the workload.

    Returns ``(bound, kind)`` — the closed-form optimal completion time
    and a human-readable tag naming the theorem — or ``None`` when no
    registered collective has a closed form for the query's workload.
    """
    for spec in SPECS:
        if spec.workload == query.workload and spec.lint_bound is not None:
            return spec.lint_bound(query)
    return None


def completion(schedule: Schedule) -> int:
    """Cycle at which the schedule finishes: last payload arrival or the
    end of the last local computation, whichever is later."""
    from repro.schedule.analysis import completion_time

    done = completion_time(schedule)
    for op in schedule.computes:
        done = max(done, op.time + op.duration)
    return done


def figure_builders() -> dict[str, Any]:
    """Map figure key -> zero-argument figure builder, from the specs.

    Lazily imports :mod:`repro.experiments.figures` so the registry has
    no matplotlib-adjacent import cost on the hot paths.
    """
    from repro.experiments import figures as fig_mod

    out: dict[str, Any] = {}
    for spec in SPECS:
        for key, attr in spec.figures:
            out[key] = getattr(fig_mod, attr)
    return out
