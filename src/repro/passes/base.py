"""Pass framework core: the :class:`SchedulePass` contract + registry.

A *pass* is a schedule-to-schedule rewrite with declared invariants,
mirroring the MLIR/xdsl shape: a class with a canonical ``name``, typed
constructor parameters, and a ``run(Schedule) -> Schedule`` method that
returns a **new** schedule (the input is never mutated).  Passes are
registered by name in a registry mirroring :mod:`repro.registry`, which
is what makes the textual pipeline syntax
(:func:`repro.passes.pipeline.parse_pipeline`) and the CLI ``repro opt
--pipeline ...`` possible.

Declared invariants (checked by :class:`repro.passes.manager.PassManager`
when verification is on):

``preserves_legality``
    The output replays legally whenever the input does.  Every built-in
    pass preserves legality; the flag exists so the manager knows whether
    newly *introduced* lint errors are the pass's fault.

``preserves_completion``
    The output's completion time **relative to its start time** (the
    makespan) equals the input's.  Measured relative so that pure time
    translation (``shift``) preserves it; passes that genuinely change
    the critical path (``concat``, ``restrict``, ``prune-dead-sends``,
    ``compact-time``) declare ``False``.

Every pass runs one vectorized columnar kernel
(:mod:`repro.passes.kernels`, or :mod:`repro.machine.heal` for
``heal``); the pure-Python oracles the kernels are property-tested
against live with the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, ClassVar, TypeVar

from repro.schedule.ops import Schedule

if TYPE_CHECKING:  # implicit IR is optional at runtime for this module
    from repro.schedule.implicit import ImplicitSchedule

__all__ = [
    "SchedulePass",
    "PassSpec",
    "refuse_implicit",
    "register_pass",
    "get_pass_cls",
    "get_pass_spec",
    "pass_names",
    "pass_specs",
    "make_pass",
]


class SchedulePass:
    """One verified schedule rewrite (see module docstring).

    Subclasses set the class attributes, accept their parameters in
    ``__init__`` (keyword-friendly, so :func:`make_pass` can build them
    from parsed pipeline text), and implement :meth:`run`.  ``run`` may
    populate :attr:`stats` with pass-specific counters (e.g. reclaimed
    cycles); the manager snapshots it into the pass record.
    """

    #: Canonical registry name (kebab-case, e.g. ``"prune-dead-sends"``).
    name: ClassVar[str] = ""
    #: One-line human summary (rendered by ``repro opt --list-passes``).
    summary: ClassVar[str] = ""
    #: Constructor-parameter syntax for the pipeline grammar, or ``""``.
    params_doc: ClassVar[str] = ""
    #: Output replays legally whenever the input does.
    preserves_legality: ClassVar[bool] = True
    #: Output makespan (completion minus start time) equals the input's.
    preserves_completion: ClassVar[bool] = True

    def __init__(self) -> None:
        self.stats: dict[str, Any] = {}

    def params(self) -> dict[str, Any]:
        """Constructor parameters, for :meth:`describe` and records."""
        return {}

    def describe(self) -> str:
        """Round-trippable pipeline syntax, e.g. ``shift{offset=5}``."""
        params = self.params()
        if not params:
            return self.name
        inner = ",".join(f"{key}={value}" for key, value in params.items())
        return f"{self.name}{{{inner}}}"

    def run(self, schedule: Schedule) -> Schedule:
        """Apply the pass; returns a new schedule, never mutates input."""
        raise NotImplementedError

    def run_implicit(self, schedule: "ImplicitSchedule") -> "ImplicitSchedule":
        """Apply the pass to an implicit schedule as a query rewrite.

        Only passes expressible as O(1) closed-form rewrites override
        this (``shift``, ``remap``); anything else would have to expand
        the plan to O(num_sends) columns, which defeats the implicit IR,
        so the default refuses loudly instead of materializing behind
        the caller's back.
        """
        raise TypeError(
            f"pass {self.name!r} would materialize an implicit schedule; "
            f"run it on schedule.materialize() if O(num_sends) memory is "
            f"acceptable"
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


def refuse_implicit(
    reason: str,
) -> Callable[[SchedulePass, "ImplicitSchedule"], "ImplicitSchedule"]:
    """An explicit, documented ``run_implicit`` refusal for a class body.

    Passes that cannot rewrite an implicit plan in O(1) declare it
    loudly instead of inheriting the base refusal silently::

        run_implicit = refuse_implicit("canonical order is a column property")

    The declaration is what REPRO007 (``repro check``) looks for: every
    registered pass either implements ``run_implicit`` or carries one of
    these, so "this pass materializes" is always a reviewed decision,
    never an accident of inheritance.  The raised message keeps the
    ``would materialize`` phrasing of the base refusal.
    """

    def run_implicit(
        self: SchedulePass, schedule: "ImplicitSchedule"
    ) -> "ImplicitSchedule":
        raise TypeError(
            f"pass {self.name!r} would materialize an implicit schedule "
            f"({reason}); run it on schedule.materialize() if O(num_sends) "
            f"memory is acceptable"
        )

    return run_implicit


@dataclass(frozen=True)
class PassSpec:
    """Registry record for one pass (mirrors ``registry.CollectiveSpec``)."""

    name: str
    summary: str
    params_doc: str
    preserves_legality: bool
    preserves_completion: bool
    cls: type[SchedulePass]


_REGISTRY: dict[str, type[SchedulePass]] = {}

_P = TypeVar("_P", bound=type[SchedulePass])


def register_pass(cls: _P) -> _P:
    """Class decorator: add ``cls`` to the pass registry under its name."""
    name = cls.name
    if not name:
        raise ValueError(f"pass class {cls.__name__} declares no name")
    if name in _REGISTRY:
        raise ValueError(f"pass {name!r} is already registered")
    _REGISTRY[name] = cls
    return cls


def pass_names() -> tuple[str, ...]:
    """Registered pass names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_pass_cls(name: str) -> type[SchedulePass]:
    """The pass class registered under ``name``; raises on unknown names."""
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValueError(
            f"unknown pass {name!r} (known: {', '.join(pass_names())})"
        )
    return cls


def get_pass_spec(name: str) -> PassSpec:
    """The :class:`PassSpec` record for ``name``."""
    cls = get_pass_cls(name)
    return PassSpec(
        name=cls.name,
        summary=cls.summary,
        params_doc=cls.params_doc,
        preserves_legality=cls.preserves_legality,
        preserves_completion=cls.preserves_completion,
        cls=cls,
    )


def pass_specs() -> tuple[PassSpec, ...]:
    """Every registered pass's spec, sorted by name."""
    return tuple(get_pass_spec(name) for name in pass_names())


def make_pass(name: str, **params: Any) -> SchedulePass:
    """Instantiate a registered pass from keyword parameters.

    Constructor signature mismatches (unknown or missing parameters) are
    reported as ``ValueError`` so pipeline-text errors surface uniformly.
    """
    cls = get_pass_cls(name)
    ctor: Callable[..., SchedulePass] = cls
    try:
        return ctor(**params)
    except TypeError as exc:
        raise ValueError(f"pass {name!r}: {exc}") from None
