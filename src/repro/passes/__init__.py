"""Verified schedule-transformation passes over the columnar IR (S33).

The package unifies every schedule-to-schedule rewrite behind one
MLIR/xdsl-shaped framework:

- :mod:`repro.passes.base` — the :class:`SchedulePass` contract, declared
  invariants, and the pass registry (``register_pass`` / ``make_pass``).
- :mod:`repro.passes.kernels` — vectorized columnar kernels (no SendOp
  materialization; ``repro check`` REPRO001 enforces it).
- :mod:`repro.passes.library` — the built-in passes: the five ported
  transforms (shift/remap/reverse/concat/restrict) plus the three
  normalizers (canonicalize / prune-dead-sends / compact-time).
- :mod:`repro.passes.lowering` — the ``lower`` pass bridging to the
  execution stack (:mod:`repro.exec`): schedule in, schedule out, with
  the compiled per-rank programs stashed on the pass instance.
- :mod:`repro.passes.pipeline` — textual pipeline parsing
  (``"shift{offset=5},canonicalize"``).
- :mod:`repro.passes.manager` — :class:`PassManager` with differential
  lint verification between passes (``verify=errors|all|off``).

Quick start::

    from repro.passes import run_pipeline
    fast = run_pipeline("reverse,canonicalize,prune-dead-sends",
                        schedule, verify="errors")
"""

from repro.passes.base import (
    PassSpec,
    SchedulePass,
    get_pass_cls,
    get_pass_spec,
    make_pass,
    pass_names,
    pass_specs,
    register_pass,
)
from repro.passes.library import (
    CanonicalizePass,
    CompactTimePass,
    ConcatPass,
    HealPass,
    PruneDeadSendsPass,
    RemapPass,
    RestrictPass,
    ReversePass,
    ShiftPass,
)
from repro.passes.lowering import LowerPass
from repro.passes.manager import (
    ERROR_RULES,
    PassManager,
    PassRecord,
    PassVerificationError,
    run_pipeline,
)
from repro.passes.pipeline import format_pipeline, parse_pipeline

__all__ = [
    "SchedulePass",
    "PassSpec",
    "register_pass",
    "get_pass_cls",
    "get_pass_spec",
    "pass_names",
    "pass_specs",
    "make_pass",
    "ShiftPass",
    "RemapPass",
    "ReversePass",
    "ConcatPass",
    "RestrictPass",
    "HealPass",
    "CanonicalizePass",
    "PruneDeadSendsPass",
    "CompactTimePass",
    "LowerPass",
    "parse_pipeline",
    "format_pipeline",
    "PassManager",
    "PassRecord",
    "PassVerificationError",
    "ERROR_RULES",
    "run_pipeline",
]
