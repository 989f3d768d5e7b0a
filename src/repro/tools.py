"""Repository tooling: generated API index.

:func:`generate_api_doc` walks the package's public surface (each
module's ``__all__``) and renders ``docs/API.md``; a test asserts the
committed file matches the live package, so the index can't go stale.

Regenerate with::

    python -m repro.tools
"""

from __future__ import annotations

import importlib
import inspect

MODULES = [
    "repro",
    "repro.params",
    "repro.registry",
    "repro.registry.spec",
    "repro.registry.specs",
    "repro.core.fib",
    "repro.core.tree",
    "repro.core.pruning",
    "repro.core.single_item",
    "repro.core.all_to_all",
    "repro.core.combining",
    "repro.core.optimality",
    "repro.core.kitem.bounds",
    "repro.core.kitem.blocks",
    "repro.core.kitem.single_sending",
    "repro.core.kitem.star",
    "repro.core.kitem.buffered",
    "repro.core.continuous.relative",
    "repro.core.continuous.words",
    "repro.core.continuous.assignment",
    "repro.core.continuous.general",
    "repro.core.continuous.schedule",
    "repro.core.continuous.l2",
    "repro.core.summation.capacity",
    "repro.core.summation.schedule",
    "repro.schedule.ops",
    "repro.schedule.columnar",
    "repro.schedule.analysis",
    "repro.schedule.analysis_np",
    "repro.schedule.transform",
    "repro.schedule.serialize",
    "repro.schedule.implicit",
    "repro.passes",
    "repro.passes.base",
    "repro.passes.kernels",
    "repro.passes.library",
    "repro.passes.pipeline",
    "repro.passes.manager",
    "repro.passes.lowering",
    "repro.exec",
    "repro.exec.program",
    "repro.exec.lower",
    "repro.exec.engine",
    "repro.exec.transport",
    "repro.exec.trace",
    "repro.exec.run",
    "repro.exec.errors",
    "repro.serve",
    "repro.serve.keys",
    "repro.serve.cache",
    "repro.serve.service",
    "repro.serve.http",
    "repro.sim.machine",
    "repro.sim.validate",
    "repro.sim.validate_np",
    "repro.sim.trace",
    "repro.analyze",
    "repro.analyze.diagnostics",
    "repro.analyze.context",
    "repro.analyze.rules",
    "repro.analyze.engine",
    "repro.analyze.chunked",
    "repro.analyze.report",
    "repro.checkers",
    "repro.checkers.profiles",
    "repro.checkers.diagnostics",
    "repro.checkers.context",
    "repro.checkers.registry",
    "repro.checkers.rules",
    "repro.checkers.engine",
    "repro.checkers.report",
    "repro.baselines.trees",
    "repro.baselines.kitem",
    "repro.baselines.summation",
    "repro.viz.ascii",
    "repro.viz.tables",
    "repro.viz.digraph",
    "repro.viz.dot",
    "repro.viz.svg",
    "repro.experiments.figures",
    "repro.experiments.sweeps",
    "repro.experiments.ablations",
    "repro.experiments.robustness",
    "repro.experiments.conjecture",
    "repro.comm",
    "repro.loggp",
    "repro.workload",
    "repro.fitting",
    "repro.report",
    "repro.bench",
    "repro.cli",
]

__all__ = ["generate_api_doc", "MODULES"]


def _first_line(obj: object) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0] if doc else ""


def generate_api_doc() -> str:
    """Render the Markdown API index from the live package."""
    lines = [
        "# API index",
        "",
        "Generated from each module's `__all__` by `python -m repro.tools`;",
        "`tests/test_tools.py` keeps this file in sync with the code.",
        "",
    ]
    for name in MODULES:
        module = importlib.import_module(name)
        summary = _first_line(module)
        lines.append(f"## `{name}`")
        if summary:
            lines.append("")
            lines.append(summary)
        lines.append("")
        exported = getattr(module, "__all__", [])
        if name == "repro":
            lines.append(f"Re-exports {len(exported)} core symbols "
                         "(see module groups below).")
            lines.append("")
            continue
        for symbol in exported:
            attr = getattr(module, symbol)
            lines.append(f"- `{symbol}` — {_first_line(attr)}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


if __name__ == "__main__":  # pragma: no cover
    import pathlib

    target = pathlib.Path(__file__).resolve().parents[2] / "docs" / "API.md"
    target.write_text(generate_api_doc())
    print(f"wrote {target}")
