"""Module classification: which conventions apply to which files.

Every REPRO rule targets a *profile* — a convention surface, not a
hard-coded path list scattered through the rules.  A file's profiles
are derived from its repository-relative path (suffix matching, so the
classification works from any checkout root and on explicitly listed
files), or overridden by an in-file pragma::

    # repro: profile=hot,keying

placed in the first :data:`PRAGMA_SCAN_LINES` lines.  The pragma is how
the fixture corpus under ``tests/data/check_corpus/`` opts small
standalone files into the conventions of real modules.

Profiles:

``hot``
    The vectorized hot path: columnar kernels and everything the < 1 s
    lint acceptance test routes through.  No Python-level loops over
    sends (REPRO001).
``keying``
    Serialization / content-addressing modules whose output bytes feed
    sha-256 keys: canonical JSON only (REPRO005), no nondeterminism
    (REPRO006).
``cli``
    CLI-reachable surfaces whose exceptions become user-facing
    ``repro: error:`` one-liners (REPRO008).

Rules that police a convention *everywhere* (bounded caches, lock
discipline, pass invariant declarations) declare no profile at all.
"""

from __future__ import annotations

from pathlib import Path

__all__ = [
    "HOT_MODULES",
    "HOT_PACKAGES",
    "KEYING_MODULES",
    "CLI_MODULES",
    "CLI_PACKAGES",
    "BANNED_CALLS",
    "PRAGMA_SCAN_LINES",
    "classify",
    "pragma_profiles",
]

#: Modules that must stay free of per-send Python loops.  These are the
#: vectorized kernels plus everything the < 1 s lint acceptance test
#: routes through.
HOT_MODULES = [
    "src/repro/schedule/columnar.py",
    "src/repro/schedule/analysis_np.py",
    "src/repro/schedule/implicit.py",
    "src/repro/sim/validate_np.py",
    "src/repro/analyze/context.py",
    "src/repro/analyze/rules.py",
    "src/repro/analyze/engine.py",
    "src/repro/analyze/chunked.py",
    "src/repro/exec/lower.py",
]

#: Whole packages that must stay free of per-send Python loops.  The
#: pass framework promises zero SendOp materialization end to end, so
#: every module under it is hot (the objects oracles live with the test
#: suite).
HOT_PACKAGES = [
    "src/repro/passes",
    # per-edge pricing, composition and healing run inside the plan/lint
    # budget gates, so the whole machine layer is hot
    "src/repro/machine",
]

#: Modules whose serialized bytes feed content hashing / cache keys.
KEYING_MODULES = [
    "src/repro/schedule/serialize.py",
    "src/repro/serve/keys.py",
    "src/repro/serve/cache.py",
    "src/repro/exec/trace.py",
]

#: Single modules on the CLI-reachable error surface.
CLI_MODULES = [
    "src/repro/cli.py",
]

#: Whole packages on the CLI-reachable error surface (their
#: ``ValueError``\ s become one-line ``repro: error:`` diagnostics).
CLI_PACKAGES = [
    "src/repro/registry",
    "src/repro/serve",
    "src/repro/passes",
    "src/repro/analyze",
    "src/repro/checkers",
    "src/repro/exec",
    "src/repro/machine",
]

#: Calling any of these materializes / iterates SendOp objects.
BANNED_CALLS = frozenset({"sorted_sends", "sends_by_proc", "receives_by_proc"})

#: How many leading source lines may carry a ``# repro: profile=`` pragma.
PRAGMA_SCAN_LINES = 10


def _in_package(posix: str, package: str) -> bool:
    return f"{package}/" in posix


def classify(path: str | Path) -> frozenset[str]:
    """The profiles a path belongs to, by repo-relative suffix match."""
    posix = Path(path).as_posix()
    profiles = set()
    if any(posix.endswith(mod) for mod in HOT_MODULES) or any(
        _in_package(posix, pkg) for pkg in HOT_PACKAGES
    ):
        profiles.add("hot")
    if any(posix.endswith(mod) for mod in KEYING_MODULES):
        profiles.add("keying")
    if any(posix.endswith(mod) for mod in CLI_MODULES) or any(
        _in_package(posix, pkg) for pkg in CLI_PACKAGES
    ):
        profiles.add("cli")
    return frozenset(profiles)


def pragma_profiles(source: str) -> frozenset[str] | None:
    """The ``# repro: profile=...`` override, or ``None`` if absent.

    Only the first :data:`PRAGMA_SCAN_LINES` lines are scanned; the
    pragma replaces path classification entirely (``profile=`` with an
    empty list is a valid way to opt a file out of every profile).
    """
    for line in source.splitlines()[:PRAGMA_SCAN_LINES]:
        stripped = line.strip()
        if not stripped.startswith("#"):
            continue
        body = stripped.lstrip("#").strip()
        if not body.startswith("repro:"):
            continue
        directive = body[len("repro:") :].strip()
        if not directive.startswith("profile="):
            continue
        names = directive[len("profile=") :]
        return frozenset(
            part.strip() for part in names.split(",") if part.strip()
        )
    return None
