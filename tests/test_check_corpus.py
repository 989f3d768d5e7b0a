"""Corpus regression: planted code defects reproduce pinned diagnostics.

Mirrors ``tests/test_lint_corpus.py`` one tier up.  Each
``tests/data/check_corpus/<name>.py`` plants exactly one rule's
violation (or, for ``clean``, none; for ``suppressed``, only the
stale-suppression meta finding); ``expected.json`` pins the rule ids per
file and ``expected_text.txt`` pins the full rendered report
byte-for-byte, with paths rendered corpus-relative so the pin survives
checkout relocation.

The hypothesis property at the bottom closes the suppression loop:
appending ``# repro: ignore[<rule>]`` to any diagnostic's line removes
exactly that line's findings for that rule — nothing else changes and
no stale-suppression warning appears, because the suppression is used.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkers import (
    UNUSED_SUPPRESSION,
    FileContext,
    check_context,
    check_paths,
    render_text,
    resolve_checkers,
)

CORPUS = Path(__file__).parent / "data" / "check_corpus"
EXPECTED = json.loads((CORPUS / "expected.json").read_text())


def corpus_names():
    return sorted(EXPECTED)


def test_manifest_covers_exactly_the_corpus_files():
    files = {p.stem for p in CORPUS.glob("*.py")}
    assert files == set(EXPECTED)


def test_every_rule_is_exercised_by_some_corpus_file():
    fired = {rule for ids in EXPECTED.values() for rule in ids}
    assert fired == {c.id for c in resolve_checkers()} | {UNUSED_SUPPRESSION}


@pytest.mark.parametrize("name", corpus_names())
def test_pinned_rule_ids(name):
    report = check_paths([CORPUS / f"{name}.py"], display_root=CORPUS)
    assert report.rule_ids() == EXPECTED[name]


def test_full_corpus_report_is_byte_stable():
    report = check_paths([CORPUS], display_root=CORPUS)
    pinned = (CORPUS / "expected_text.txt").read_text()
    assert render_text(report) + "\n" == pinned
    # a second run renders identically (no ambient order, no timestamps)
    again = check_paths([CORPUS], display_root=CORPUS)
    assert render_text(again) == render_text(report)


def test_clean_canary_is_fully_clean():
    report = check_paths([CORPUS / "clean.py"], display_root=CORPUS)
    assert len(report) == 0
    assert report.max_severity is None


def test_removing_a_used_suppression_resurfaces_the_finding():
    source = (CORPUS / "suppressed.py").read_text()
    stripped = source.replace("  # repro: ignore[REPRO005]", "")
    ctx = FileContext.from_source(
        stripped, "suppressed.py", origin=CORPUS / "suppressed.py"
    )
    diags, _ = check_context(ctx, resolve_checkers())
    assert sorted({d.rule for d in diags}) == [UNUSED_SUPPRESSION, "REPRO005"]


def _diagnostic_sites():
    """Every (corpus file, line, rule) a diagnostic anchors to."""
    sites = []
    for name in corpus_names():
        path = CORPUS / f"{name}.py"
        report = check_paths([path], display_root=CORPUS)
        for diag in report.diagnostics:
            if diag.rule != UNUSED_SUPPRESSION:
                sites.append((path, diag.line, diag.rule))
    return sorted(set(sites), key=str)


@settings(max_examples=30, deadline=None)
@given(site=st.sampled_from(_diagnostic_sites()))
def test_suppression_toggles_exactly_the_targeted_diagnostic(site):
    path, line, rule = site
    source = path.read_text()
    before_ctx = FileContext.from_source(source, path.name, origin=path)
    before, _ = check_context(before_ctx, resolve_checkers())

    lines = source.splitlines(keepends=True)
    text = lines[line - 1].rstrip("\n")
    lines[line - 1] = f"{text}  # repro: ignore[{rule}]\n"
    after_ctx = FileContext.from_source("".join(lines), path.name, origin=path)
    after, _ = check_context(after_ctx, resolve_checkers())

    def key(diag):
        return (diag.path, diag.line, diag.rule, diag.message)

    removed = {key(d) for d in before} - {key(d) for d in after}
    added = {key(d) for d in after} - {key(d) for d in before}
    assert removed == {
        key(d) for d in before if d.line == line and d.rule == rule
    }
    assert removed  # the targeted diagnostic really was there
    assert added == set()  # in particular: no REPRO000, it was used
