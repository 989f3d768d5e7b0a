"""Unit tests for the repro.checkers framework + the ``repro check`` CLI.

The corpus regression lives in ``tests/test_check_corpus.py``; this file
covers the framework mechanics (registry resolution, profile targeting,
pragma and suppression parsing, engine errors, SARIF shape) and the two
acceptance gates: the repository checks clean under every rule, and
the full sweep stays fast.
"""

import json
import time

import pytest

from repro.checkers import (
    CHECKERS,
    FileContext,
    Severity,
    check_context,
    check_paths,
    checker_ids,
    classify,
    expand_paths,
    get_checker,
    parse_suppressions,
    pragma_profiles,
    resolve_checkers,
    to_sarif,
)
from repro.cli import main

#: the catalogue (REPRO002 is retired; its id is not reused)
ALL_RULES = [f"REPRO{i:03d}" for i in (1, 3, 4, 5, 6, 7, 8)]


# -- registry -------------------------------------------------------------


def test_all_rules_are_registered():
    assert checker_ids() == ALL_RULES


def test_get_checker_resolves_ids_and_names():
    assert get_checker("REPRO001").name == "hot-loop-over-sends"
    assert get_checker("hot-loop-over-sends").id == "REPRO001"
    with pytest.raises(ValueError, match="unknown rule"):
        get_checker("REPRO999")


def test_resolve_checkers_select_ignore():
    assert [c.id for c in resolve_checkers()] == ALL_RULES
    assert [c.id for c in resolve_checkers(select=["REPRO005"])] == ["REPRO005"]
    assert [
        c.id for c in resolve_checkers(ignore=["REPRO003", "opaque-raise"])
    ] == [r for r in ALL_RULES if r not in ("REPRO003", "REPRO008")]
    # selection order does not matter: runs happen in catalogue order
    assert [
        c.id for c in resolve_checkers(select=["REPRO007", "REPRO001"])
    ] == ["REPRO001", "REPRO007"]


def test_profile_predicates():
    hot = get_checker("REPRO001")
    assert hot.applies(frozenset({"hot"}))
    assert not hot.applies(frozenset())
    keying = get_checker("REPRO005")
    assert keying.applies(frozenset({"keying", "cli"}))
    assert not keying.applies(frozenset({"cli"}))
    everywhere = get_checker("REPRO003")
    assert everywhere.applies(frozenset())
    assert all(c.severity in (Severity.ERROR, Severity.WARNING) for c in CHECKERS)


# -- profiles / pragmas ---------------------------------------------------


def test_classify_by_path_suffix():
    assert "hot" in classify("src/repro/schedule/columnar.py")
    assert "hot" in classify("/abs/checkout/src/repro/passes/library.py")
    assert "keying" in classify("src/repro/serve/cache.py")
    assert "cli" in classify("src/repro/cli.py")
    assert "cli" in classify("src/repro/serve/service.py")
    assert classify("tests/test_checkers.py") == frozenset()


def test_pragma_overrides_path_classification():
    assert pragma_profiles("# repro: profile=hot,keying\nx = 1\n") == {
        "hot",
        "keying",
    }
    # empty list opts out of every profile
    assert pragma_profiles("# repro: profile=\nx = 1\n") == frozenset()
    assert pragma_profiles("x = 1\n") is None
    # only the leading lines are scanned
    late = "\n" * 20 + "# repro: profile=hot\n"
    assert pragma_profiles(late) is None


# -- suppressions ---------------------------------------------------------


def test_parse_suppressions():
    source = (
        "x = 1\n"
        "y = f()  # repro: ignore[REPRO005]\n"
        "z = g()  # repro: ignore[REPRO001, REPRO003] -- rationale\n"
    )
    assert parse_suppressions(source) == {
        2: {"REPRO005"},
        3: {"REPRO001", "REPRO003"},
    }


def test_unused_suppression_only_for_rules_that_ran():
    source = "# repro: profile=\nx = sorted([3, 1])  # repro: ignore[REPRO005]\n"
    ctx = FileContext.from_source(source, "mem.py")
    # REPRO005 requires the keying profile, so it never ran: no REPRO000
    diags, ran = check_context(ctx, resolve_checkers())
    assert "REPRO005" not in ran
    assert diags == []


# -- engine ---------------------------------------------------------------


def test_expand_paths_missing_is_an_error(tmp_path):
    with pytest.raises(ValueError, match="missing files"):
        expand_paths([tmp_path / "nope.py"])


def test_syntax_error_is_a_one_line_value_error(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(:\n")
    with pytest.raises(ValueError, match="cannot parse"):
        check_paths([bad])


def test_diagnostics_sorted_by_path_line_rule(tmp_path):
    a = tmp_path / "a.py"
    a.write_text(
        "# repro: profile=cli\n"
        "def g():\n"
        "    raise RuntimeError\n"
        "def f():\n"
        "    raise ValueError\n"
    )
    report = check_paths([a])
    assert [d.line for d in report.diagnostics] == [3, 5]


# -- the repository's own acceptance gates --------------------------------


def test_repo_checks_clean_under_all_rules():
    report = check_paths(["src/repro"])
    assert report.rules_run == ALL_RULES
    assert report.diagnostics == []


def test_full_sweep_is_fast():
    started = time.perf_counter()
    check_paths(["src/repro"])
    assert time.perf_counter() - started < 5.0


# -- CLI ------------------------------------------------------------------


def test_cli_check_clean_tree_exits_zero(capsys):
    assert main(["check", "src/repro"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("repro-check: ")
    assert "summary: 0 errors, 0 warnings, 0 info" in out


def test_cli_check_fails_on_violations(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("# repro: profile=cli\ndef f():\n    raise ValueError\n")
    assert main(["check", str(bad)]) == 1  # warning >= default --fail-on
    assert main(["check", "--fail-on", "error", str(bad)]) == 0
    assert main(["check", "--fail-on", "never", str(bad)]) == 0
    capsys.readouterr()
    assert main(["check", "--ignore", "REPRO008", str(bad)]) == 0


def test_cli_check_usage_errors_exit_two(tmp_path, capsys):
    assert main(["check", str(tmp_path / "ghost.py")]) == 2
    assert "repro: error:" in capsys.readouterr().err
    assert main(["check", "--select", "BOGUS", "src/repro"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_check_sarif_shape(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("# repro: profile=cli\ndef f():\n    raise ValueError\n")
    main(["check", "--format", "sarif", str(bad)])
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-check"
    (result,) = run["results"]
    assert result["ruleId"] == "REPRO008"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("bad.py")
    assert location["region"]["startLine"] == 3
    assert run["properties"]["ruleTotals"] == {"REPRO008": 1}


def test_sarif_rules_metadata_lists_ran_rules():
    doc = to_sarif(check_paths(["src/repro/params.py"]))
    rules = doc["runs"][0]["tool"]["driver"]["rules"]
    ids = [r["id"] for r in rules]
    # params.py is not a hot module: REPRO001 must NOT have run
    assert "REPRO001" not in ids
    assert "REPRO003" in ids
