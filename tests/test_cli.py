"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_machine_args(self):
        args = build_parser().parse_args(
            ["plan", "broadcast", "--P", "8", "--L", "6", "--o", "2", "--g", "4"]
        )
        assert (args.P, args.L, args.o, args.g) == (8, 6, 2, 4)

    def test_sum_requires_n_or_t(self, capsys):
        assert main(["plan", "summation", "--P", "4", "--L", "2"]) == 2
        assert "exactly one of n=" in capsys.readouterr().err


class TestCommands:
    def test_plan_bcast(self, capsys):
        fig1 = ["--P", "8", "--L", "6", "--o", "2", "--g", "4"]
        assert main(["plan", "broadcast", *fig1]) == 0
        assert "completes in 24 cycles" in capsys.readouterr().out
        # the classic-shape comparison lives in the machine report
        assert main(["report", *fig1]) == 0
        out = capsys.readouterr().out
        assert "B(P) = 24" in out
        assert "| binomial |" in out

    def test_plan_bcast_tree_and_timeline(self, capsys):
        main(["report", "--P", "4", "--L", "2"])
        assert "P0 @0" in capsys.readouterr().out  # tree
        main(["plan", "broadcast", "--P", "4", "--L", "2", "--timeline"])
        assert "P0 " in capsys.readouterr().out  # timeline rows

    def test_plan_kitem(self, capsys):
        assert main(["plan", "kitem", "--P", "10", "--L", "3", "--k", "8"]) == 0
        out = capsys.readouterr().out
        assert "completes in 17 cycles" in out
        assert "lower bound of 15" in out

    def test_plan_kitem_table(self, capsys):
        main(["plan", "kitem", "--P", "5", "--L", "2", "--k", "3", "--timeline"])
        out = capsys.readouterr().out
        assert "completes in 8 cycles" in out
        assert "P4 " in out  # one timeline row per rank

    def test_plan_sum_by_n(self, capsys):
        assert main([
            "plan", "summation",
            "--P", "8", "--L", "5", "--o", "2", "--g", "4", "--n", "79",
        ]) == 0
        out = capsys.readouterr().out
        assert "completes in 28 cycles" in out

    def test_plan_sum_by_t(self, capsys):
        main(["plan", "summation", "--P", "4", "--L", "2", "--t", "10"])
        out = capsys.readouterr().out
        assert "(t=10)" in out
        assert "completes in 10 cycles" in out

    def test_plan_sum_g_equal_o_is_a_usage_error(self, capsys):
        argv = ["--P", "8", "--L", "3", "--o", "2", "--g", "2", "--n", "40"]
        assert main(["plan", "summation", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: summation: ")
        assert "assumes g > o" in err
        assert err.count("\n") == 1

    def test_plan_allreduce(self, capsys):
        assert main(["plan", "allreduce", "--P", "9", "--L", "3"]) == 0
        out = capsys.readouterr().out
        assert "completes in 7 cycles" in out
        assert "planned on" not in out  # 9 = P(7) is a natural size

    def test_plan_allreduce_names_the_rounded_machine(self, capsys):
        assert main(["plan", "allreduce", "--P", "7", "--L", "3"]) == 0
        out = capsys.readouterr().out
        assert "planned on P(T) = 9 processors, rounded up from P = 7" in out
        assert "matches the Thm 4.1 lower bound of 7" in out

    def test_plan_sum_names_the_participating_subset(self, capsys):
        argv = ["--P", "8", "--L", "5", "--o", "2", "--g", "4", "--n", "5"]
        assert main(["plan", "summation", *argv]) == 0
        # five operands sum fastest on one processor, with no sends
        assert "planned on 1 of the P = 8 processors" in capsys.readouterr().out

    def test_import_does_not_load_networkx(self):
        # networkx is only needed for the graph exports; the CLI's cold
        # start must not pay for it
        code = "import repro.cli, sys; assert 'networkx' not in sys.modules"
        env = dict(os.environ, PYTHONPATH=SRC)
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_figures_single(self, capsys):
        assert main(["figures", "--only", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "B(P) = 24" in out

    def test_report(self, capsys):
        assert main(["report", "--P", "8", "--L", "6", "--o", "2", "--g", "4"]) == 0
        out = capsys.readouterr().out
        assert "# LogP collectives report" in out
        assert "B(P) = 24" in out
        assert "Summation" in out


class TestRegistryCommands:
    def test_builders_lists_specs_with_theorem_tags(self, capsys):
        from repro import registry

        assert main(["builders"]) == 0
        out = capsys.readouterr().out
        for spec in registry.specs():
            assert spec.name in out
            assert spec.theorem in out

    def test_builders_names_matches_registry(self, capsys):
        from repro import registry

        assert main(["builders", "--names"]) == 0
        names = capsys.readouterr().out.split()
        assert tuple(names) == registry.spec_names()

    def test_plan_reports_tight_bound(self, capsys):
        assert main(
            ["plan", "broadcast", "--P", "8", "--L", "6", "--o", "2", "--g", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "completes in 24 cycles" in out
        assert "matches the Thm 2.1 lower bound of 24" in out

    def test_plan_accepts_aliases(self, capsys):
        assert main(["plan", "a2a", "--P", "4", "--L", "2"]) == 0
        assert "all-to-all" in capsys.readouterr().out

    def test_plan_unknown_collective_one_line_diagnostic(self, capsys):
        assert main(["plan", "scan", "--P", "4", "--L", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: unknown collective 'scan'")
        assert err.count("\n") == 1  # exactly one diagnostic line

    def test_plan_out_of_domain_one_line_diagnostic(self, capsys):
        assert main(["plan", "kitem", "--P", "1", "--L", "3", "--k", "2"]) == 2
        err = capsys.readouterr().err
        assert "repro: error: kitem: P must be >= 2, got 1" in err
        assert main(["plan", "kitem", "--P", "4", "--L", "3", "--k", "0"]) == 2
        assert "k must be >= 1" in capsys.readouterr().err


class TestLintCommand:
    def test_lint_builders_are_error_free(self, capsys):
        from repro import registry

        for builder in registry.spec_names():
            assert main(["lint", "--builder", builder]) == 0, builder
            out = capsys.readouterr().out
            assert "summary: 0 errors" in out

    def test_lint_builder_aliases_accepted(self, capsys):
        assert main(["lint", "--builder", "bcast"]) == 0
        assert "workload=broadcast" in capsys.readouterr().out

    def test_lint_unknown_builder_one_line_diagnostic(self, capsys):
        assert main(["lint", "--builder", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: unknown collective 'bogus'")
        assert err.count("\n") == 1

    def test_lint_malformed_json_one_line_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["lint", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: {path}: malformed JSON")
        assert err.count("\n") == 1

    def test_lint_missing_file_one_line_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert main(["lint", str(path)]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_lint_file_and_builder_conflict(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text("{}")
        assert main(["lint", str(path), "--builder", "bcast"]) == 2
        err = capsys.readouterr().err
        assert "not both" in err
        assert err.count("\n") == 1

    def test_lint_neither_file_nor_builder(self, capsys):
        assert main(["lint"]) == 2
        assert "schedule JSON file or --builder" in capsys.readouterr().err

    def test_lint_from_file(self, tmp_path, capsys):
        from repro.core.single_item import optimal_broadcast_schedule
        from repro.params import LogPParams
        from repro.schedule.serialize import dump_schedule

        path = tmp_path / "bcast.json"
        dump_schedule(
            optimal_broadcast_schedule(LogPParams(P=8, L=6, o=2, g=4)), path
        )
        assert main(["lint", str(path)]) == 0
        assert "workload=broadcast" in capsys.readouterr().out

    def test_lint_fail_on_escalation(self, tmp_path, capsys):
        from repro.params import postal
        from repro.schedule.ops import Schedule, SendOp
        from repro.schedule.serialize import dump_schedule

        # legal but wasteful: proc 1 is delivered item 0 twice
        sched = Schedule(
            postal(3, 2),
            sends=[SendOp(0, 0, 1, 0), SendOp(1, 0, 2, 0), SendOp(4, 2, 1, 0)],
            initial={0: {0}},
        )
        path = tmp_path / "wasteful.json"
        dump_schedule(sched, path)
        assert main(["lint", str(path)]) == 0  # warnings pass --fail-on error
        capsys.readouterr()
        assert main(["lint", str(path), "--fail-on", "warning"]) == 1
        out = capsys.readouterr().out
        assert "SCHED005" in out
        assert main(["lint", str(path), "--fail-on", "never"]) == 0

    def test_lint_json_output_is_sarif(self, capsys):
        import json

        assert main(["lint", "--builder", "bcast", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-schedule-lint"

    def test_lint_select_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            main(["lint", "--builder", "bcast", "--select", "SCHED042"])


class TestOptCommand:
    def test_opt_builder_pipeline(self, capsys):
        assert main([
            "opt", "--builder", "bcast", "-P", "8", "-L", "6", "--o", "2",
            "--g", "4", "--pipeline", "reverse,canonicalize", "--verify-each",
        ]) == 0
        out = capsys.readouterr().out
        assert "[1] reverse" in out
        assert "[verified]" in out
        assert "pipeline: 2 passes" in out

    def test_opt_list_passes(self, capsys):
        assert main(["opt", "--list-passes"]) == 0
        out = capsys.readouterr().out
        for name in ("shift", "remap", "reverse", "concat", "restrict",
                     "canonicalize", "prune-dead-sends", "compact-time"):
            assert name in out
        assert "[LC]" in out  # legality+completion preserving passes

    def test_opt_requires_pipeline(self, capsys):
        assert main(["opt", "--builder", "bcast"]) == 2
        err = capsys.readouterr().err
        assert "requires --pipeline" in err
        assert err.count("\n") == 1

    def test_opt_unknown_pass_one_line_diagnostic(self, capsys):
        assert main(["opt", "--builder", "bcast", "--pipeline", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: unknown pass 'bogus'")
        assert err.count("\n") == 1

    def test_opt_file_and_builder_conflict(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text("{}")
        assert main([
            "opt", str(path), "--builder", "bcast", "--pipeline", "canonicalize",
        ]) == 2
        assert "not both" in capsys.readouterr().err

    def test_opt_verification_failure_exits_one(self, capsys):
        # shifting by a huge offset keeps legality, so use a pipeline
        # whose parse succeeds but whose run violates an invariant:
        # shift below cycle 0 raises ValueError inside the pass
        assert main([
            "opt", "--builder", "bcast", "--pipeline", "shift{offset=-1}",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")

    def test_opt_out_roundtrips(self, tmp_path, capsys):
        from repro.schedule.serialize import load_schedule
        from repro.sim.machine import replay

        path = tmp_path / "opt.json"
        assert main([
            "opt", "--builder", "all-to-all", "-P", "6", "-L", "2",
            "--pipeline", "reverse,canonicalize", "--out", str(path),
        ]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        replay(load_schedule(path))

    def test_opt_json_output_is_sarif(self, capsys):
        import json

        assert main([
            "opt", "--builder", "bcast", "--pipeline", "canonicalize",
            "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
