"""Command-line interface.

Usage::

    python -m repro.cli builders   [--names]
    python -m repro.cli plan <collective> --P 8 --L 6 --o 2 --g 4 [--k N]
    python -m repro.cli report     --P 8 --L 6 --o 2 --g 4
    python -m repro.cli figures    [--only 1 2 ...]
    python -m repro.cli sweeps
    python -m repro.cli bench      [--out BENCH.json] [--repeat N] [--quick]
    python -m repro.cli serve      [--port 8040] [--capacity N] [--cache-dir DIR]
    python -m repro.cli lint       <schedule.json> [--format text|json]
    python -m repro.cli lint       --builder bcast --P 8 --L 6 --o 2 --g 4
    python -m repro.cli check      src/repro [--format text|sarif]
    python -m repro.cli check      --select REPRO001,REPRO007 src/repro/passes
    python -m repro.cli opt        <schedule.json> --pipeline "shift{offset=5}"
    python -m repro.cli opt        --builder all-to-all -P 1024 \
                                   --pipeline "reverse,canonicalize" --verify-each
    python -m repro.cli opt        --list-passes
    python -m repro.cli run        <schedule.json> [--transport inproc|mp|mpi]
    python -m repro.cli run        --builder bcast -P 8 -L 6 --o 2 --g 4 --verify

The builder tables behind ``plan``, ``figures`` and ``lint --builder``
are not written here: they come from the collective registry
(:mod:`repro.registry`), so a collective registered there is planable,
lintable and figure-capable with no CLI change.  ``builders`` lists the
registered specs with their optimality-theorem tags.

All plans are validated on the LogP simulator before being printed, so
any output you see corresponds to a legal execution.  The ``lint``
subcommand is the exception by design: it runs the *static* rule sweep
(:mod:`repro.analyze`) over a schedule — from a JSON file or built
fresh with any registered builder — with no simulation, and exits
non-zero if anything at or above ``--fail-on`` (default: ``error``)
fires.

``check`` is the same idea one tier up: the REPRO codebase
checkers (:mod:`repro.checkers`) sweep Python *source files* for the
conventions this repository's performance story rests on, defaulting to
``--fail-on warning`` so a clean tree stays clean.

``opt`` drives the pass framework (:mod:`repro.passes`): it parses a
textual pipeline, runs it through the :class:`~repro.passes.PassManager`
(``--verify-each`` re-lints SCHED001-003 between passes), reports
per-pass send/makespan deltas, and can write the result (``--out``) or
emit the final lint as SARIF (``--format json``).  A verification
failure exits 1 with a one-line diagnostic.

``run`` leaves the simulator entirely: it lowers the schedule to
per-rank programs (:mod:`repro.exec`) and executes them on a real
transport — ``inproc`` threads (deterministic default), ``mp``
processes, or ``mpi`` when mpi4py is installed.  ``--verify`` replays
the same schedule on the simulator and asserts the delivered
(src, dst, item) multisets are byte-identical; divergence or a runtime
failure (timeout, dead worker) exits 1 with a ``repro: error:`` line.

Usage errors (unknown collective, malformed schedule JSON, conflicting
inputs, out-of-domain parameters) exit with status 2 after a one-line
``repro: error: ...`` diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import sys

from repro import registry
from repro.params import LogPParams
from repro.sim.machine import replay
from repro.viz.ascii import render_schedule_activity

__all__ = ["main"]


def _machine(args: argparse.Namespace) -> LogPParams:
    return LogPParams(P=args.P, L=args.L, o=args.o, g=args.g)


def _machine_model(args: argparse.Namespace):
    """The ``--machine`` topology, parsed, or ``None`` for the flat model.

    Raises ``ValueError`` for a malformed spec string.  The flat
    ``--P/--L/--o/--g`` flags only feed a ``flat`` spec; ``hier:...``
    specs carry their own level parameters.
    """
    spec = getattr(args, "machine", None)
    if spec is None:
        return None
    from repro.machine.model import machine_from_spec

    params = None
    if getattr(args, "P", None) is not None and getattr(args, "L", None) is not None:
        params = _machine(args)
    return machine_from_spec(spec, params)


def _usage_error(msg: str) -> int:
    """One-line diagnostic on stderr, exit status 2 (argparse convention)."""
    print(f"repro: error: {msg}", file=sys.stderr)
    return 2


def _spec_extra(
    spec: registry.CollectiveSpec, args: argparse.Namespace
) -> dict[str, int]:
    """Collect the spec's extra parameters from the parsed CLI flags.

    Summation's ``n``/``t`` pair is mutually exclusive: an explicit
    ``--t`` wins over the (possibly defaulted) ``--n``.
    """
    names = {p.name for p in spec.extra_params}
    extra: dict[str, int] = {}
    if "k" in names and getattr(args, "k", None) is not None:
        extra["k"] = args.k
    if "t" in names and getattr(args, "t", None) is not None:
        extra["t"] = args.t
    elif "n" in names and getattr(args, "n", None) is not None:
        extra["n"] = args.n
    return extra


def cmd_builders(args: argparse.Namespace) -> int:
    """List the registered collective builders (the registry, rendered)."""
    if args.names:
        for spec in registry.specs():
            print(spec.name)
        return 0
    for spec in registry.specs():
        extras = " ".join(f"--{p.name}" for p in spec.extra_params)
        aliases = f" (aka {', '.join(spec.aliases)})" if spec.aliases else ""
        print(f"{spec.name:<11} [{spec.theorem}] {spec.summary}{aliases}")
        detail = f"    {spec.paper}"
        if extras:
            detail += f"; extra flags: {extras}"
        print(detail)
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """Build any registered collective and report completion vs. bound."""
    try:
        model = _machine_model(args)
        if model is None:
            if args.P is None or args.L is None:
                raise ValueError(
                    f"{args.collective}: --P and --L are required "
                    f"(or give --machine SPEC)"
                )
            params = _machine(args)
        else:
            params = model.flat_params
        spec = registry.get_spec(args.collective)
        extra = _spec_extra(spec, args)
        schedule = registry.plan(spec.name, params, machine=model, **extra)
        bound = registry.lower_bound(spec.name, params, **extra)
    except ValueError as exc:
        return _usage_error(str(exc))
    replay(schedule)
    done = registry.completion(schedule)
    extras = ", ".join(f"{k}={v}" for k, v in extra.items())
    target = params if model is None else model
    line = f"{spec.name} on {target}"
    if extras:
        line += f" ({extras})"
    print(line)
    planned = schedule.params.P
    if planned > params.P:
        # allreduce plans on the next natural size P(T) >= P
        print(
            f"  planned on P(T) = {planned} processors, "
            f"rounded up from P = {params.P}"
        )
    elif planned < params.P:
        # summation may finish sooner on a subset of the processors
        print(f"  planned on {planned} of the P = {params.P} processors")
    print(f"  completes in {done} cycles")
    if bound is not None:
        gap = done - bound
        verdict = "matches" if gap == 0 else f"{gap} above"
        print(f"  {verdict} the {spec.theorem} lower bound of {bound}")
    if args.timeline:
        print()
        print(render_schedule_activity(schedule))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.report import machine_report

    print(machine_report(_machine(args)))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    builders = registry.figure_builders()
    wanted = args.only or sorted(builders)
    for key in wanted:
        fig = builders.get(str(key))
        if fig is None:
            return _usage_error(
                f"unknown figure {key!r} (known: {', '.join(sorted(builders))})"
            )
        print(fig())
    return 0


def cmd_sweeps(_args: argparse.Namespace) -> int:
    from repro.experiments import sweeps

    sweeps._print(sweeps.pt_recurrence_sweep(), "P(t) vs f_t (Thm 2.2)")
    sweeps._print(sweeps.broadcast_vs_baselines(), "broadcast vs baselines")
    sweeps._print(sweeps.reduction_vs_baselines(), "reduction vs baselines (§4.2)")
    sweeps._print(sweeps.kitem_bounds_sweep(), "k-item bounds (Thms 3.1/3.6)")
    sweeps._print(sweeps.combining_sweep(), "combining broadcast (Thm 4.1)")
    sweeps._print(sweeps.summation_capacity_sweep(), "summation capacity (Lem 5.1)")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import run_bench, write_bench

    if args.quick:
        sizes, a2a_sizes, kitem, transform_P = (64, 128), (64,), (64, 2), 128
        implicit_sizes: tuple[int, ...] = (10_000,)
        serve_points: int | None = 200
        serve_draws = 3_000
        exec_P = 64
        hier_P = 64
    else:
        sizes, a2a_sizes, kitem, transform_P = (
            (256, 1024, 4096),
            (256, 1024),
            (256, 4),
            1024,
        )
        implicit_sizes = (100_000, 1_000_000)
        serve_points = None
        serve_draws = 16_000
        exec_P = 256
        hier_P = 512
    total = len(sizes) + len(a2a_sizes) + len(implicit_sizes) + 6
    print(f"running {total} benchmark scenarios...")
    results = run_bench(
        sizes=sizes,
        a2a_sizes=a2a_sizes,
        kitem=kitem,
        transform_P=transform_P,
        implicit_sizes=implicit_sizes,
        serve_points=serve_points,
        serve_draws=serve_draws,
        exec_P=exec_P,
        hier_P=hier_P,
        repeat=args.repeat,
        verbose=True,
    )
    write_bench(results, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the plan service's HTTP front end until interrupted."""
    from repro.serve import PlanService, serve_http

    try:
        service = PlanService(
            capacity=args.capacity, directory=args.cache_dir
        )
        server = serve_http(
            host=args.host, port=args.port, service=service,
            verbose=args.verbose,
        )
    except (OSError, ValueError) as exc:
        return _usage_error(str(exc))
    host, port = server.server_address[:2]
    tiers = f"memory lru capacity={args.capacity}"
    if args.cache_dir:
        tiers += f", disk tier at {args.cache_dir}"
    print(
        f"repro serve: listening on http://{host}:{port} "
        f"(POST /plan, POST /plan_many, GET /stats; {tiers})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    stats = service.stats()
    print(
        f"repro serve: shut down after {stats['requests']} requests "
        f"({stats['planned']} planned, "
        f"{stats['memory']['hits']} memory hits)"
    )
    return 0


def _lint_target(args: argparse.Namespace):
    """The schedule to lint: loaded from JSON or built via the registry.

    Raises ``ValueError`` with a one-line message for every usage
    problem (conflicting inputs, unknown builder, malformed file,
    out-of-domain parameters).
    """
    if args.schedule is not None and args.builder is not None:
        raise ValueError(
            "give a schedule file or --builder, not both "
            f"(got {args.schedule!r} and --builder {args.builder})"
        )
    if args.schedule is not None:
        import json

        from repro.schedule.serialize import load_schedule

        if getattr(args, "machine", None) is not None:
            raise ValueError(
                "--machine only applies to --builder plans (serialized "
                "schedules carry their machine in the JSON payload)"
            )
        try:
            return load_schedule(args.schedule)
        except FileNotFoundError:
            raise ValueError(f"{args.schedule}: no such file") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.schedule}: malformed JSON: {exc}") from None
    if args.builder is None:
        raise ValueError("give a schedule JSON file or --builder NAME")
    spec = registry.get_spec(args.builder)
    model = _machine_model(args)
    if model is not None:
        # topology specs carry their own parameters; flat flags only
        # feed a 'flat' spec (resolved inside _machine_model)
        return registry.plan(
            spec.name, machine=model, **_spec_extra(spec, args)
        )
    return registry.plan(spec.name, _machine(args), **_spec_extra(spec, args))


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analyze import Severity, lint_schedule, render_text, sarif_json

    if args.implicit:
        from repro.analyze.chunked import WHOLE_SCHEDULE_RULES, lint_implicit
        from repro.schedule.implicit import DEFAULT_CHUNK_SENDS

        if args.schedule is not None or args.builder is None:
            return _usage_error(
                "--implicit lints a closed-form builder plan; give "
                "--builder NAME (not a schedule file)"
            )
        try:
            spec = registry.get_spec(args.builder)
            implicit = registry.plan(
                spec.name,
                _machine(args),
                storage="implicit",
                family=args.family,
                **_spec_extra(spec, args),
            )
            report = lint_implicit(
                implicit,
                max_sends=args.chunk_sends or DEFAULT_CHUNK_SENDS,
                select=args.select or None,
                ignore=args.ignore or None,
            )
        except ValueError as exc:
            return _usage_error(str(exc))
        if args.format == "json":
            print(sarif_json(report))
        else:
            print(render_text(report, verbose=args.verbose))
            skipped = ", ".join(sorted(WHOLE_SCHEDULE_RULES))
            print(
                f"note: implicit (chunked) sweep — whole-schedule rules "
                f"skipped: {skipped}"
            )
        if args.fail_on == "never":
            return 0
        return 1 if report.at_least(Severity.parse(args.fail_on)) else 0
    try:
        schedule = _lint_target(args)
    except ValueError as exc:
        return _usage_error(str(exc))
    report = lint_schedule(
        schedule, select=args.select or None, ignore=args.ignore or None
    )
    if args.format == "json":
        print(sarif_json(report))
    else:
        print(render_text(report, verbose=args.verbose))
    if args.fail_on == "never":
        return 0
    return 1 if report.at_least(Severity.parse(args.fail_on)) else 0


def _rule_list(value: str | None) -> list[str] | None:
    """Split a ``--select REPRO001,REPRO007`` spelling into rule keys."""
    if not value:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def cmd_check(args: argparse.Namespace) -> int:
    """Run the REPRO codebase checkers over files / directories."""
    from repro.checkers import Severity, check_paths, render_text, sarif_json

    try:
        report = check_paths(
            args.paths,
            select=_rule_list(args.select),
            ignore=_rule_list(args.ignore),
        )
    except ValueError as exc:
        return _usage_error(str(exc))
    if args.format == "sarif":
        print(sarif_json(report))
    else:
        print(render_text(report, verbose=args.verbose))
    if args.fail_on == "never":
        return 0
    return 1 if report.at_least(Severity.parse(args.fail_on)) else 0


def cmd_opt(args: argparse.Namespace) -> int:
    from repro.passes import PassManager, PassVerificationError, pass_specs

    if args.list_passes:
        for spec in pass_specs():
            flags = "".join(
                (
                    "L" if spec.preserves_legality else "-",
                    "C" if spec.preserves_completion else "-",
                )
            )
            params = f"  ({spec.params_doc})" if spec.params_doc else ""
            print(f"{spec.name:<17} [{flags}] {spec.summary}{params}")
        return 0
    if args.pipeline is None:
        return _usage_error("opt requires --pipeline (or --list-passes)")
    verify = args.verify or ("errors" if args.verify_each else "off")
    try:
        schedule = _lint_target(args)
        manager = PassManager(args.pipeline, verify=verify)
    except ValueError as exc:
        return _usage_error(str(exc))
    try:
        result = manager.run(schedule)
    except (PassVerificationError, ValueError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1
    if args.format == "text":
        for rec in manager.records:
            stats = "".join(
                f", {key}={value}" for key, value in sorted(rec.stats.items())
            )
            verified = " [verified]" if rec.report is not None else ""
            print(
                f"[{rec.index + 1}] {rec.description}: "
                f"sends {rec.sends_before} -> {rec.sends_after}, "
                f"makespan {rec.makespan_before} -> {rec.makespan_after}"
                f"{stats} ({rec.elapsed_s * 1e3:.1f} ms){verified}"
            )
        print(
            f"pipeline: {len(manager.records)} passes, "
            f"sends {schedule.num_sends} -> {result.num_sends}, "
            f"verify={verify}"
        )
    if args.out is not None:
        from repro.schedule.serialize import dump_schedule

        dump_schedule(result, args.out)
        if args.format == "text":
            print(f"wrote {args.out}")
    if args.format == "json" or args.fail_on != "never":
        from repro.analyze import Severity, lint_schedule, sarif_json

        report = lint_schedule(result)
        if args.format == "json":
            print(sarif_json(report))
        if args.fail_on != "never" and report.at_least(
            Severity.parse(args.fail_on)
        ):
            return 1
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Execute a schedule on a real transport (S37)."""
    from repro.exec import ExecError, TransportUnavailable, execute

    try:
        schedule = _lint_target(args)
    except ValueError as exc:
        return _usage_error(str(exc))
    heal_stats = None
    if schedule.machine is not None and getattr(schedule.machine, "dead", ()):
        # fault-masked plans carry their dead-rank traffic for lint;
        # running one means running the repaired survivor plan
        from repro.machine import heal_columns

        try:
            schedule, heal_stats = heal_columns(schedule)
        except ValueError as exc:
            return _usage_error(str(exc))
    try:
        result = execute(
            schedule,
            transport=args.transport,
            verify=args.verify,
            timeout=args.timeout,
        )
    except (ValueError, TransportUnavailable) as exc:
        return _usage_error(str(exc))
    except ExecError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1
    params = schedule.params
    makespan = registry.completion(schedule)
    print(
        f"executed {schedule.num_sends} sends across {params.P} ranks "
        f"on {result.transport}"
    )
    if heal_stats is not None:
        dead = schedule.machine.dead
        print(
            f"  healed around {len(dead)} dead rank(s) "
            f"{'+'.join(str(r) for r in dead)}: "
            f"{heal_stats.dropped_sends} send(s) dropped, "
            f"{heal_stats.healed_sends} re-inform(s) added"
        )
    print(
        f"  delivered {result.num_delivered} messages in "
        f"{result.wall_s * 1e3:.1f} ms wall "
        f"(simulated makespan: {makespan} cycles at "
        f"L={params.L}, o={params.o}, g={params.g})"
    )
    if args.verify:
        print(
            "  verified: delivered multiset matches the simulator "
            "byte-for-byte"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Optimal LogP collectives (SPAA'93 reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def machine_args(
        p: argparse.ArgumentParser, required: bool = True
    ) -> None:
        p.add_argument("--P", type=int, required=required, help="processors")
        p.add_argument(
            "--L", type=int, required=required, help="latency (cycles)"
        )
        p.add_argument("--o", type=int, default=0, help="overhead (cycles)")
        p.add_argument("--g", type=int, default=1, help="gap (cycles)")

    def machine_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--machine",
            metavar="SPEC",
            default=None,
            help=(
                "machine topology: 'flat' (priced by --P/--L/--o/--g), "
                "'hier:NxC:L/o/g:L/o/g' (N nodes x C cores, inter then "
                "intra level), optionally ':dead=a+b' to mask failed "
                "ranks; hier specs carry their own parameters"
            ),
        )

    p = sub.add_parser("builders", help="list the registered collectives")
    p.add_argument(
        "--names", action="store_true", help="canonical names only, one per line"
    )
    p.set_defaults(func=cmd_builders)

    p = sub.add_parser("plan", help="build any registered collective")
    p.add_argument(
        "collective",
        help="collective name or alias (see `repro builders`)",
    )
    machine_args(p, required=False)
    machine_flag(p)
    p.add_argument("--k", type=int, default=None, help="items (k-item/continuous)")
    p.add_argument("--n", type=int, default=None, help="operands (summation)")
    p.add_argument("--t", type=int, default=None, help="time budget (summation)")
    p.add_argument("--timeline", action="store_true")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("report", help="full Markdown report for a machine")
    machine_args(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("figures", help="regenerate the paper's figures")
    p.add_argument("--only", nargs="*", help="figure numbers (1-6)")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("sweeps", help="run the theorem-validation sweeps")
    p.set_defaults(func=cmd_sweeps)

    p = sub.add_parser("bench", help="time build/validate/simulate at scale")
    p.add_argument("--out", default="BENCH.json", help="output JSON path")
    p.add_argument("--repeat", type=int, default=1, help="best-of repetitions")
    p.add_argument("--quick", action="store_true", help="small sizes (smoke test)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "serve", help="HTTP plan service (cached, batched planning)"
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8040, help="bind port (0 = ephemeral)"
    )
    p.add_argument(
        "--capacity",
        type=int,
        default=1024,
        help="in-memory LRU capacity (plans)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="enable the on-disk cache tier under DIR",
    )
    p.add_argument(
        "--verbose", action="store_true", help="log each HTTP request"
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("lint", help="static rule sweep over a schedule")
    p.add_argument(
        "schedule",
        nargs="?",
        default=None,
        help="schedule JSON file (logp-schedule/1); omit when using --builder",
    )
    p.add_argument(
        "--builder",
        metavar="NAME",
        help=(
            "lint a freshly built paper schedule instead of a file; "
            "any registered collective name or alias "
            f"({', '.join(registry.spec_names())})"
        ),
    )
    p.add_argument("-P", "--P", type=int, default=8, help="processors (builders)")
    p.add_argument("-L", "--L", type=int, default=6, help="latency (builders)")
    p.add_argument("--o", type=int, default=0, help="overhead (builders)")
    p.add_argument("--g", type=int, default=1, help="gap (builders)")
    machine_flag(p)
    p.add_argument("--k", type=int, default=4, help="items (kitem builder)")
    p.add_argument("--n", type=int, default=32, help="operands (summation builder)")
    p.add_argument("--t", type=int, default=None, help="time budget (summation)")
    p.add_argument(
        "--implicit",
        action="store_true",
        help=(
            "lint the builder's closed-form (implicit) plan in streamed "
            "chunks — memory bounded by --chunk-sends, not P; "
            "whole-schedule rules are skipped (noted in text output)"
        ),
    )
    p.add_argument(
        "--chunk-sends",
        type=int,
        default=None,
        metavar="N",
        help="streamed chunk size for --implicit (default 65536)",
    )
    p.add_argument(
        "--family",
        choices=("optimal", "binomial"),
        default="optimal",
        help="tree family for --implicit plans",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="text report or SARIF-shaped JSON",
    )
    p.add_argument(
        "--fail-on",
        choices=("error", "warning", "info", "never"),
        default="error",
        help="minimum severity that makes the exit code non-zero",
    )
    p.add_argument(
        "--select",
        nargs="*",
        metavar="RULE",
        help="run only these rules (ids or names)",
    )
    p.add_argument(
        "--ignore",
        nargs="*",
        metavar="RULE",
        help="drop these rules from the sweep",
    )
    p.add_argument(
        "--verbose", action="store_true", help="include fix-it hints in text output"
    )
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "check", help="REPRO codebase checkers over Python sources"
    )
    p.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="Python files and/or directories (recursed) to check",
    )
    p.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rules to run (REPRO ids or names)",
    )
    p.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rules to drop from the sweep",
    )
    p.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="text report or SARIF 2.1.0 JSON",
    )
    p.add_argument(
        "--fail-on",
        choices=("error", "warning", "info", "never"),
        default="warning",
        help="minimum severity that makes the exit code non-zero",
    )
    p.add_argument(
        "--verbose", action="store_true", help="include fix-it hints in text output"
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "opt", help="run a verified pass pipeline over a schedule"
    )
    p.add_argument(
        "schedule",
        nargs="?",
        default=None,
        help="schedule JSON file (logp-schedule/1); omit when using --builder",
    )
    p.add_argument(
        "--builder",
        metavar="NAME",
        help=(
            "transform a freshly built paper schedule instead of a file; "
            "any registered collective name or alias "
            f"({', '.join(registry.spec_names())})"
        ),
    )
    p.add_argument("-P", "--P", type=int, default=8, help="processors (builders)")
    p.add_argument("-L", "--L", type=int, default=6, help="latency (builders)")
    p.add_argument("--o", type=int, default=0, help="overhead (builders)")
    p.add_argument("--g", type=int, default=1, help="gap (builders)")
    machine_flag(p)
    p.add_argument("--k", type=int, default=4, help="items (kitem builder)")
    p.add_argument("--n", type=int, default=32, help="operands (summation builder)")
    p.add_argument("--t", type=int, default=None, help="time budget (summation)")
    p.add_argument(
        "--pipeline",
        metavar="SPEC",
        help='pass pipeline text, e.g. "shift{offset=5},canonicalize"',
    )
    p.add_argument(
        "--verify-each",
        action="store_true",
        help="re-lint SCHED001-003 after every pass (verify=errors)",
    )
    p.add_argument(
        "--verify",
        choices=("errors", "all", "off"),
        default=None,
        help="verification mode (overrides --verify-each)",
    )
    p.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the transformed schedule JSON here",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="per-pass text report or SARIF-shaped JSON of the final lint",
    )
    p.add_argument(
        "--fail-on",
        choices=("error", "warning", "info", "never"),
        default="error",
        help="minimum post-pipeline lint severity that fails the run",
    )
    p.add_argument(
        "--list-passes",
        action="store_true",
        help="list the registered passes and exit",
    )
    p.set_defaults(func=cmd_opt)

    p = sub.add_parser(
        "run", help="execute a schedule on a real transport"
    )
    p.add_argument(
        "schedule",
        nargs="?",
        default=None,
        help="schedule JSON file (logp-schedule/1); omit when using --builder",
    )
    p.add_argument(
        "--builder",
        metavar="NAME",
        help=(
            "execute a freshly built paper schedule instead of a file; "
            "any registered collective name or alias "
            f"({', '.join(registry.spec_names())})"
        ),
    )
    p.add_argument("-P", "--P", type=int, default=8, help="processors (builders)")
    p.add_argument("-L", "--L", type=int, default=6, help="latency (builders)")
    p.add_argument("--o", type=int, default=0, help="overhead (builders)")
    p.add_argument("--g", type=int, default=1, help="gap (builders)")
    machine_flag(p)
    p.add_argument("--k", type=int, default=4, help="items (kitem builder)")
    p.add_argument("--n", type=int, default=32, help="operands (summation builder)")
    p.add_argument("--t", type=int, default=None, help="time budget (summation)")
    p.add_argument(
        "--transport",
        choices=("inproc", "mp", "mpi"),
        default="inproc",
        help="execution backend (default: inproc threads)",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help=(
            "assert the delivered (src, dst, item) multiset matches the "
            "simulator byte-for-byte"
        ),
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-run wall-clock deadline (default: 30)",
    )
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
