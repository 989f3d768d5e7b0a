"""The repository's benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exec-mix --seed 1 --seconds 30 --trace 0

Every workload runs in fresh interpreters (``perfbench/child.py``), so
set-up includes the ``repro.cli`` import.  Each interpreter, with every
thread and process it starts, is pinned to one CPU (:data:`CPU`).
With ``--trace 0`` the run sets up :data:`SETUP_ONLY_RUNS` extra times
to take the median set-up time, then measures the closed loop untraced
and prints the end-to-end metrics declared in ``BENCHMARK.json``.
Set-up times, and on CPU-bound workloads operation times, are scaled to
a host of nominal speed (see :func:`host_factor`).
With ``--trace 1`` it measures ``cli.import_s``/``import.networkx_s``
from ``-X importtime``, runs the loop untraced for half the time, runs
the same operations again traced, writes the spans as Chrome
trace-event JSON under ``perfbench/out/`` and prints the per-layer
metrics with a self-time table.  The tracing overhead is the traced
run's summed operation time over the untraced run's, each scaled by its
own host factor where operation times are.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Failed operations are counted, never retried or filtered out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
import numpy

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Each metric ``BENCHMARK.json`` declares, by name, with its unit.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
#: Set-up-only interpreters per untraced run; with the measured run's own
#: set-up, ``setup_s`` is the median of one more than this.
SETUP_ONLY_RUNS = 4
#: Every child of one run must have ended this long after the run began.
RUN_LIMIT_S = 170
#: The one CPU every child runs on.  Unpinned, the ``inproc`` executor's
#: thread per rank spread over all CPUs, so load on any other CPU of a
#: small shared host slowed a run by up to half; pinned, only load on
#: this CPU does.  The ``mp`` transport's workers share it too, so the
#: benchmark sees their per-message cost, not their parallel speed-up.
CPU = max(os.sched_getaffinity(0))
#: What ``child.reference_loop`` takes on the host the benchmark was
#: tuned on, a 2-vCPU Xeon VM: a host factor of 1 is that host's speed.
NOMINAL_REFERENCE_S = 2.0e-3
#: An operation's host factor is taken from the reference samples of the
#: operations within this many places of it (about two blocks' worth).
HOST_WINDOW = 16
STARTED = time.monotonic()


class ChildFailed(RuntimeError):
    pass


def _spawn(args: list[str], extra: list[str] | None = None) -> tuple[float, dict, str]:
    """Run a child interpreter; its start time, last-line JSON and stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    command = [sys.executable, *(extra or []), *args]
    started = time.monotonic()
    proc = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, RUN_LIMIT_S - (started - STARTED)),
        preexec_fn=lambda: os.sched_setaffinity(0, {CPU}),
    )
    if proc.returncode != 0:
        raise ChildFailed(
            f"{' '.join(args[:3])} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1]) if lines else {}
    return started, doc, proc.stderr


def _child_args(args: argparse.Namespace, *more: str) -> list[str]:
    return [
        str(HERE / "child.py"), "--workload", args.workload,
        "--seed", str(args.seed), *more,
    ]


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted average of all order statistics:
    the same target as the sample quantile, with a smaller spread from
    run to run than any single order statistic.
    """
    x = numpy.sort(numpy.asarray(samples, dtype=float))
    n = len(x)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    steps = max(2, 200_000 // n)
    grid = numpy.linspace(0.0, 1.0, steps * n + 1)[1:-1]
    log_pdf = (a - 1) * numpy.log(grid) + (b - 1) * numpy.log1p(-grid)
    pdf = numpy.exp(log_pdf - log_pdf.max())
    cdf = numpy.concatenate(([0.0], numpy.cumsum(pdf), [pdf.sum()]))
    weights = numpy.diff(cdf[::steps] / cdf[-1])
    return float(weights @ x)


def host_factor(reference: list[float]) -> float:
    """How many times slower than nominal the host ran, from its samples.

    A shared host's speed drifts by a fifth within minutes, so the raw
    times of two runs of the same code differed by more than the bounds.
    The child times a fixed pure-Python loop after every operation and
    after each set-up; the median of the samples near a time over
    :data:`NOMINAL_REFERENCE_S` is the factor by which the host was slow
    then, and dividing the time by it cancels the drift but not a change
    in the program.
    """
    return statistics.median(reference) / NOMINAL_REFERENCE_S


def _untraced(args: argparse.Namespace) -> tuple[dict, dict]:
    setups, raw_setups = [], []
    for _ in range(SETUP_ONLY_RUNS):
        started, doc, _ = _spawn(_child_args(args, "--setup-only"))
        raw_setups.append(doc["setup_end"] - started)
        setups.append(raw_setups[-1] / host_factor(doc["reference"]))
    started, run, _ = _spawn(_child_args(args, "--seconds", str(args.seconds)))
    reference = run["reference"]
    raw_setups.append(run["setup_end"] - started)
    setups.append(raw_setups[-1] / host_factor(reference))
    factors = [1.0] * len(reference)
    if WORKLOADS[args.workload].host_normalized:
        factors = [
            host_factor(reference[max(0, i - HOST_WINDOW):i + HOST_WINDOW + 1])
            for i in range(len(reference))
        ]
    raw = run["latencies"]
    latencies = [t / f for t, f in zip(raw, factors)]
    busy = sum(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / busy,
        "latency_p50_ms": quantile(latencies, 0.5) * 1e3,
        "latency_p90_ms": quantile(latencies, 0.9) * 1e3,
        "sends_per_s": run["sends"] / busy,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    print(f"  host factor {min(factors):.3f}-{max(factors):.3f}: raw ops_per_s {len(raw) / sum(raw):.4g}, "
          f"raw latency_p50_ms {quantile(raw, 0.5) * 1e3:.4g}, "
          f"raw latency_p90_ms {quantile(raw, 0.9) * 1e3:.4g}")
    print(f"  set-up samples (s): {', '.join(f'{s:.3f}' for s in setups)} "
          f"(raw {', '.join(f'{s:.3f}' for s in raw_setups)})")
    if len(latencies) < 100:
        print(f"  note: {len(latencies)} samples; p90 has fewer than ten beyond it")
    return run, {name: (values[name], unit) for name, unit in END_TO_END.items()}


def _import_times() -> dict[str, float]:
    """Cumulative import seconds of ``repro.cli`` and ``networkx``."""
    _, _, stderr = _spawn(["-c", "import repro.cli"], extra=["-X", "importtime"])
    cumulative: dict[str, float] = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return {
        "cli.import_s": cumulative.get("repro.cli", 0.0),
        "import.networkx_s": cumulative.get("networkx", 0.0),
    }


def _traced(args: argparse.Namespace) -> tuple[dict, dict]:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    trace_path = out / f"trace-{args.workload}-seed{args.seed}.json"
    imports = _import_times()
    _, plain, _ = _spawn(_child_args(args, "--seconds", str(args.seconds / 2)))
    # the same operations again, traced, in a fresh interpreter; going
    # second, the traced run gets any warm-machine advantage, so the
    # overhead below errs low rather than high
    _, run, _ = _spawn(_child_args(
        args, "--trace", "1", "--ops", str(plain["ops"]),
        "--trace-out", str(trace_path),
    ))
    layers = run["layers"]
    busy, total = layers["busy"], layers["total_op_s"]
    values: dict[str, float] = {**imports, **layers["metrics"]}
    values["host.reference_us"] = statistics.median(run["reference"]) * 1e6
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "busy_s":
            values[name] = busy.get(layer, 0.0)
        elif kind == "share":
            values[name] = busy.get(layer, 0.0) / total if total else 0.0
    scaled = WORKLOADS[args.workload].host_normalized

    def cost(doc: dict) -> float:
        return sum(doc["latencies"]) / (host_factor(doc["reference"]) if scaled else 1.0)

    values["trace.overhead_share"] = cost(run) / cost(plain) - 1
    print(f"  per-layer self time over {run['ops']} traced operations "
          f"({total:.3f} s), spans in {trace_path.relative_to(ROOT)}:")
    for layer, seconds_busy in sorted(busy.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<24} {seconds_busy:9.3f} s  "
              f"{seconds_busy / total if total else 0:6.1%}")
    return run, {
        name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=30.0,
        help="measure until the first boundary of whole block groups after "
        "this long (0: exactly one group)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    try:
        run, metrics = (_traced if args.trace else _untraced)(args)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:14.6g} {unit}")
    attempted, failed = run["ops"], run["failed"]
    print(f"  failed_frac {failed / attempted:.4f} ({failed} of {attempted} "
          f"operations, {run['blocks']} blocks)")
    for failure in run["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
