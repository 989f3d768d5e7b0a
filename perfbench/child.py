"""One workload in one fresh interpreter: set-up, closed loop, summary.

Run by ``perfbench/run.py`` (never directly by a user)::

    python3 perfbench/child.py --workload exec-mix --seed 1 --seconds 20

Set-up is everything before the loop: importing ``repro.cli``, building
the workload's inputs and reference digests, and its warm-up.  The loop
is one client: it starts an operation only after the previous one has
returned and been checked.  It stops at the first boundary of
``workload.whole_blocks`` blocks after ``--seconds`` (or after exactly
``--ops`` operations, when given), so a timed run always holds whole
groups of blocks of the workload's mix.

After every operation, and after a set-up-only interpreter's set-up,
the child times :func:`reference_loop`, untimed itself, so ``run.py``
can tell how fast the host ran while it measured.

The last line of standard output is one JSON object with the raw
samples; ``run.py`` turns it into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import repro.cli  # noqa: F401  -- set-up includes the front door's imports
from tracing import Tracer
from workloads import WORKLOADS

#: Failure messages kept for the report (all failures are counted).
KEPT_FAILURES = 5
#: Reference-loop samples a set-up-only interpreter takes after set-up.
SETUP_REFERENCE_SAMPLES = 25
#: Iterations of :func:`reference_loop`: about 2 ms on a 2-vCPU Xeon VM.
REFERENCE_ITERATIONS = 20_000


def reference_loop() -> float:
    """Seconds a fixed pure-Python integer loop takes, here and now.

    It calls nothing in ``repro`` and allocates nothing the collector
    tracks, so its time moves with the host's speed and not with the
    program's.
    """
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - started


def _core_cache_totals() -> tuple[int, int]:
    from repro.serve import core_cache_stats

    caches = core_cache_stats().values()
    hits = sum(c["hits"] or 0 for c in caches)
    return hits, hits + sum(c["misses"] or 0 for c in caches)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = Path(__file__).resolve().parent / "out"
    workdir.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, tracer, str(workdir))
    setup_end = time.monotonic()
    try:
        if args.setup_only:
            reference = [reference_loop() for _ in range(SETUP_REFERENCE_SAMPLES)]
            print(json.dumps({"setup_end": setup_end, "reference": reference}))
            return 0
        core_before = _core_cache_totals() if tracer else (0, 0)
        summary = _loop(workload, tracer, args)
        summary["setup_end"] = setup_end
        if tracer is not None:
            summary["layers"] = _layers(workload, tracer, core_before)
            if args.trace_out:
                tracer.write_chrome(args.trace_out)
    finally:
        workload.close()
    summary["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    print(json.dumps(summary))
    return 0


def _loop(workload, tracer, args) -> dict:
    latencies: list[float] = []
    reference: list[float] = []
    failures: list[str] = []
    failed = sends = 0
    deadline = time.monotonic() + args.seconds
    block = 0
    while True:
        for job in workload.block(block):
            op = nullcontext() if tracer is None else tracer.op(len(latencies))
            started = time.perf_counter()
            try:
                with op:
                    out = workload.run(job)
                elapsed = time.perf_counter() - started
                problems, carried = workload.check(job, out)
            except Exception as exc:  # an operation failed: count it, go on
                elapsed = time.perf_counter() - started
                workload.on_error(job, exc)
                problems, carried = [f"{type(exc).__name__}: {exc}"], 0
            latencies.append(elapsed)
            reference.append(reference_loop())
            sends += carried
            if problems:
                failed += 1
                if len(failures) < KEPT_FAILURES:
                    failures.append(f"{job}: {'; '.join(problems)}"[:400])
            if args.ops and len(latencies) >= args.ops:
                break
        block += 1
        if args.ops:
            if len(latencies) >= args.ops:
                break
        elif block % workload.whole_blocks == 0 and time.monotonic() >= deadline:
            break
    return {
        "ops": len(latencies),
        "blocks": block,
        "failed": failed,
        "failures": failures,
        "latencies": latencies,
        "reference": reference,
        "sends": sends,
    }


def _layers(workload, tracer: Tracer, core_before: tuple[int, int]) -> dict:
    busy, total = tracer.self_times()
    layers: dict = {"busy": busy, "total_op_s": total}
    metrics = dict(workload.layer_metrics())
    for name, value in tracer.counters.items():
        metrics[name] = metrics.get(name, 0) + value
    hits, lookups = _core_cache_totals()
    hits, lookups = hits - core_before[0], lookups - core_before[1]
    metrics["core.cache_hit_rate"] = hits / lookups if lookups else 0.0
    if "exec.transport_s" in metrics:
        metrics["exec.execute_overhead_s"] = (
            busy.get("exec.execute", 0.0) - metrics["exec.transport_s"]
        )
    if any(span[0] == "serve.http" for span in tracer.spans):
        # the HTTP layer's own time per request: client latency minus the
        # plan_json span the request caused (both carry the op id)
        inner: dict[int, float] = {}
        for name, start, end, _sid, _parent, op, _tid in tracer.spans:
            if name == "serve.plan_json":
                inner[op] = inner.get(op, 0.0) + (end - start) / 1e9
        metrics["serve.http.self_ms"] = 1e3 * statistics.median(
            (end - start) / 1e9 - inner.get(op, 0.0)
            for name, start, end, _sid, _parent, op, _tid in tracer.spans
            if name == "serve.http"
        )
    layers["metrics"] = metrics
    return layers


if __name__ == "__main__":
    sys.exit(main())
