"""The benchmark's own tests.  Run from the repository root::

    python3 -m pytest perfbench/tests

They spawn real child interpreters, so they take about two minutes.
"""

from __future__ import annotations

import json
import shutil
from collections import Counter
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from workloads import exec_mix, plan_scale  # noqa: E402
from workloads.common import BlockStream  # noqa: E402
from workloads.serve_zipf import ZipfRounds  # noqa: E402

#: Exact counts that a fixed job list must reproduce.
EXACT = ("registry.sends_planned", "registry.makespan_cycles", "serve.planned")


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


# -- inputs --------------------------------------------------------------


def _jobs(workload: str, seed: int, blocks: int = 3) -> list:
    if workload == "serve-zipf":
        rounds = ZipfRounds(2057, seed)
        return [rounds(i) for i in range(blocks)]
    module = exec_mix if workload == "exec-mix" else plan_scale
    stream = BlockStream(module.TEMPLATE, module.draw, seed)
    return [stream(i) for i in range(blocks)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    assert _jobs(workload, 5) == _jobs(workload, 5)
    assert _jobs(workload, 5) != _jobs(workload, 6)


@pytest.mark.parametrize("module", [exec_mix, plan_scale])
def test_seeds_share_sizes(module):
    def sizes(seed: int) -> list:
        stream = BlockStream(module.TEMPLATE, module.draw, seed)
        return [sorted((j["kind"], j.get("P", 0)) for j in stream(i)) for i in range(8)]

    assert sizes(5) == sizes(6)


@pytest.mark.parametrize("seed", range(1, 9))
def test_machine_parameters_are_stratified_across_blocks(seed):
    stream = BlockStream(plan_scale.TEMPLATE, plan_scale.draw, seed)
    counts = Counter(
        job["L"] for i in range(21) for job in stream(i) if job["kind"] == "reduction"
    )
    # 21 draws over the 7 values of L: each value 3 times, give or take one
    assert sorted(counts) == list(range(2, 9))
    assert all(2 <= n <= 4 for n in counts.values())


def test_block_stream_is_memoized():
    stream = BlockStream(plan_scale.TEMPLATE, plan_scale.draw, 3)
    first = stream(2)
    assert stream(2) is first
    assert len(first) == len(plan_scale.TEMPLATE)


def test_zipf_rounds_concentrate_on_the_popular_points():
    rounds = ZipfRounds(2057, 1)
    draws = [p for i in range(8) for p in rounds(i)]
    top = rounds.order[0]
    assert draws.count(top) >= len(draws) // 8


# -- the tracer ----------------------------------------------------------


def test_self_time_subtracts_children_and_reports_other():
    tracer = Tracer()
    # op [0, 100] > a [10, 60] > b [20, 40]; c [50, 90] under op
    tracer.spans = [
        ("b", 20, 40, 3, 2, 0, 1),
        ("a", 10, 60, 2, 1, 0, 1),
        ("c", 50, 90, 4, 1, 0, 2),
        ("op", 0, 100, 1, 0, 0, 1),
    ]
    busy, total = tracer.self_times()
    assert total == pytest.approx(100e-9)
    assert busy["b"] == pytest.approx(20e-9)
    assert busy["a"] == pytest.approx(30e-9)
    assert busy["c"] == pytest.approx(40e-9)
    # a and c overlap on [50, 60]: the union, not the sum, is covered
    assert busy["other"] == pytest.approx(20e-9)


def test_wrapped_calls_nest_and_export_chrome_events(tmp_path):
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    with tracer.op(7):
        assert outer(1) == 4
    by_name = {span[0]: span for span in tracer.spans}
    assert by_name["inner"][4] == by_name["outer"][3]
    assert by_name["outer"][4] == by_name["op"][3]
    assert {span[5] for span in tracer.spans} == {7}
    path = tmp_path / "trace.json"
    tracer.write_chrome(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert {e["name"] for e in events} == {"op", "outer", "inner"}
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


# -- whole runs ------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric_and_passes(workload):
    # --seconds 0 measures exactly one group of whole blocks
    proc = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0",
    )
    assert proc.returncode == 0, proc.stderr
    doc = _last_json(proc.stdout)
    assert doc["correct"] is True, proc.stdout
    blocks = _jobs(workload, 3, blocks=WORKLOADS[workload].whole_blocks)
    assert doc["attempted"] == sum(len(block) for block in blocks)
    assert doc["failed"] == 0
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    for name, unit in END_TO_END.items():
        assert name in proc.stdout and unit in proc.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_runs_repeat_exact_counts_and_print_every_layer(workload):
    counts = []
    for _ in range(2):
        proc = _bench(
            "--workload", workload, "--seed", "4", "--seconds", "0", "--trace", "1",
        )
        assert proc.returncode == 0, proc.stderr
        doc = _last_json(proc.stdout)
        assert doc["correct"] is True, proc.stdout
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == PER_LAYER
        counts.append({k: doc["metrics"][k]["value"] for k in EXACT})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = _bench(
        "--workload", "exec-mix", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
