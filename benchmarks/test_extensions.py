"""Benchmarks for the library's extensions beyond the paper.

* LogGP long-message segmentation: the k-item machinery applied to the
  paper's natural follow-up model — asserts the pipelining crossover;
* latency-jitter robustness: the optimal tree's advantage survives
  stochastic networks (Monte-Carlo over the tree dependency structure);
* collective planning throughput through ``registry.plan`` (plan
  construction is the part an MPI library would run at
  communicator-creation time).
"""

import numpy as np

from repro import registry
from repro.comm import VirtualCluster
from repro.core.combining import allreduce_time
from repro.experiments.robustness import robustness_study
from repro.loggp import LogGPParams, plan_broadcast, segment_sweep
from repro.params import LogPParams, postal


def test_loggp_segmentation(benchmark):
    machine = LogGPParams(P=16, L=20, o=2, g=4, G=1)

    def run():
        return {
            M: plan_broadcast(machine, M, max_segments=48) for M in (16, 256, 4096)
        }

    plans = benchmark(run)
    assert plans[16].segments <= plans[256].segments <= plans[4096].segments
    rows = segment_sweep(machine, 4096, max_segments=48)
    single = next(r["cycles"] for r in rows if r["segments"] == 1)
    assert plans[4096].completion_cycles < single / 2
    print("\nM      segments  seg-bytes  cycles")
    for M, plan in plans.items():
        print(f"{M:<7}{plan.segments:<10}{plan.segment_bytes:<11}{plan.completion_cycles}")


def test_jitter_robustness(benchmark):
    rows = benchmark(
        lambda: robustness_study(
            params=LogPParams(P=32, L=12, o=1, g=2),
            jitters=(0.0, 0.25, 1.0),
            trials=1500,
        )
    )
    print("\njitter  opt-mean  opt-p95  bino-mean  bino-p95")
    for row in rows:
        print(f"{row['jitter']:<8}{row['optimal_mean']:<10}{row['optimal_p95']:<9}"
              f"{row['binomial_mean']:<11}{row['binomial_p95']}")
        # the optimal tree's lead survives jitter up to L itself
        assert row["optimal_mean"] < row["binomial_mean"]


def test_communicator_planning(benchmark):
    params = postal(P=9, L=3)

    def cycles(name, **extra):
        return registry.completion(registry.plan(name, params, **extra))

    def run():
        return (
            cycles("broadcast"),
            cycles("reduction"),
            allreduce_time(params)[0],
            cycles("all-to-all"),
            cycles("kitem", k=6),
        )

    bcast, reduce_, allreduce, allgather, kitem = benchmark(run)
    assert bcast == reduce_ == 7  # B(9) for L=3 (f_7 = 9)
    assert allreduce == 7  # combining: allreduce == reduce!
    assert allgather == 3 + 7  # L + (P-2)g
    assert kitem == 3 + 7 + 5  # L + B(P-1)... B(8)=7 -> 15

    cluster = VirtualCluster(postal(P=9, L=3))
    results, cycles = cluster.allreduce(list(range(9)))
    assert results == [36] * 9 and cycles == 7
