"""``plan-scale``: the compiler path, with no execution.

Each operation plans one seeded job, heals it if its machine has dead
ranks, round-trips it through canonical JSON, lints it, runs a fixed
verified pass pipeline, validates the result on the LogP model and
checks the makespan against the spec's closed form where that bound is
tight.  A share of jobs are implicit-storage broadcasts at P 10^5-10^6,
planned in O(log P) and linted in streamed chunks.
"""

from __future__ import annotations

import random
from typing import Any

from workloads.common import (
    BlockStream,
    Job,
    dead_ranks,
    hier_shape,
    log_slices,
    log_uniform,
    logp,
    plan_kwargs,
)

#: The verified pass pipeline every materialized plan goes through.
PIPELINE = "canonicalize,prune-dead-sends,compact-time"

#: ``(P, L)`` pairs with ``P - 1`` a reachable-set size P(t) whose
#: block-cyclic instance is solvable: the continuous broadcast's domain.
CONTINUOUS_POINTS = (
    (14, 3), (20, 3), (29, 3), (42, 3), (61, 3), (130, 3), (190, 3),
    (15, 4), (27, 4), (37, 4), (96, 4), (132, 4), (182, 4),
    (16, 5), (21, 5), (27, 5), (35, 5), (61, 5), (81, 5), (107, 5), (141, 5),
)

#: One block: (slot kind, P range).  Broadcast sizes cover 64..65536 in
#: six slots of equal log-width, so each block spans the 40-1024-send
#: region where the objects-vs-numpy dispatch threshold misroutes.
TEMPLATE: list[tuple[str, tuple[int, int]]] = [
    *(("broadcast", r) for r in log_slices(64, 65536, 6)),
    ("reduction", (64, 8192)),
    ("all-to-all", (16, 256)),
    ("allreduce", (8, 64)),
    ("kitem", (5, 33)),
    ("continuous", (0, len(CONTINUOUS_POINTS))),
    ("summation", (8, 64)),
    ("hier-bcast", (16, 1024)),
    ("hier-reduce", (16, 512)),
    ("hier-bcast-dead", (16, 1024)),
    # two slots: an implicit job's sends dwarf the rest of its block's,
    # so one slot spanning 10^5-10^6 moved sends_per_s by a tenth with
    # the number of blocks a run held
    *(("implicit-broadcast", r) for r in log_slices(10**5, 10**6, 2)),
]


def draw(spec: tuple[str, tuple[int, int]], u: float, rng: Any) -> Job:
    kind, (lo, hi) = spec
    job: Job = {"kind": kind, "collective": kind}
    if kind.startswith("hier-"):
        job["collective"] = kind.removesuffix("-dead")
        job.update(hier_shape(rng, log_uniform(u, lo, hi)))
        if kind.endswith("-dead"):
            job["dead"] = dead_ranks(rng, job["nodes"] * job["cores"])
        return job
    if kind == "continuous":
        P, L = CONTINUOUS_POINTS[min(int(u * hi), hi - 1)]
        job.update(P=P, L=L, extra={"k": rng.randint(2, 12)})
        return job
    P = log_uniform(u, lo, hi)
    if kind in ("allreduce", "kitem"):
        # defined on the postal model (o = 0, g = 1)
        job.update(P=P, L=rng.randint(2, 4))
        if kind == "kitem":
            job["extra"] = {"k": rng.randint(2, 16)}
        return job
    L, o, g = logp(rng)
    job.update(P=P, L=L, o=o, g=g)
    if kind == "summation":
        # the Section 5 construction spaces merges g apart and each takes
        # o + 1 cycles, so it needs g > o; g == o is outside its domain
        job["g"] = max(g, o + 1)
        job["extra"] = {"n": rng.randint(P, 8 * P)}
    elif kind == "implicit-broadcast":
        job["collective"] = "broadcast"
        job["implicit"] = True
    return job


class PlanScale:
    name = "plan-scale"
    #: blocks 4k..4k+3 cover each quarter of every slot's size range
    whole_blocks = 4
    host_normalized = True

    def __init__(self, seed: int, tracer: Any, workdir: str) -> None:
        from repro import registry
        from repro.analyze import lint_implicit, lint_schedule
        from repro.machine import heal_columns
        from repro.passes import PassManager
        from repro.schedule.serialize import schedule_from_json, schedule_to_json
        from repro.sim.validate import violations
        from tracing import wrap

        def run_passes(schedule: Any) -> Any:
            return PassManager(PIPELINE, verify="errors").run(schedule)

        self.block = BlockStream(TEMPLATE, draw, seed)
        self.registry = registry
        self.lint_implicit_raw = lint_implicit
        self.counts: dict[str, float] = {
            "registry.sends_planned": 0,
            "registry.makespan_cycles": 0,
            "machine.heal.healed_sends": 0,
            "schedule.serialize.bytes": 0,
        }
        self.largest_implicit: Any = None
        for bound in (None, tracer):
            self.plan = wrap(bound, "registry", registry.plan)
            self.completion = wrap(bound, "registry", registry.completion)
            self.heal = wrap(bound, "machine.heal", heal_columns)
            self.to_json = wrap(bound, "schedule.serialize", schedule_to_json)
            self.from_json = wrap(bound, "schedule.serialize", schedule_from_json)
            self.lint = wrap(bound, "analyze.lint", lint_schedule)
            self.lint_implicit = wrap(bound, "analyze.lint_implicit", lint_implicit)
            self.passes = wrap(bound, "passes", run_passes)
            self.violations = wrap(bound, "sim.validate", violations)
            if bound is None:
                # warm-up, untraced and unchecked: the smallest job of
                # every slot, so lazy imports happen in set-up
                for spec in TEMPLATE:
                    self.run(draw(spec, 0.0, random.Random(0)))

    def run(self, job: Job) -> Any:
        if job.get("implicit"):
            implicit = self.plan(
                job["collective"], storage="implicit", **plan_kwargs(job)
            )
            return implicit, None, self.lint_implicit(implicit)
        planned = self.plan(job["collective"], **plan_kwargs(job))
        schedule, healed = planned, None
        if job.get("dead"):
            schedule, healed = self.heal(planned)
        text = self.to_json(schedule, canonical=True)
        again = self.to_json(self.from_json(text), canonical=True)
        report = self.lint(schedule)
        optimized = self.passes(schedule)
        problems = self.violations(optimized)
        makespan = self.completion(planned)
        return planned, healed, report, text, again, problems, makespan

    def on_error(self, job: Job, exc: BaseException) -> None:
        pass

    def check(self, job: Job, out: Any) -> tuple[list[str], int]:
        counts = self.counts
        if job.get("implicit"):
            implicit, _, report = out
            if (
                self.largest_implicit is None
                or implicit.num_sends > self.largest_implicit.num_sends
            ):
                self.largest_implicit = implicit
            counts["registry.sends_planned"] += implicit.num_sends
            return [f"lint: {d.rule} {d.message}" for d in report.errors], (
                implicit.num_sends
            )
        planned, healed, report, text, again, violations, makespan = out
        problems = [f"lint: {d.rule} {d.message}" for d in report.errors]
        problems += [f"violation: {v}" for v in violations[:3]]
        if again != text:
            problems.append("canonical JSON round-trip changed the plan")
        if healed is not None and healed.uncovered_after:
            problems.append(f"heal left {healed.uncovered_after} orphan(s)")
        if "nodes" not in job:
            spec = self.registry.get_spec(job["collective"])
            params = planned.params.with_processors(job["P"])
            extra = spec.validate_extra(params, dict(job.get("extra", {})))
            if spec.tight is not None and spec.tight(params, **extra):
                bound = spec.lower_bound(params, **extra)
                if makespan != bound:
                    problems.append(
                        f"makespan {makespan} != tight bound {bound}"
                    )
        counts["registry.sends_planned"] += planned.num_sends
        counts["registry.makespan_cycles"] += makespan
        counts["schedule.serialize.bytes"] += 2 * len(text) + len(again)
        if healed is not None:
            counts["machine.heal.healed_sends"] += healed.healed_sends
        return problems, planned.num_sends

    def layer_metrics(self) -> dict[str, float]:
        import tracemalloc

        out = dict(self.counts)
        out["analyze.lint_implicit.peak_mb"] = 0.0
        if self.largest_implicit is not None:
            # measured out of band, after the timed run, so tracemalloc's
            # cost never lands inside a span
            tracemalloc.start()
            try:
                self.lint_implicit_raw(self.largest_implicit)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            out["analyze.lint_implicit.peak_mb"] = peak / 2**20
        return out

    def close(self) -> None:
        pass
