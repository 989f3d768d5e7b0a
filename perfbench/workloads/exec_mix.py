"""``exec-mix``: the ``repro run`` path, one job per operation.

Each operation plans a seeded job through ``registry.plan``, heals it if
its machine has dead ranks, lints it, lowers it to per-rank programs,
executes the programs on a real transport and verifies the delivered
multiset against the simulator.  Reductions run in combine mode, so the
check can compare the folded sums with the seeded values.
"""

from __future__ import annotations

import operator
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

#: Wall-clock limit of one execution; a timeout counts as a failure.
EXEC_TIMEOUT_S = 10.0

#: One block: (collective, transport, P range).  Two of twelve slots run
#: on ``mp``; the rest on ``inproc``.
TEMPLATE: list[tuple[str, str, tuple[int, int]]] = [
    *(("broadcast", "inproc", r) for r in log_slices(64, 2048, 4)),
    *(("reduction", "inproc", r) for r in log_slices(64, 2048, 2)),
    ("allreduce", "inproc", (16, 64)),
    ("all-to-all", "inproc", (16, 64)),
    ("hier-bcast", "inproc", (16, 256)),
    ("hier-bcast-dead", "inproc", (16, 256)),
    ("broadcast", "mp", (64, 512)),
    ("all-to-all", "mp", (16, 48)),
]


def draw(spec: tuple[str, str, tuple[int, int]], u: float, rng: Any) -> Job:
    kind, transport, (lo, hi) = spec
    P = log_uniform(u, lo, hi)
    job: Job = {
        "kind": kind, "transport": transport, "values": rng.randrange(1 << 30)
    }
    if kind.startswith("hier-bcast"):
        job["collective"] = "hier-bcast"
        job.update(hier_shape(rng, P))
        if kind.endswith("-dead"):
            job["dead"] = dead_ranks(rng, job["nodes"] * job["cores"])
        return job
    job["collective"] = kind
    if kind == "allreduce":
        # the combining broadcast is defined on the postal model
        job.update(P=P, L=rng.randint(2, 4), o=0, g=1)
    else:
        L, o, g = logp(rng)
        job.update(P=P, L=L, o=o, g=g)
    return job


def _seed_value(values: int, rank: int) -> int:
    return (values * 7919 + rank * 104729) % 1_000_003


class ExecMix:
    name = "exec-mix"
    #: blocks 4k..4k+3 cover each quarter of every slot's size range
    whole_blocks = 4
    host_normalized = True

    def __init__(self, seed: int, tracer: Any, workdir: str) -> None:
        import random

        from repro import registry
        from repro.analyze import lint_schedule
        from repro.exec import execute, lower_schedule, verify_against_sim
        from repro.machine import heal_columns
        from tracing import wrap

        self.block = BlockStream(TEMPLATE, draw, seed)
        self.registry = registry
        self.counts: dict[str, float] = {
            "registry.sends_planned": 0,
            "registry.makespan_cycles": 0,
            "machine.heal.healed_sends": 0,
            "exec.lower.instrs": 0,
            "exec.timeouts": 0,
        }
        self.transport_s: dict[str, float] = {"inproc": 0.0, "mp": 0.0}
        self.deliveries: dict[str, int] = {"inproc": 0, "mp": 0}
        # warm-up, untraced and unchecked: one small job per slot, so
        # lazy imports and the first mp fork happen in set-up
        for bound in (None, tracer):
            self.plan = wrap(bound, "registry", registry.plan)
            self.heal = wrap(bound, "machine.heal", heal_columns)
            self.lint = wrap(bound, "analyze.lint", lint_schedule)
            self.lower = wrap(bound, "exec.lower", lower_schedule)
            self.execute = wrap(bound, "exec.execute", execute)
            self.verify = wrap(bound, "exec.verify", verify_against_sim)
            if bound is None:
                for kind, transport, _ in TEMPLATE:
                    spec = (kind, transport, (16, 16))
                    self.run(draw(spec, 0.0, random.Random(0)))

    def run(self, job: Job) -> Any:
        plan, heal, lint, lower, execute, verify = (
            self.plan, self.heal, self.lint, self.lower, self.execute,
            self.verify,
        )
        schedule = plan(job["collective"], **plan_kwargs(job))
        planned = schedule
        healed = None
        if job.get("dead"):
            schedule, healed = heal(schedule)
        report = lint(schedule)
        program = lower(schedule)
        kwargs: dict[str, Any] = {}
        P = schedule.params.P
        if job["collective"] in ("reduction", "allreduce"):
            kwargs["combine"] = operator.add
            kwargs["accumulators"] = {
                r: _seed_value(job["values"], r) for r in range(P)
            }
        elif job["collective"] != "all-to-all":
            ((root, items),) = [(r, i) for r, i in schedule.initial.items() if i]
            (item,) = items
            kwargs["payloads"] = {root: {item: job["values"]}}
        result = execute(
            program, transport=job["transport"], timeout=EXEC_TIMEOUT_S,
            **kwargs,
        )
        verify(schedule, result.trace)
        return planned, schedule, healed, report, program, result

    def on_error(self, job: Job, exc: BaseException) -> None:
        from repro.exec import ExecTimeout

        if isinstance(exc, ExecTimeout):
            self.counts["exec.timeouts"] += 1

    def check(self, job: Job, out: Any) -> tuple[list[str], int]:
        planned, schedule, healed, report, program, result = out
        problems = [f"lint: {d.rule} {d.message}" for d in report.errors]
        P = schedule.params.P
        values = result.values
        collective = job["collective"]
        if collective in ("reduction", "allreduce"):
            total = sum(_seed_value(job["values"], r) for r in range(P))
            if collective == "reduction":
                senders = set(schedule.columns().srcs.tolist())
                ranks = [r for r in range(P) if r not in senders]
            else:
                ranks = list(range(P))
            wrong = [r for r in ranks if values.get(r) != total]
            if len(ranks) != 1 and collective == "reduction":
                problems.append(f"reduction has {len(ranks)} roots")
            if wrong:
                problems.append(f"{len(wrong)} rank(s) miss the sum {total}")
        elif collective == "all-to-all":
            every = {i for items in schedule.initial.values() for i in items}
            short = [r for r in range(P) if not every <= set(values.get(r, {}))]
            if short:
                problems.append(f"{len(short)} rank(s) miss all-to-all items")
        else:
            ((root, items),) = [(r, i) for r, i in schedule.initial.items() if i]
            (item,) = items
            machine = schedule.machine
            alive = machine.alive_np().tolist() if machine is not None else range(P)
            short = [
                r for r in alive if values.get(r, {}).get(item) != job["values"]
            ]
            if short:
                problems.append(f"broadcast value missing on {len(short)} rank(s)")
        if healed is not None and healed.uncovered_after:
            problems.append(f"heal left {healed.uncovered_after} orphan(s)")
        counts = self.counts
        counts["registry.sends_planned"] += planned.num_sends
        counts["registry.makespan_cycles"] += self.registry.completion(planned)
        counts["exec.lower.instrs"] += program.num_instrs
        if healed is not None:
            counts["machine.heal.healed_sends"] += healed.healed_sends
        self.transport_s[result.transport] += result.wall_s
        self.deliveries[result.transport] += result.num_delivered
        return problems, result.num_delivered

    def layer_metrics(self) -> dict[str, float]:
        out = dict(self.counts)
        out["exec.transport_s"] = sum(self.transport_s.values())
        for name in ("inproc", "mp"):
            n = self.deliveries[name]
            out[f"exec.us_per_delivery.{name}"] = (
                self.transport_s[name] / n * 1e6 if n else 0.0
            )
        return out

    def close(self) -> None:
        pass
