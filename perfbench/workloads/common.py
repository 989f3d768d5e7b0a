"""Seeded, stratified job generation shared by the workloads.

A workload's job stream is a sequence of *blocks*.  Every block holds
the same fixed template of slots (collective, size range, transport),
so any run that ends on a block boundary has exactly the workload's
intended mix, whatever the seed.  Inside a slot, the size comes from a
low-discrepancy sequence (see :func:`stratum`) that is the same for
every seed: a slot's cost grows with P (all-to-all with P^2), so a
seeded size sequence moved a 30 s run's work by up to a fifth from
seed to seed.  The machine parameters, node shapes and extra arguments
are stratified across blocks too, with seeded rotations (see
:class:`Draws`); the seed alone picks payload values, dead ranks and the
order of the jobs in each block.  Two seeds differ in every job but not
in how much work they hold.
"""

from __future__ import annotations

import math
import random
from typing import Any

Job = dict[str, Any]


def _radical_inverse(n: int, base: int = 2) -> float:
    """Van der Corput: ``n``'s base-``base`` digits mirrored about the point."""
    out, scale = 0.0, 1.0 / base
    while n:
        n, digit = divmod(n, base)
        out += digit * scale
        scale /= base
    return out


#: Block 0 draws every slot's largest size, ``1 - 2**-10`` of the way
#: along its range: a run meets the sizes that set its peak memory at
#: once, whatever its length.
_FIRST = 1 - 2**-10


def stratum(block: int) -> float:
    """Block ``block``'s position in every slot's size range, in ``[0, 1)``.

    The van der Corput point of ``block`` shifted by :data:`_FIRST`
    (mod 1).  Any prefix of the sequence covers the range evenly, and
    blocks ``4k .. 4k+3`` hit each quarter of it once.  It depends on
    neither the seed nor the host, so runs of the same length hold the
    same sizes.
    """
    return (_radical_inverse(block) + _FIRST) % 1.0


#: Bases of the Halton coordinates a job's parameter draws use, in call
#: order; base 2 is the size's (:func:`stratum`).
_BASES = (3, 5, 7, 11, 13, 17, 19, 23)


class Draws:
    """One job's parameter draws, stratified across blocks.

    The ``k``-th ``random``/``randint``/``choice`` call a slot's draw
    makes in block ``b`` returns the base-``_BASES[k]`` radical inverse
    of ``b``, rotated by the slot's seeded shift for that call (mod 1).
    So over a run each parameter takes its values in even proportions,
    for every seed, while two seeds pair them with different jobs.
    ``sample`` and ``randrange`` pick values that cost nothing to vary
    (dead ranks, payloads) and come straight from the seeded ``rng``.
    """

    def __init__(self, shifts: list[float], block: int, rng: random.Random) -> None:
        self.shifts = shifts
        self.block = block
        self.rng = rng
        self.calls = 0

    def random(self) -> float:
        k = self.calls
        self.calls += 1
        return (_radical_inverse(self.block, _BASES[k]) + self.shifts[k]) % 1.0

    def randint(self, a: int, b: int) -> int:
        return a + min(int(self.random() * (b - a + 1)), b - a)

    def choice(self, seq: Any) -> Any:
        return seq[min(int(self.random() * len(seq)), len(seq) - 1)]

    def sample(self, population: Any, k: int) -> list[Any]:
        return self.rng.sample(population, k)

    def randrange(self, stop: int) -> int:
        return self.rng.randrange(stop)


def log_uniform(u: float, lo: int, hi: int) -> int:
    """The integer at log-position ``u`` of ``[lo, hi]``."""
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


def log_slices(lo: int, hi: int, count: int) -> list[tuple[int, int]]:
    """``[lo, hi]`` cut into ``count`` ranges of equal log-width."""
    edges = [log_uniform(i / count, lo, hi) for i in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def logp(rng: Any) -> tuple[int, int, int]:
    """A seeded ``(L, o, g)`` with ``o <= g``, as the model requires."""
    L = rng.randint(2, 8)
    o = rng.randint(0, 2)
    g = rng.randint(max(o, 1), o + 3)
    return L, o, g


def hier_shape(rng: Any, P: int) -> dict[str, Any]:
    """A two-level machine of about ``P`` ranks: nodes x cores + levels."""
    cores = rng.choice((2, 4, 8))
    nodes = max(2, round(P / cores))
    o = rng.randint(1, 2)
    return {
        "nodes": nodes,
        "cores": cores,
        "inter": (rng.randint(6, 12), o, rng.randint(o, o + 3)),
        "intra": (rng.randint(1, 2), 0, 1),
    }


def dead_ranks(rng: Any, P: int) -> tuple[int, ...]:
    """One to three dead ranks; rank 0, the broadcast root, survives."""
    return tuple(sorted(rng.sample(range(1, P), rng.randint(1, 3))))


def build_machine(job: Job) -> Any:
    """The job's two-level (optionally fault-masked) machine model."""
    from repro.machine import FaultMaskedMachine, HierarchicalMachine
    from repro.params import LogPParams

    nodes, cores = job["nodes"], job["cores"]
    machine = HierarchicalMachine(
        nodes=nodes,
        cores=cores,
        inter=LogPParams(nodes, *job["inter"]),
        intra=LogPParams(cores, *job["intra"]),
    )
    if job.get("dead"):
        machine = FaultMaskedMachine(base=machine, dead=job["dead"])
    return machine


def plan_kwargs(job: Job) -> dict[str, Any]:
    """Keyword arguments for ``registry.plan`` from a flat or hier job."""
    if "nodes" in job:
        return {"machine": build_machine(job)}
    kwargs = {key: job[key] for key in ("P", "L", "o", "g") if key in job}
    kwargs.update(job.get("extra", {}))
    return kwargs


class BlockStream:
    """The seeded job stream of a workload: ``stream(index)`` is a block.

    Each block is ``draw(slot_spec, u, draws)`` per slot of
    ``template``, with ``u`` from :func:`stratum` and ``draws`` a
    :class:`Draws`, in seeded order.  Blocks are generated in order and
    kept, so asking for the same index twice gives the same jobs.
    """

    def __init__(self, template: list[Any], draw: Any, seed: int) -> None:
        self.template = template
        self.draw = draw
        self.rng = random.Random(seed)
        self.shifts = [[self.rng.random() for _ in _BASES] for _ in template]
        self.blocks: list[list[Job]] = []

    def __call__(self, index: int) -> list[Job]:
        while len(self.blocks) <= index:
            block = len(self.blocks)
            jobs = [
                self.draw(spec, stratum(block), Draws(shifts, block, self.rng))
                for spec, shifts in zip(self.template, self.shifts)
            ]
            self.rng.shuffle(jobs)
            self.blocks.append(jobs)
        return self.blocks[index]
