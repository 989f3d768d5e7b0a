"""MPI-style collectives on real Python values.

:class:`VirtualCluster` plans each collective through
:func:`repro.registry.plan`, relabels ranks for roots other than 0, and
executes the plan through the :mod:`repro.exec` stack (lowered to
per-rank programs and run on a real transport, ``inproc`` by default).
It returns both the per-processor results and the cycle-accurate
elapsed time.  This is the "does it really work" layer: the data
movement follows the schedule exactly, so a wrong schedule produces
wrong data, not just a wrong time.

Example::

    from repro.comm import VirtualCluster
    from repro.params import LogPParams

    cluster = VirtualCluster(LogPParams(P=8, L=6, o=2, g=4))
    values, cycles = cluster.bcast("hello", root=3)
    assert values == ["hello"] * 8 and cycles == 24
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro import registry
from repro.core.combining import allreduce_time
from repro.params import LogPParams
from repro.schedule.ops import Schedule

if TYPE_CHECKING:
    from repro.exec.run import ExecResult

__all__ = ["VirtualCluster"]


class VirtualCluster:
    """Executes collective plans on real Python values.

    A thin front end over :func:`repro.registry.plan` and
    :mod:`repro.exec`: every collective plans its root-0 schedule,
    rotates ranks ``p -> (p + root) % P`` for other roots, lowers it to
    per-rank programs and runs them on a real transport
    (``backend="inproc"`` by default — threads and queues,
    deterministic).  Data strictly follows the plan's messages: each
    send moves the value it names, matched receives deliver it, and
    reductions fold with the user's operator in arrival order — so a
    wrong schedule produces wrong data, not just a wrong time.

    The reported cycle counts still come from the *model* (the plan's
    completion time), never from wall clocks.
    """

    def __init__(
        self,
        params: LogPParams,
        backend: str = "inproc",
        timeout: float = 30.0,
    ):
        self.params = params
        self.backend = backend
        self.timeout = timeout

    def _plan(self, name: str, root: int = 0, **extra: int) -> Schedule:
        P = self.params.P
        if not 0 <= root < P:
            raise ValueError(f"root {root} out of range for P={P}")
        schedule = registry.plan(name, self.params, **extra)
        assert isinstance(schedule, Schedule)
        if root:
            from repro.schedule.transform import remap

            schedule = remap(schedule, {p: (p + root) % P for p in range(P)})
        return schedule

    def _execute(
        self,
        schedule: Schedule,
        *,
        payloads: dict[int, dict[Any, Any]] | None = None,
        combine: Callable[[Any, Any], Any] | None = None,
        accumulators: dict[int, Any] | None = None,
    ) -> ExecResult:
        from repro.exec import execute

        return execute(
            schedule,
            transport=self.backend,
            payloads=payloads,
            combine=combine,
            accumulators=accumulators,
            timeout=self.timeout,
        )

    def _check_count(self, name: str, values: Sequence[Any]) -> None:
        if len(values) != self.params.P:
            raise ValueError(f"{name} needs P={self.params.P} values")

    # -- data-movement collectives ----------------------------------------

    def bcast(self, value: Any, root: int = 0) -> tuple[list[Any], int]:
        schedule = self._plan("broadcast", root)
        result = self._execute(schedule, payloads={root: {0: value}})
        results = [result.values[p][0] for p in range(self.params.P)]
        return results, registry.completion(schedule)

    def kitem_bcast(
        self, values: Sequence[Any], root: int = 0
    ) -> tuple[list[list[Any]], int]:
        k = len(values)
        schedule = self._plan("kitem", root, k=k)
        result = self._execute(
            schedule, payloads={root: dict(enumerate(values))}
        )
        ordered = [
            [result.values[p][i] for i in range(k)]
            for p in range(self.params.P)
        ]
        return ordered, registry.completion(schedule)

    def scatter(self, values: Sequence[Any], root: int = 0) -> tuple[list[Any], int]:
        self._check_count("scatter", values)
        P = self.params.P
        schedule = self._plan("scatter", root)
        # items name the root-0 destination rank (p - root) % P
        result = self._execute(
            schedule,
            payloads={
                root: {
                    ("scatter", (p - root) % P): values[p]
                    for p in range(P)
                    if p != root
                }
            },
        )
        return [
            values[p] if p == root
            else result.values[p][("scatter", (p - root) % P)]
            for p in range(P)
        ], registry.completion(schedule)

    def gather(self, values: Sequence[Any], root: int = 0) -> tuple[list[Any], int]:
        self._check_count("gather", values)
        P = self.params.P
        schedule = self._plan("gather", root)
        result = self._execute(
            schedule,
            payloads={
                p: {("gather", (p - root) % P): values[p]}
                for p in range(P)
                if p != root
            },
        )
        root_store = result.values[root]
        return [
            values[p] if p == root else root_store[("gather", (p - root) % P)]
            for p in range(P)
        ], registry.completion(schedule)

    def allgather(self, values: Sequence[Any]) -> tuple[list[list[Any]], int]:
        self._check_count("allgather", values)
        P = self.params.P
        schedule = self._plan("all-to-all")
        result = self._execute(
            schedule, payloads={p: {("a2a", p): values[p]} for p in range(P)}
        )
        ordered = [
            [result.values[p][("a2a", q)] for q in range(P)] for p in range(P)
        ]
        return ordered, registry.completion(schedule)

    def alltoall(self, matrix: Sequence[Sequence[Any]]) -> tuple[list[list[Any]], int]:
        P = self.params.P
        if len(matrix) != P or any(len(row) != P for row in matrix):
            raise ValueError(f"alltoall needs a {P}x{P} matrix")
        schedule = self._plan("all-to-all-personalized")
        result = self._execute(
            schedule,
            payloads={
                i: {("p2p", i, j): matrix[i][j] for j in range(P) if j != i}
                for i in range(P)
            },
        )
        ordered = [
            [
                matrix[p][p] if q == p else result.values[p][("p2p", q, p)]
                for q in range(P)
            ]
            for p in range(P)
        ]
        return ordered, registry.completion(schedule)

    # -- reductions ----------------------------------------------------------

    def reduce(
        self,
        values: Sequence[Any],
        op: Callable[[Any, Any], Any] = lambda a, b: a + b,
        root: int = 0,
    ) -> tuple[Any, int]:
        self._check_count("reduce", values)
        schedule = self._plan("reduction", root)
        # combine mode: every delivery folds into the receiver's running
        # accumulator in arrival order, every send ships the current
        # value — the execution-side meaning of the reversal schedule
        result = self._execute(
            schedule,
            combine=op,
            accumulators={p: values[p] for p in range(self.params.P)},
        )
        return result.values[root], registry.completion(schedule)

    def allreduce(
        self,
        values: Sequence[Any],
        op: Callable[[Any, Any], Any] = lambda a, b: a + b,
    ) -> tuple[list[Any], int]:
        self._check_count("allreduce", values)
        P = self.params.P
        cycles, algorithm = allreduce_time(self.params)
        if algorithm == "combining":
            # the combining schedule on real data: each message carries
            # the sender's running value at send time, which is exactly
            # combine mode's send-the-accumulator semantics
            result = self._execute(
                self._plan("allreduce"),
                combine=op,
                accumulators={p: values[p] for p in range(P)},
            )
            return [result.values[p] for p in range(P)], cycles
        total, _ = self.reduce(values, op, root=0)
        results, _ = self.bcast(total, root=0)
        return results, cycles
