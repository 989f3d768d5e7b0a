"""``serve-zipf``: one ``POST /plan`` per operation to an in-process server.

The server is ``repro.serve.serve_http`` on an ephemeral localhost port,
running on a thread of the workload process, over a ``PlanService``
with its default memory LRU (1024 entries, smaller than the request
population) and a disk tier in a temporary directory.  The client holds one persistent
keep-alive ``http.client`` connection, opened once, with default socket
options: nothing here hides the server's keep-alive behaviour.

Requests follow a Zipf law over ``repro.bench.serve_request_points()``,
with the exponent of ``repro.bench``'s own serve load.
The popularity ranking is part of the workload (a fixed shuffle, so
popularity is not correlated with plan size); the seed picks the
request sequence.  Each round of :data:`ROUND` requests is drawn by
systematic sampling of the Zipf CDF from a seeded offset and then
shuffled, so every round carries close to the expected count of each
popular point.
"""

from __future__ import annotations

import bisect
import hashlib
import http.client
import itertools
import json
import random
import shutil
import tempfile
import threading
from typing import Any

from workloads.common import Job

#: The exponent ``repro.bench.bench_serve`` uses by default.
ZIPF_S = 1.4
ROUND = 64
#: Rounds served in-process during set-up to fill the caches.
WARM_ROUNDS = 4
#: Rounds whose reference digests are computed during set-up; later
#: rounds get theirs outside the timed region, on first sight.
REFERENCE_ROUNDS = 16
#: Fixed seed of the popularity ranking (not the workload seed).
RANKING_SEED = 2057


def _canonical_hash(doc: Any) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class ZipfRounds:
    """The seeded request sequence: ``rounds(index)`` is a list of points.

    Points are indices into the population.  Popularity rank ``r``
    (``0`` most popular) has Zipf weight ``1 / (r + 1) ** ZIPF_S``; the
    ranking itself is a fixed shuffle of the population.  Each round
    samples the Zipf CDF systematically from a seeded offset and is then
    shuffled.  Rounds are generated in order and kept.
    """

    def __init__(self, population: int, seed: int) -> None:
        order = list(range(population))
        random.Random(RANKING_SEED).shuffle(order)
        self.order = order
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(population)]
        total = sum(weights)
        self.cdf = list(itertools.accumulate(w / total for w in weights))
        self.rng = random.Random(seed)
        self.rounds: list[list[int]] = []

    def __call__(self, index: int) -> list[int]:
        last = len(self.order) - 1
        while len(self.rounds) <= index:
            offset = self.rng.random()
            draws = [
                self.order[min(bisect.bisect_left(self.cdf, (offset + i) / ROUND), last)]
                for i in range(ROUND)
            ]
            self.rng.shuffle(draws)
            self.rounds.append(draws)
        return self.rounds[index]


class ServeZipf:
    name = "serve-zipf"
    #: every round is already a systematic sample of the Zipf law
    whole_blocks = 1
    #: its latency is the keep-alive stall, a kernel timer, not CPU time
    host_normalized = False

    def __init__(self, seed: int, tracer: Any, workdir: str) -> None:
        from repro.bench import serve_request_points
        from repro.serve import PlanService, serve_http

        self.tracer = tracer
        self.population = serve_request_points()
        self.rounds = ZipfRounds(len(self.population), seed)
        self.references: dict[int, str] = {}
        self.first_reply: dict[int, bytes] = {}
        self.plan_json_spans: list[tuple[float, bool]] = []
        for index in range(REFERENCE_ROUNDS):
            for point in self.rounds(WARM_ROUNDS + index):
                self._reference(point)

        self.directory = tempfile.mkdtemp(prefix="serve-cache-", dir=workdir)
        service_cls = PlanService if tracer is None else _timed_service(tracer)
        self.service = service_cls(directory=self.directory)
        for index in range(WARM_ROUNDS):
            for point in self.rounds(index):
                PlanService.plan_json(self.service, self.population[point])
        if tracer is not None:
            self.service.spans = self.plan_json_spans
            _trace_planner(tracer)
        self.server = serve_http(host="127.0.0.1", port=0, service=self.service)
        # daemon: a set-up that fails after this line must not keep the
        # interpreter alive; close() still shuts the server down in order
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.conn = http.client.HTTPConnection(host, port, timeout=30)
        for point in self.rounds(0)[:4]:
            status, _ = self._post(point)
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}")
        self.stats_before = self._stats()

    # -- inputs ----------------------------------------------------------

    def block(self, index: int) -> list[Job]:
        return [{"point": p} for p in self.rounds(WARM_ROUNDS + index)]

    def _reference(self, point: int) -> str:
        """Content hash from ``registry.plan`` + ``schedule_to_json``.

        The service drops redundant time-0 ``source_items`` entries from
        its canonical content, so the reference drops them too.
        """
        ref = self.references.get(point)
        if ref is None:
            from repro import registry
            from repro.schedule.serialize import schedule_to_json

            request = dict(self.population[point])
            name = request.pop("collective")
            doc = json.loads(
                schedule_to_json(registry.plan(name, **request), canonical=True)
            )
            doc["source_items"] = [e for e in doc["source_items"] if e[1] != 0]
            ref = self.references[point] = _canonical_hash(doc)
        return ref

    # -- the operation ---------------------------------------------------

    def _post(self, point: int) -> tuple[int, bytes]:
        body = json.dumps(self.population[point])
        self.conn.request(
            "POST", "/plan", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = self.conn.getresponse()
        return response.status, response.read()

    def run(self, job: Job) -> Any:
        tracer = self.tracer
        if tracer is None:
            return self._post(job["point"])
        with tracer.span("serve.http") as span_id:
            tracer.remote_parent = span_id
            try:
                return self._post(job["point"])
            finally:
                tracer.remote_parent = 0

    def on_error(self, job: Job, exc: BaseException) -> None:
        pass

    def check(self, job: Job, out: Any) -> tuple[list[str], int]:
        status, body = out
        if status != 200:
            return [f"HTTP {status}: {body[:200]!r}"], 0
        point = job["point"]
        doc = json.loads(body)
        ref = self._reference(point)
        problems = []
        if doc["content_hash"] != ref or _canonical_hash(doc["plan"]) != ref:
            problems.append(f"point {point}: plan differs from the reference")
        first = self.first_reply.setdefault(point, body)
        if first != body:
            problems.append(f"point {point}: repeat request changed the bytes")
        return problems, len(doc["plan"]["sends"])

    # -- per-layer -------------------------------------------------------

    def _stats(self) -> dict[str, Any]:
        self.conn.request("GET", "/stats")
        response = self.conn.getresponse()
        return json.loads(response.read())

    def layer_metrics(self) -> dict[str, float]:
        import statistics

        before, after = self.stats_before, self._stats()
        requests = after["requests"] - before["requests"]

        def delta(tier: str, key: str) -> int:
            return after[tier][key] - before[tier][key]

        hits = [d for d, hit in self.plan_json_spans if hit]
        misses = [d for d, hit in self.plan_json_spans if not hit]
        return {
            "serve.planned": after["planned"] - before["planned"],
            "serve.cache.memory_hit_rate": delta("memory", "hits") / max(requests, 1),
            "serve.cache.disk_hit_rate": delta("disk", "hits") / max(requests, 1),
            "serve.cache.evictions": delta("memory", "evictions"),
            "serve.plan_json.hit_us": statistics.median(hits) * 1e6 if hits else 0.0,
            "serve.plan_json.miss_ms": statistics.median(misses) * 1e3 if misses else 0.0,
        }

    def close(self) -> None:
        self.conn.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        shutil.rmtree(self.directory, ignore_errors=True)


def _timed_service(tracer: Any) -> Any:
    """A ``PlanService`` whose ``plan_json`` is a span, split hit/miss."""
    import time

    from repro.serve import PlanService

    class TimedPlanService(PlanService):
        spans: list[tuple[float, bool]]

        def plan_json(self, request: Any) -> str:
            planned = self.planned
            started = time.perf_counter()
            with tracer.span("serve.plan_json"):
                content = super().plan_json(request)
            self.spans.append(
                (time.perf_counter() - started, self.planned == planned)
            )
            return content

    return TimedPlanService


def _trace_planner(tracer: Any) -> None:
    """Wrap the service's miss path: planning and canonical serialization.

    ``PlanService`` looks ``build_plan`` up in its module and
    ``build_plan`` looks ``plan_content`` up in ``repro.serve.keys``, so
    replacing the two module attributes puts a span around each call.
    Traced runs only; the untraced run never touches them.
    """
    from repro.serve import keys, service

    service.build_plan = tracer.wrap("registry", service.build_plan)
    serialize = tracer.wrap("schedule.serialize", keys.plan_content)

    def plan_content(schedule: Any) -> str:
        content = serialize(schedule)
        tracer.counters["schedule.serialize.bytes"] += len(content)
        return content

    keys.plan_content = plan_content
