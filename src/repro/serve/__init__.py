"""``repro.serve``: planning as a cached, batched, served product.

The registry's :func:`~repro.registry.plan` builds every collective from
scratch on each call.  Real traffic (Barchet-Estefanel & Mounié's
measurements, PAPERS.md cs/0408034) concentrates on a small set of
recurring ``(collective, machine)`` points, so this package puts a
content-addressed cache in front of the planner and serves it:

* :mod:`repro.serve.keys` — canonical request keys (alias-normalized,
  domain-validated) and content hashing of canonical plan JSON;
* :mod:`repro.serve.cache` — bounded in-memory LRU over an atomic,
  corruption-tolerant on-disk tier that stores each distinct plan once;
* :mod:`repro.serve.service` — :class:`PlanService` with ``plan_json``
  / ``plan_many_json`` (batch keys deduplicated before planning) and
  ``stats()`` observability;
* :mod:`repro.serve.http` — a stdlib ``ThreadingHTTPServer`` front end
  (``POST /plan``, ``POST /plan_many``, ``GET /stats``), started via
  ``python -m repro.cli serve``.

Quickstart::

    from repro.serve import PlanService

    service = PlanService(capacity=1024, directory=".plan-cache")
    plan_json = service.plan("broadcast", P=8, L=6, o=2, g=4)
    service.plan_many_json([{"collective": "bcast", "P": 8, "L": 6}] * 100)
    service.stats()["memory"]["hits"]

The bench harness's ``serve`` scenario (``repro.bench.bench_serve``)
drives a Zipf request mix over thousands of points; the recorded gate
(``BENCH_PR7.json``) holds the hot path at ≥ 20x cold planning with a
≥ 90% hit rate.
"""

from repro.serve.cache import DiskCache, LRUCache, PlanCache
from repro.serve.http import PlanServer, serve_http
from repro.serve.keys import (
    PlanRequest,
    build_plan,
    canonical_request,
    content_hash,
    plan_content,
    request_from_mapping,
    request_key,
    request_key_hash,
)
from repro.serve.service import PlanService, core_cache_stats

__all__ = [
    "PlanRequest",
    "canonical_request",
    "request_from_mapping",
    "request_key",
    "request_key_hash",
    "plan_content",
    "content_hash",
    "build_plan",
    "LRUCache",
    "DiskCache",
    "PlanCache",
    "PlanService",
    "core_cache_stats",
    "PlanServer",
    "serve_http",
]
