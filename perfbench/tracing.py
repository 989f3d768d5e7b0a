"""Spans recorded from outside the program, around each layer's public call.

A :class:`Tracer` keeps every span in memory as a tuple
``(name, start_ns, end_ns, span_id, parent_id, op_id, thread_id)`` and
writes them out once, at the end, as Chrome trace-event JSON
(``chrome://tracing`` / Perfetto "X" complete events).

Parents come from a per-thread span stack.  A span opened on another
thread (the HTTP server's handler thread) has an empty stack there, so
it hangs under :attr:`Tracer.remote_parent`: the client sets that to its
own request span while the request is in flight.  With one closed-loop
client there is exactly one request in flight, so the link is exact.

An untraced run never builds a tracer: :func:`wrap` returns the function
itself, so the program runs unwrapped.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Name of the root span of one benchmark operation.  Its self time is
#: the time no named layer covers, reported as ``other``.
OP = "op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = 0
        self.remote_parent = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        stack = self._stack()
        parent = stack[-1] if stack else self.remote_parent
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                (name, start, end, span_id, parent, self.op_id,
                 threading.get_ident())
            )

    @contextmanager
    def op(self, op_id: int) -> Iterator[int]:
        """Root span of one operation; every span inside carries its id."""
        self.op_id = op_id
        with self.span(OP) as span_id:
            yield span_id

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- analysis ------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self seconds per layer name and the summed op root duration.

        A span's self time is its duration minus the union of the
        intervals its child spans cover (children on another thread may
        overlap each other, hence the union).  The op root's self time
        is reported as ``other``.
        """
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _name, start, end, _sid, parent, _op, _tid in self.spans:
            children[parent].append((start, end))
        busy: dict[str, float] = defaultdict(float)
        total = 0
        for name, start, end, sid, _parent, _op, _tid in self.spans:
            covered = _union_within(children.get(sid, []), start, end)
            key = "other" if name == OP else name
            busy[key] += (end - start - covered) / 1e9
            if name == OP:
                total += end - start
        return dict(busy), total / 1e9

    def write_chrome(self, path: str) -> None:
        base = min((s[1] for s in self.spans), default=0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - base) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": tid,
                "args": {"op": op, "span": sid, "parent": parent},
            }
            for name, start, end, sid, parent, op, tid in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _union_within(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def wrap(
    tracer: Tracer | None, name: str, fn: Callable[..., Any]
) -> Callable[..., Any]:
    """``fn`` traced as layer ``name``, or ``fn`` itself when untraced."""
    return fn if tracer is None else tracer.wrap(name, fn)
