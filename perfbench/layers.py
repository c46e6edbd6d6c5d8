"""Per-layer spans recorded from outside the serving stack.

:class:`LayerTrace` wraps the public calls into each layer of the
serving stack for the duration of a traced run and restores them
afterwards; nothing under ``src/`` changes.  Each wrapped call becomes a
span (name, start, end, parent, whether it raised).  Parents come from a
context variable, so nesting follows the call stack within a thread and
within an asyncio task; the solver pool's helper thread for deadline-
bounded solves is given the submitting thread's context so a core solve
nests under the pool call that waited for it.

Attribution is per request.  Every request served by one
``handle_batch`` call waits for the whole call, so it is charged the
self time of every span in that call's tree.  A span's self time is its
duration minus the part of it that its children cover.  On the cluster
path a request's ``submit`` span covers its batch; the rest of the
submit span (routing, admission, queueing, coalesced waiting) is the
cluster layer's self time.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Span name -> layer (the repo module the span times).
LAYER_OF = {
    "cluster.submit": "cluster",
    "cluster.route": "cluster",
    "service.handle_batch": "runtime.service",
    "cache.get": "runtime.cache",
    "cache.put": "runtime.cache",
    "cache.peek": "runtime.cache",
    "channel.stack": "channel",
    "channel.update": "channel",
    "channel.throughput_stack": "channel",
    "pool.solve_outcomes": "runtime.pool",
    "core.heuristic": "core",
    "core.swing": "core",
    "core.optimal": "core",
}

_CURRENT: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass
class Span:
    span_id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    failed: bool = False
    tags: Tuple[str, ...] = ()
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ContextExecutor(ThreadPoolExecutor):
    """A thread pool whose tasks run in the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):  # type: ignore[override]
        context = contextvars.copy_context()
        return super().submit(context.run, fn, *args, **kwargs)


def _covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of *intervals*."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cursor = start
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_time(span: Span) -> float:
    """The span's duration minus the part its children cover."""
    return span.duration - _covered(
        span.start, span.end, ((c.start, c.end) for c in span.children)
    )


class LayerTrace:
    """Install span-recording wrappers on the serving stack's layer calls."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str, tags: Tuple[str, ...] = ()) -> Tuple[Span, contextvars.Token]:
        span = Span(next(self._ids), name, _CURRENT.get(), time.perf_counter(), tags=tags)
        return span, _CURRENT.set(span.span_id)

    def _close(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        self.spans.append(span)

    def _wrap(self, name: str, fn: Callable, tags_of: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, token = self._open(name, tags_of(*args) if tags_of else ())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                self._close(span, token)

        return wrapper

    def _wrap_async(self, name: str, fn: Callable, tags_of: Callable) -> Callable:
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span, token = self._open(name, tags_of(*args))
            try:
                return await fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                self._close(span, token)

        return wrapper

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- install / uninstall --------------------------------------------

    def install(self) -> None:
        from repro.cluster.controller import ClusterController
        from repro.cluster.frontend import ClusterFrontend
        from repro.runtime import cache, pool, service

        self._patch(
            ClusterFrontend, "submit",
            self._wrap_async(
                "cluster.submit", ClusterFrontend.submit,
                lambda _self, request: (request.tag,),
            ),
        )
        self._patch(
            ClusterController, "route",
            self._wrap("cluster.route", ClusterController.route),
        )
        self._patch(
            service.AllocationService, "handle_batch",
            self._wrap(
                "service.handle_batch", service.AllocationService.handle_batch,
                lambda _self, requests, *rest: tuple(r.tag for r in requests),
            ),
        )
        for method in ("get", "put", "peek"):
            self._patch(
                cache.LRUCache, method,
                self._wrap(f"cache.{method}", getattr(cache.LRUCache, method)),
            )
        for attr, name in (
            ("channel_matrix_stack", "channel.stack"),
            ("channel_matrix_update", "channel.update"),
            ("throughput_stack", "channel.throughput_stack"),
        ):
            self._patch(service, attr, self._wrap(name, getattr(service, attr)))
        self._patch(
            pool.SolverPool, "solve_outcomes",
            self._wrap("pool.solve_outcomes", pool.SolverPool.solve_outcomes),
        )
        heuristic = pool.RankingHeuristic

        class TracedRankingHeuristic(heuristic):  # type: ignore[misc,valid-type]
            solve = self._wrap("core.heuristic", heuristic.solve)

        self._patch(pool, "RankingHeuristic", TracedRankingHeuristic)
        self._patch(pool, "solve_swing", self._wrap("core.swing", pool.solve_swing))
        self._patch(pool, "solve_optimal", self._wrap("core.optimal", pool.solve_optimal))
        self._patch(pool, "ThreadPoolExecutor", _ContextExecutor)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- attribution ----------------------------------------------------

    def trees(self) -> List[Span]:
        """Link spans to their parents; return the roots."""
        by_id = {span.span_id: span for span in self.spans}
        for span in self.spans:
            span.children.clear()
        roots = []
        for span in self.spans:
            parent = by_id.get(span.parent) if span.parent is not None else None
            if parent is None:
                roots.append(span)
            else:
                parent.children.append(span)
        return roots


def _walk(span: Span) -> Iterable[Span]:
    yield span
    for child in span.children:
        yield from _walk(child)


@dataclass
class Attribution:
    """Per-request latency charged to each span name, plus call counts."""

    requests: int = 0
    latency_s: float = 0.0
    self_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    failed_s: float = 0.0
    calls: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    batches: int = 0
    batch_requests: int = 0
    queue_waits_s: List[float] = field(default_factory=list)

    @property
    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    def by_layer_ms(self) -> Dict[str, float]:
        """Self time per served request [ms], summed by layer."""
        totals: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            totals[LAYER_OF[name]] += seconds / max(self.requests, 1) * 1e3
        return dict(totals)


def attribute(trace: LayerTrace, latencies: Dict[str, float]) -> Attribution:
    """Charge every request's latency to the spans it waited on.

    *latencies* maps request tag -> latency [s] on the benchmark's own
    clock, for every served request of the measured phase; calls and
    batches are counted over the trees those requests waited on.
    """
    roots = trace.trees()
    result = Attribution(requests=len(latencies))
    result.latency_s = sum(latencies.values())
    batches = {
        root.span_id: root
        for root in roots
        if root.name == "service.handle_batch"
        and any(tag in latencies for tag in root.tags)
    }
    batch_of = {tag: root for root in batches.values() for tag in root.tags}
    submit_of = {
        root.tags[0]: root
        for root in roots
        if root.name == "cluster.submit" and root.tags[0] in latencies
    }
    batch_self: Dict[int, Dict[str, float]] = {}
    batch_failed: Dict[int, float] = {}
    for root in list(batches.values()) + list(submit_of.values()):
        for span in _walk(root):
            result.calls[span.name] += 1
    for span_id, root in batches.items():
        result.batches += 1
        result.batch_requests += len(root.tags)
        totals: Dict[str, float] = defaultdict(float)
        failed = 0.0
        for span in _walk(root):
            own = self_time(span)
            totals[span.name] += own
            if span.failed and span.name.startswith("core."):
                failed += own
        batch_self[span_id] = totals
        batch_failed[span_id] = failed
    for tag in latencies:
        batch = batch_of.get(tag)
        if batch is not None:
            for name, seconds in batch_self[batch.span_id].items():
                result.self_s[name] += seconds
            result.failed_s += batch_failed[batch.span_id]
        submit = submit_of.get(tag)
        if submit is not None:
            # The submit span covers the batch; the rest of it (routing,
            # admission, queueing, coalesced waiting) is the cluster's.
            covered = batch.duration if batch is not None else 0.0
            result.self_s["cluster.submit"] += max(self_time(submit) - covered, 0.0)
            for child in submit.children:
                result.self_s[child.name] += self_time(child)
            if batch is not None:
                result.queue_waits_s.append(batch.start - submit.start)
    return result
