"""End-to-end tracing for the allocation-serving runtime.

Answers "where did this request's 40 ms go?": every served request
yields a span tree -- request -> channel / allocation / throughput ->
solve -- with structured attributes (scene fingerprint, cache outcome,
solver tier, degradation provenance, SLSQP introspection).  Three design
constraints shape the module:

- **Deterministic**: trace and span ids are blake2b hashes of
  ``(seed, counter)``, so the same workload under the same seed produces
  the same ids -- trace output diffs cleanly across runs.  Sampling
  decisions are pure hashes of the trace index, never a global RNG.
- **Shared-solve aware**: one solve may serve several requests, so the
  solver pool records its spans into a :class:`SpanRecorder` whose
  payload -- plain dicts with local ids and capture-relative times --
  travels back with the solve result and is attached to every request
  trace it serves by :meth:`Tracer.attach_payload` (ids remapped
  deterministically, times re-based on the tracer's clock).
- **Near-free when off**: a disabled tracer refuses every span with one
  attribute read; call sites in the service guard their bookkeeping on
  ``tracer.enabled`` so the untraced hot path is unchanged.

Exports: :meth:`Tracer.export_chrome_trace` writes Chrome-trace /
Perfetto JSON (load it at https://ui.perfetto.dev), and
:meth:`Tracer.export_events` writes one JSON object per span (JSON
lines).  The span buffer is bounded (``max_spans``); overflow drops the
oldest spans and counts them in ``dropped_spans``.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence

from ..analysis.lockgraph import monitored_lock
from ..errors import ConfigurationError
from ..tracecontext import Span, activate_span, current_span


def _hash_id(seed: int, kind: str, index: int) -> str:
    """A deterministic 16-hex-digit identifier for a trace coordinate."""
    return hashlib.blake2b(
        f"{seed}:{kind}:{index}".encode(), digest_size=8
    ).hexdigest()


def _sample_unit(seed: int, index: int) -> float:
    """A deterministic uniform draw in [0, 1) for the sampling decision."""
    digest = hashlib.blake2b(
        f"{seed}:sample:{index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class TracingOptions:
    """Knobs for :class:`Tracer`.

    Attributes:
        enabled: master switch; a disabled tracer creates no spans and
            adds one attribute read per guarded call site.
        sample_rate: fraction of traces recorded, decided per root span
            by a deterministic hash of the trace index (1.0 = all,
            0.0 = none).  Unsampled traces produce no spans anywhere,
            including solve spans.
        seed: root of every trace/span id and sampling decision.
        max_spans: bounded span buffer size; overflow evicts the oldest
            span and increments ``Tracer.dropped_spans``.
    """

    enabled: bool = True
    sample_rate: float = 1.0
    seed: int = 0
    max_spans: int = 100_000

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ConfigurationError(
                f"sample_rate must be in [0, 1], got {self.sample_rate}"
            )
        if self.max_spans < 1:
            raise ConfigurationError(
                f"max_spans must be >= 1, got {self.max_spans}"
            )


class Tracer:
    """Deterministic, sampling-aware span factory and buffer.

    Spans are created either explicitly (:meth:`start_trace` /
    :meth:`start_span` / :meth:`finish`, used by the service to bracket
    batched stage windows measured separately) or via the
    :meth:`span` context manager (which also scopes the span into the
    process-local context so nested instrumentation --
    :func:`repro.tracecontext.add_span_attributes` -- lands on it).
    """

    def __init__(
        self,
        options: Optional[TracingOptions] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.options = options if options is not None else TracingOptions()
        self._clock = clock
        self._lock = monitored_lock("tracing.buffer")
        self._spans: Deque[Span] = deque(maxlen=self.options.max_spans)
        self._dropped = 0
        self._trace_count = 0
        self._span_count = 0
        self._overhead = 0.0

    @classmethod
    def disabled(cls) -> "Tracer":
        """A no-op tracer: every span request returns None."""
        return cls(TracingOptions(enabled=False))

    # -- state ----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.options.enabled

    @property
    def dropped_spans(self) -> int:
        with self._lock:
            return self._dropped

    @property
    def overhead_seconds(self) -> float:
        """Accumulated wall time spent committing spans to the buffer.

        A lower bound on tracing cost: it covers the buffer-commit path
        (lock + append + eviction) for every recorded span, which is
        the only tracing work on the hot path that survives after a
        span's attributes are gathered.  Zero for a disabled tracer --
        the disabled path never reaches :meth:`_record`, so measuring
        here keeps the bit-identity guarantee intact.
        """
        with self._lock:
            return self._overhead

    def finished_spans(self) -> List[Span]:
        """Recorded spans, oldest first (bounded by ``max_spans``)."""
        with self._lock:
            return list(self._spans)

    def reset(self) -> None:
        """Drop every recorded span and restart the id counters."""
        with self._lock:
            self._spans.clear()
            self._dropped = 0
            self._trace_count = 0
            self._span_count = 0
            self._overhead = 0.0

    # -- span creation --------------------------------------------------

    def _record(self, span: Span) -> None:
        committed_at = self._clock()
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self._dropped += 1
            self._spans.append(span)
            self._overhead += self._clock() - committed_at

    def _next_span_id(self) -> str:
        with self._lock:
            index = self._span_count
            self._span_count += 1
        return _hash_id(self.options.seed, "span", index)

    def start_trace(
        self, name: str, parent: Optional[Span] = None, **attributes: Any
    ) -> Optional[Span]:
        """Open a root span for a new trace.

        Returns None when the tracer is disabled or the trace loses the
        sampling draw -- callers treat None as "do not trace this
        request" and skip every downstream span.

        With a *parent* span (the cluster front door handing its ingest
        span down to a shard service) no new trace is started: the span
        joins the parent's trace as a child, inheriting its sampling
        decision, so one request's ``frontdoor -> queue/route ->
        request -> ... -> solve`` chain shares a single trace id.
        """
        if not self.options.enabled:
            return None
        if parent is not None:
            return self.start_span(name, parent, **attributes)
        with self._lock:
            trace_index = self._trace_count
            self._trace_count += 1
            if _sample_unit(self.options.seed, trace_index) >= (
                self.options.sample_rate
            ):
                return None
            span_index = self._span_count
            self._span_count += 1
        return Span(
            name,
            trace_id=_hash_id(self.options.seed, "trace", trace_index),
            span_id=_hash_id(self.options.seed, "span", span_index),
            parent_id=None,
            start=self._clock(),
            attributes=attributes,
        )

    def start_span(
        self,
        name: str,
        parent: Optional[Span],
        start: Optional[float] = None,
        **attributes: Any,
    ) -> Optional[Span]:
        """Open a child of *parent* (None parent -> no span)."""
        if parent is None or not self.options.enabled:
            return None
        return Span(
            name,
            trace_id=parent.trace_id,
            span_id=self._next_span_id(),
            parent_id=parent.span_id,
            start=self._clock() if start is None else start,
            attributes=attributes,
        )

    def finish(self, span: Optional[Span], end: Optional[float] = None) -> None:
        """Close *span* and commit it to the buffer (None is a no-op)."""
        if span is None:
            return
        span.end = self._clock() if end is None else end
        self._record(span)

    def record_span(
        self,
        name: str,
        parent: Optional[Span],
        start: float,
        end: float,
        **attributes: Any,
    ) -> Optional[Span]:
        """Commit an already-measured window as a child span of *parent*.

        The service uses this for batched stages: the stage measures one
        shared window and brackets it into every participating request's
        trace.
        """
        span = self.start_span(name, parent, start=start, **attributes)
        if span is not None:
            self.finish(span, end=end)
        return span

    @contextmanager
    def span(
        self, name: str, parent: Optional[Span] = None, **attributes: Any
    ) -> Iterator[Optional[Span]]:
        """Context-managed span, scoped into the process-local context.

        With no explicit *parent* the context-active span is used; with
        no active span either, a new (sampled) trace is started.
        """
        if not self.options.enabled:
            yield None
            return
        if parent is None:
            parent = current_span()
        span = (
            self.start_trace(name, **attributes)
            if parent is None
            else self.start_span(name, parent, **attributes)
        )
        if span is None:
            yield None
            return
        try:
            with activate_span(span):
                yield span
        finally:
            self.finish(span)

    # -- recorded payloads ----------------------------------------------

    def attach_payload(
        self,
        payload: Sequence[dict],
        parent: Optional[Span],
        base_time: float = 0.0,
    ) -> None:
        """Attach spans captured by a :class:`SpanRecorder`.

        *payload* is :meth:`SpanRecorder.payload` output (or the
        parent-clock-shifted copy the solver pool returns): plain dicts
        with local ids, ordered parents-before-children.  Each entry
        gets a fresh deterministic span id in this tracer, its local
        parent reference remapped (falling back to *parent* for payload
        roots), and its times shifted by *base_time*.

        A shared solve serving several requests is attached once per
        request trace; every attachment clones the payload with that
        trace's ids.
        """
        if parent is None or not payload or not self.options.enabled:
            return
        id_map: Dict[str, str] = {}
        for entry in payload:
            span_id = self._next_span_id()
            local_id = entry.get("span_id", "")
            if local_id:
                id_map[local_id] = span_id
            parent_id = id_map.get(entry.get("parent_id") or "", parent.span_id)
            self._record(
                Span(
                    entry["name"],
                    trace_id=parent.trace_id,
                    span_id=span_id,
                    parent_id=parent_id,
                    start=base_time + float(entry["start"]),
                    end=base_time + float(entry["end"]),
                    attributes=dict(entry.get("attributes", {})),
                )
            )

    # -- export ---------------------------------------------------------

    def export_chrome_trace(self, path: Optional[str] = None) -> dict:
        """The span buffer as a Chrome-trace/Perfetto JSON object.

        One complete (``"ph": "X"``) event per span, timestamps in
        microseconds, one virtual thread per trace (so Perfetto renders
        each request as its own lane) plus name metadata.  When *path*
        is given the document is also written there.
        """
        spans = self.finished_spans()
        trace_tids: Dict[str, int] = {}
        events: List[dict] = [
            {
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "name": "process_name",
                "args": {"name": "repro.runtime"},
            }
        ]
        for span in spans:
            tid = trace_tids.setdefault(span.trace_id, len(trace_tids) + 1)
            args = {k: _jsonable(v) for k, v in span.attributes.items()}
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args["trace_id"] = span.trace_id
            events.append(
                {
                    "name": span.name,
                    "cat": "runtime",
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
        for trace_id, tid in trace_tids.items():
            events.append(
                {
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": f"trace {trace_id}"},
                }
            )
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.runtime.tracing",
                "dropped_spans": self.dropped_spans,
            },
        }
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, sort_keys=True)
        return document

    def export_events(self, path: Optional[str] = None) -> List[str]:
        """The span buffer as JSON lines (one span dict per line)."""
        lines = [
            json.dumps(_jsonable(span.as_dict()), sort_keys=True)
            for span in self.finished_spans()
        ]
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                for line in lines:
                    handle.write(line + "\n")
        return lines


def _jsonable(value: Any) -> Any:
    """Coerce attribute values to JSON-serializable equivalents."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    return str(value)


class SpanRecorder:
    """Span capture for a solve, independent of any request trace.

    A solve may serve several requests, so it records spans with
    *local* ids (``r0``, ``r1`` ... assigned at span start, hence
    parents-before-children in the payload) and times relative to the
    recorder's creation instant.  The payload -- plain dicts -- rides
    back with the solve result; the caller shifts the times onto its
    own clock and :meth:`Tracer.attach_payload` remaps the ids once per
    request trace.

    The recorder also scopes each span into the process-local context,
    so optimizer introspection (:func:`add_span_attributes`) lands on
    the recorded solve span.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._origin = clock()
        self._count = 0
        self.spans: List[Span] = []

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        parent = current_span()
        span = Span(
            name,
            span_id=f"r{self._count}",
            parent_id=(
                parent.span_id
                if parent is not None and parent in self.spans
                else None
            ),
            start=self._clock() - self._origin,
            attributes=attributes,
        )
        self._count += 1
        self.spans.append(span)
        try:
            with activate_span(span):
                yield span
        finally:
            span.end = self._clock() - self._origin

    def payload(self) -> List[dict]:
        """The recorded spans as plain dicts (relative times)."""
        return [span.as_dict() for span in self.spans]


def shift_payload(payload: Sequence[dict], offset: float) -> List[dict]:
    """A copy of *payload* with every span time shifted by *offset* [s]."""
    shifted = []
    for entry in payload:
        entry = dict(entry)
        entry["start"] = float(entry["start"]) + offset
        entry["end"] = float(entry["end"]) + offset
        shifted.append(entry)
    return shifted
