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
- **Batch aware**: the tracer records no timings of its own.  Every
  stage window is measured once by :class:`repro.tracecontext.stage`,
  which asks the tracer for one child span per sampled request it
  serves -- a solve shared by several requests lands in each of their
  traces with the same start and end.
- **Near-free when off**: a disabled tracer refuses every span with one
  attribute read; call sites in the service guard their bookkeeping on
  ``tracer.enabled`` so the untraced hot path only observes the stage
  histograms.

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
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from ..analysis.lockgraph import monitored_lock
from ..errors import ConfigurationError
from ..tracecontext import Span


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

    :meth:`start_trace` opens a request's root span (or declines it on
    the sampling draw); :class:`repro.tracecontext.stage` opens and
    closes the stage spans under it through :meth:`start_span` and
    :meth:`finish`.
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

    # -- span creation --------------------------------------------------

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self._dropped += 1
            self._spans.append(span)

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
