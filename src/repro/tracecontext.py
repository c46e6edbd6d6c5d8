"""Per-stage timing and span context shared by every layer.

This is a leaf module (stdlib only) so that low layers -- the optimizer
in :mod:`repro.core`, the fault harness in :mod:`repro.runtime.faults` --
can time their stages and attach structured attributes to the active
span without importing the runtime tracing machinery (which sits
*above* ``core`` in the layering).  The contract:

- :class:`Span` is the single span type: a named, timed operation with a
  flat attribute dict and trace/span/parent identifiers.
- :class:`stage` is the single timing instrument.  It reads the clock
  once on entry and once on exit, always observes the block's *self*
  time (its own time minus that of the stages nested in it) into a
  histogram, and -- only when it has sampled parent spans -- records
  the same window as a child span of each, so a batched window lands
  in every sampled request's trace.
- A :mod:`contextvars` variable holds the innermost open stage:
  nested stages inherit its spans as parents and its span factory, and
  :func:`add_span_attributes` updates its spans (a no-op when none are
  open, so instrumented code never needs a tracer reference or an
  enabled check).

The tracer that mints ids, samples and exports spans lives in
:mod:`repro.runtime.tracing`.
"""

from __future__ import annotations

from contextvars import ContextVar
from time import perf_counter
from typing import Any, Dict, List, Optional, Protocol, Sequence


class Span:
    """One timed, attributed operation in a trace tree.

    ``start``/``end`` are ``perf_counter`` readings; identifiers are
    assigned by the tracer.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attributes",
    )

    def __init__(
        self,
        name: str,
        trace_id: str = "",
        span_id: str = "",
        parent_id: Optional[str] = None,
        start: float = 0.0,
        end: float = 0.0,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = end
        self.attributes: Dict[str, Any] = (
            dict(attributes) if attributes else {}
        )

    @property
    def duration(self) -> float:
        """Span duration [s] (clamped at 0 for unfinished spans)."""
        return max(0.0, self.end - self.start)

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def as_dict(self) -> dict:
        """A JSON-serializable flat view of the span."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, trace={self.trace_id!r}, "
            f"id={self.span_id!r}, parent={self.parent_id!r})"
        )


class SpanFactory(Protocol):
    """What :class:`stage` needs from a tracer to record its spans."""

    def start_span(
        self,
        name: str,
        parent: Optional[Span],
        start: Optional[float] = None,
        **attributes: Any,
    ) -> Optional[Span]: ...

    def finish(
        self, span: Optional[Span], end: Optional[float] = None
    ) -> None: ...


class Observer(Protocol):
    """What :class:`stage` needs from a histogram."""

    def observe(self, value: float) -> None: ...


#: The innermost open stage in this execution context (task/thread).
_CURRENT_STAGE: "ContextVar[Optional[stage]]" = ContextVar(
    "repro_current_stage", default=None
)


class stage:
    """Time a block as one pipeline stage.

    ``with stage("channel", histogram, parents=roots, tracer=tracer):``
    reads :func:`time.perf_counter` once on entry and once on exit and
    observes the block's self time -- its own time minus that of the
    stages nested in it -- into *histogram* (None observes nothing but
    still charges the window to the enclosing stage).  The block may
    re-point :attr:`histogram` before it exits, for a label only known
    once the work is done (the cache outcome of a batch, say).

    For each non-None entry of *parents* the window is also recorded
    as a child span named *name* with *attributes*, minted by *tracer*;
    :attr:`spans` holds them aligned with *parents* (None for
    unsampled entries).  A stage opened without *parents* or *tracer*
    inherits them from the enclosing stage, so solver internals nest
    under the solve that runs them.  While the block runs its spans
    are the active ones: :func:`add_span_attributes` lands on all of
    them.
    """

    __slots__ = (
        "histogram",
        "spans",
        "_name",
        "_parents",
        "_tracer",
        "_attributes",
        "_outer",
        "_token",
        "_start",
        "_nested",
    )

    def __init__(
        self,
        name: str,
        histogram: Optional[Observer] = None,
        parents: Optional[Sequence[Optional[Span]]] = None,
        tracer: Optional[SpanFactory] = None,
        **attributes: Any,
    ) -> None:
        self.histogram = histogram
        self.spans: List[Optional[Span]] = []
        self._name = name
        self._parents = parents
        self._tracer = tracer
        self._attributes = attributes
        self._nested = 0.0

    def __enter__(self) -> "stage":
        outer = _CURRENT_STAGE.get()
        self._outer = outer
        parents = self._parents
        tracer = self._tracer
        if outer is not None:
            if parents is None:
                parents = outer.spans
            if tracer is None:
                tracer = self._tracer = outer._tracer
        self._token = _CURRENT_STAGE.set(self)
        start = self._start = perf_counter()
        if tracer is not None and parents:
            self.spans = [
                tracer.start_span(
                    self._name, parent, start=start, **self._attributes
                )
                if parent is not None
                else None
                for parent in parents
            ]
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end = perf_counter()
        _CURRENT_STAGE.reset(self._token)
        elapsed = end - self._start
        if self._outer is not None:
            self._outer._nested += elapsed
        if self.histogram is not None:
            self.histogram.observe(elapsed - self._nested)
        tracer = self._tracer
        if self.spans and tracer is not None:
            for span in self.spans:
                if span is not None:
                    tracer.finish(span, end=end)


def current_span() -> Optional[Span]:
    """The innermost open stage's first sampled span, or None."""
    current = _CURRENT_STAGE.get()
    if current is None:
        return None
    return next((span for span in current.spans if span is not None), None)


def add_span_attributes(**attributes: Any) -> bool:
    """Attach attributes to the open stage's spans; False when it has none.

    This is the hook low layers use for introspection (SLSQP iteration
    counts, injected fault markers): unconditionally callable, free when
    no span is open, and ignorant of which tracer owns the spans.
    """
    current = _CURRENT_STAGE.get()
    if current is None:
        return False
    landed = False
    for span in current.spans:
        if span is not None:
            span.attributes.update(attributes)
            landed = True
    return landed
