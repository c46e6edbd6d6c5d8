"""Process-local span context shared by the tracer and instrumented code.

This is a leaf module (stdlib only) so that low layers -- the optimizer
in :mod:`repro.core`, the fault harness in :mod:`repro.runtime.faults` --
can attach structured attributes to whatever span is currently active
without importing the runtime tracing machinery (which sits *above*
``core`` in the layering).  The contract:

- :class:`Span` is the single span type: a named, timed operation with a
  flat attribute dict and trace/span/parent identifiers.
- A :mod:`contextvars` variable holds the currently active span;
  :func:`activate_span` scopes it, :func:`current_span` reads it, and
  :func:`add_span_attributes` updates it (a no-op when nothing is
  active, so instrumented code never needs a tracer reference or an
  enabled check).

The tracer that creates, samples and exports spans lives in
:mod:`repro.runtime.tracing`.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, Optional


class Span:
    """One timed, attributed operation in a trace tree.

    ``start``/``end`` are clock readings (the owning tracer decides the
    clock; spans captured by a recorder use times relative to the
    capture origin until they are re-based on attachment).
    Identifiers are assigned by the tracer; spans recorded away from one
    carry local placeholder ids that are remapped on attachment.
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


#: The currently active span in this execution context (task/thread).
_CURRENT_SPAN: ContextVar[Optional[Span]] = ContextVar(
    "repro_current_span", default=None
)


def current_span() -> Optional[Span]:
    """The span active in this context, or None."""
    return _CURRENT_SPAN.get()


def add_span_attributes(**attributes: Any) -> bool:
    """Attach attributes to the active span; False when none is active.

    This is the hook low layers use for introspection (SLSQP iteration
    counts, injected fault markers): unconditionally callable, free when
    no span is active, and ignorant of which tracer owns the span.
    """
    span = _CURRENT_SPAN.get()
    if span is None:
        return False
    span.attributes.update(attributes)
    return True


@contextmanager
def activate_span(span: Span) -> Iterator[Span]:
    """Scope *span* as the context-active span."""
    token = _CURRENT_SPAN.set(span)
    try:
        yield span
    finally:
        _CURRENT_SPAN.reset(token)
