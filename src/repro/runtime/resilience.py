"""Fault-tolerance primitives for the allocation-serving runtime.

The fast path (cache -> batch -> solve) assumes every solve returns.
In production it will not: SLSQP wedges on a bad conditioning, a
caller shows up with a latency budget.  This module supplies the two
mechanisms the service composes into "always answer, degrade
explicitly":

- :class:`Deadline` -- a per-request wall-clock budget that flows from
  :class:`~repro.runtime.service.AllocationRequest` through the
  allocation stage into :class:`~repro.runtime.pool.SolverPool` solve
  timeouts;
- the degradation chain -- ``optimal -> swing -> binary -> greedy ->
  heuristic``: a timed-out or non-converged solve falls down the chain
  and returns the best cheaper allocation instead of raising.

Everything reports through ``resilience.*`` counters in the metrics
registry; :meth:`AllocationService.health` summarizes them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from ..errors import ConfigurationError, DeadlineExceeded
from .metrics import MetricsRegistry

#: Solver fallback order: each entry degrades to the ones after it.
DEGRADATION_CHAIN: Tuple[str, ...] = (
    "optimal",
    "swing",
    "binary",
    "greedy",
    "heuristic",
)

#: Chain members whose solve runs SLSQP (pointless to retry on timeout).
_SLSQP_SOLVERS = frozenset({"optimal", "binary"})


def degradation_fallbacks(solver: str, timed_out: bool = False) -> Tuple[str, ...]:
    """The solvers to fall back to, cheapest-compatible first.

    For a solver outside the chain there is nothing cheaper that is
    known-compatible, so the only fallback is the heuristic.  When the
    failure was a *timeout* the SLSQP-based chain members are skipped:
    ``binary`` is a projection of the same SLSQP solve that just timed
    out, so retrying it would burn the remaining budget for nothing.
    The combinatorial ``swing`` search is not SLSQP-based and runs in
    milliseconds, so it stays in the chain even after a timeout --
    giving a timed-out ``optimal`` a near-optimal answer before the
    heuristic floor.
    """
    try:
        position = DEGRADATION_CHAIN.index(solver)
    except ValueError:
        return ("heuristic",) if solver != "heuristic" else ()
    fallbacks = DEGRADATION_CHAIN[position + 1 :]
    if timed_out:
        fallbacks = tuple(s for s in fallbacks if s not in _SLSQP_SOLVERS)
    return fallbacks


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Deadline:
    """An absolute wall-clock budget on the monotonic clock.

    ``expires_at`` is a :func:`time.monotonic` timestamp (``inf`` means
    unbounded).

    ``expired`` and :meth:`remaining` are two views of the same clock
    read: ``expired`` is exactly ``remaining() == 0.0`` for a bounded
    deadline, so callers can never observe a request that reports zero
    budget while claiming not to be expired (or the reverse).  The clock
    is injectable for boundary tests.
    """

    expires_at: float = float("inf")
    clock: Callable[[], float] = field(
        default=time.monotonic, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if math.isnan(self.expires_at):
            raise ConfigurationError("deadline expires_at must not be NaN")

    @classmethod
    def after(
        cls,
        seconds: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        """A deadline *seconds* from now (None -> unbounded).

        The budget must be a positive, finite number: zero and negative
        budgets are rejected here (a deadline born expired would enter
        queues only to be shed at dispatch), and NaN/inf are rejected
        rather than silently producing a deadline that never expires
        but reports a NaN remaining budget.
        """
        if seconds is None:
            return cls(clock=clock)
        if not math.isfinite(seconds) or seconds <= 0:
            raise ConfigurationError(
                f"deadline must be positive and finite, got {seconds}"
            )
        return cls(expires_at=clock() + seconds, clock=clock)

    @property
    def bounded(self) -> bool:
        return self.expires_at != float("inf")

    def _left(self) -> float:
        """Raw signed budget from one clock read (``inf`` if unbounded)."""
        if not self.bounded:
            return float("inf")
        return self.expires_at - self.clock()

    def remaining(self) -> float:
        """Seconds left (clamped at 0; ``inf`` when unbounded)."""
        return max(0.0, self._left())

    @property
    def expired(self) -> bool:
        return self._left() <= 0.0

    def require(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired:
            raise DeadlineExceeded(f"deadline expired before {what}")

    def cap(self, timeout: Optional[float]) -> Optional[float]:
        """*timeout* tightened by the remaining budget (None = no cap).

        An expired deadline caps to exactly ``0.0``; callers treat that
        as an immediate timeout, never as "no timeout".
        """
        if not self.bounded:
            return timeout
        remaining = self.remaining()
        if timeout is None:
            return remaining
        return min(timeout, remaining)


# ----------------------------------------------------------------------
# Policy bundle
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ResilienceOptions:
    """Knobs for the service/pool fault-tolerance layer.

    Attributes:
        degrade: fall down :data:`DEGRADATION_CHAIN` on timeout or
            non-convergence instead of raising (disable to surface
            :class:`DeadlineExceeded` / solver errors to the caller).
        default_deadline_seconds: per-request budget applied when a
            request does not carry its own (None = unbounded).
    """

    degrade: bool = True
    default_deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.default_deadline_seconds is not None and (
            not math.isfinite(self.default_deadline_seconds)
            or self.default_deadline_seconds <= 0
        ):
            raise ConfigurationError(
                f"default deadline must be positive and finite, got "
                f"{self.default_deadline_seconds}"
            )


class ResiliencePolicy:
    """Deadline defaults + degradation switch + metrics wiring."""

    def __init__(
        self,
        options: Optional[ResilienceOptions] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.options = options if options is not None else ResilienceOptions()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def deadline_for(self, seconds: Optional[float]) -> Deadline:
        """A request deadline: explicit seconds, else the default."""
        if seconds is None:
            seconds = self.options.default_deadline_seconds
        return Deadline.after(seconds)

    def count(self, name: str, amount: float = 1.0, **labels: str) -> None:
        """Bump ``resilience.<name>``, optionally with metric labels.

        Labeled variants render as ``resilience.<name>{k="v"}`` and are
        picked up by :meth:`counters` alongside the plain counters.
        """
        self.metrics.counter(f"resilience.{name}", **labels).increment(amount)

    def counters(self) -> dict:
        """The ``resilience.*`` counters, one dict.

        Reads only those counters (each an atomic locked read) instead
        of a full registry snapshot -- a full snapshot computes
        percentiles for every histogram, which is far too heavy for the
        cluster controller's per-rollup health polling.
        """
        return self.metrics.counters_with_prefix("resilience.")
