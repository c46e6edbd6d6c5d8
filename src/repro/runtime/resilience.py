"""Deadlines and the solver degradation chain.

The fast path (cache -> batch -> solve) assumes every solve returns in
time.  In production it will not: SLSQP wedges on a bad conditioning,
a caller shows up with a latency budget.  This module supplies the two
pieces the service composes into "always answer, degrade explicitly":

- :class:`Deadline` -- a per-request wall-clock budget that flows from
  :class:`~repro.runtime.service.AllocationRequest` through the
  allocation stage into :class:`~repro.runtime.pool.SolveTask`.  The
  solvers check it themselves (the SLSQP objective, each swing-search
  round, each greedy step) and raise
  :class:`~repro.errors.DeadlineExceeded` at the first checkpoint past
  it, so no solve is ever preempted on a helper thread;
- the degradation chain -- ``optimal -> swing -> heuristic``: a solve
  that misses its deadline or fails to converge falls down the chain
  and returns the best cheaper allocation instead of raising.

:class:`~repro.runtime.pool.SolverPool` counts every fallback under
``resilience.*`` in its metrics registry;
:meth:`AllocationService.health` reports those counters.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from ..errors import ConfigurationError, DeadlineExceeded

#: Solver fallback order: each entry degrades to the ones after it.
DEGRADATION_CHAIN: Tuple[str, ...] = ("optimal", "swing", "heuristic")


def degradation_fallbacks(solver: str) -> Tuple[str, ...]:
    """The solvers to fall back to, cheapest-compatible first.

    For a solver outside the chain (``greedy``) there is nothing
    cheaper that is known-compatible, so the only fallback is the
    heuristic.
    """
    try:
        position = DEGRADATION_CHAIN.index(solver)
    except ValueError:
        return ("heuristic",) if solver != "heuristic" else ()
    return DEGRADATION_CHAIN[position + 1 :]


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
