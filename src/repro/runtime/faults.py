"""Seedable fault injection for the allocation-serving runtime.

A deployed serving system meets failures the DenseVLC testbed never
sees: a solve wedges, a channel matrix arrives corrupted.
:class:`FaultPlan` injects exactly those faults on demand --
deterministically, from a seed -- so the chaos tests can drive the
resilience layer through hung-solve and corrupted-channel scenarios and
assert the service still returns a (possibly degraded) result for every
request.

Every decision is a pure hash of ``(seed, kind, key, attempt)``: the
same plan against the same workload injects the same faults, so chaos
runs are reproducible bit-for-bit.  By default faults fire only on
``attempt`` numbers below ``fault_attempts``, which models the most
common real-world shape -- transient failures that a fallback or
recompute clears.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Hashable, Optional

import numpy as np

from ..errors import ConfigurationError, DeadlineExceeded
from ..tracecontext import add_span_attributes


def hash_unit(seed: int, kind: str, key: Hashable, attempt: int) -> float:
    """A deterministic uniform draw in [0, 1) from a fault coordinate."""
    digest = hashlib.blake2b(
        f"{seed}:{kind}:{key!r}:{attempt}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """Injectable runtime faults behind one seedable switchboard.

    Attributes:
        seed: root of every fault decision; same seed -> same faults.
        slow_solve_probability: chance a solve sleeps
            ``slow_solve_seconds`` before running (models a wedged
            SLSQP iteration; a stall past the solve's deadline surfaces
            as :class:`~repro.errors.DeadlineExceeded`).
        slow_solve_seconds: the injected stall duration [s].
        corrupt_channel_probability: chance a freshly computed channel
            matrix gets a NaN burned into it (models a corrupted
            estimate; the service detects and recomputes).
        fault_attempts: faults fire only on attempts < this value, so
            fallbacks/recomputes (attempt >= 1 by default) run clean.
    """

    seed: int = 0
    slow_solve_probability: float = 0.0
    slow_solve_seconds: float = 0.2
    corrupt_channel_probability: float = 0.0
    fault_attempts: int = 1

    def __post_init__(self) -> None:
        for name in (
            "slow_solve_probability",
            "corrupt_channel_probability",
        ):
            probability = getattr(self, name)
            if not 0.0 <= probability <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {probability}"
                )
        if self.slow_solve_seconds < 0:
            raise ConfigurationError(
                f"slow_solve_seconds must be >= 0, got {self.slow_solve_seconds}"
            )
        if self.fault_attempts < 0:
            raise ConfigurationError(
                f"fault_attempts must be >= 0, got {self.fault_attempts}"
            )

    # ------------------------------------------------------------------

    def _fires(self, kind: str, key: Hashable, attempt: int, probability: float) -> bool:
        if probability <= 0.0 or attempt >= self.fault_attempts:
            return False
        return hash_unit(self.seed, kind, key, attempt) < probability

    def maybe_slow_solve(
        self, key: Hashable, attempt: int = 0, deadline: Optional[float] = None
    ) -> float:
        """Sleep out an injected stall; returns the seconds slept.

        *deadline* is the solve's absolute :func:`time.monotonic`
        budget: the stall sleeps at most until then and raises
        :class:`DeadlineExceeded` when the budget cut it short, the way
        a solver's own checkpoint would.  An injected stall is flagged
        on the active trace span (if any), so traced chaos runs show
        *why* a solve span is long.
        """
        if not self._fires("slow", key, attempt, self.slow_solve_probability):
            return 0.0
        add_span_attributes(
            fault_injected="slow_solve",
            fault_stall_seconds=self.slow_solve_seconds,
        )
        if deadline is not None:
            remaining = max(0.0, deadline - time.monotonic())
            if remaining < self.slow_solve_seconds:
                time.sleep(remaining)
                raise DeadlineExceeded(
                    f"injected {self.slow_solve_seconds:.3f}s stall passed "
                    "the solve's deadline"
                )
        time.sleep(self.slow_solve_seconds)
        return self.slow_solve_seconds

    def maybe_corrupt_channel(
        self, matrix: np.ndarray, key: Hashable, attempt: int = 0
    ) -> np.ndarray:
        """A corrupted copy of *matrix* (or *matrix* itself, untouched).

        Corruption burns a NaN into one deterministically chosen entry,
        which :class:`repro.core.AllocationProblem` would reject -- the
        service's finite-check catches it first and recomputes.
        """
        if not self._fires(
            "corrupt", key, attempt, self.corrupt_channel_probability
        ):
            return matrix
        corrupted = np.array(matrix, dtype=float, copy=True)
        flat = corrupted.reshape(-1)
        position = int(
            hash_unit(self.seed, "corrupt-where", key, attempt) * flat.size
        )
        flat[min(position, flat.size - 1)] = np.nan
        return corrupted
