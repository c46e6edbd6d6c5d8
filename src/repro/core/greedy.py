"""A greedy marginal-utility allocator: the obvious alternative to SJR.

Algorithm 1 ranks TXs by a *channel-only* score (the SJR) computed once,
in O(N*M).  The natural competitor evaluates actual utility: repeatedly
grant full swing to whichever unassigned (TX, RX) pair increases the
sum-log objective the most, re-evaluating the SINR after every grant --
O(N^2 * M) objective evaluations.  Comparing the two quantifies what the
paper's cheap ranking gives up (almost nothing) against a much more
expensive look-ahead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AllocationError, DeadlineExceeded
from .allocation import Allocation, Assignment
from .problem import AllocationProblem


@dataclass(frozen=True)
class GreedyMarginalHeuristic:
    """Grant full swing to the pair with the best utility gain, repeat.

    Attributes:
        objective: ``"utility"`` (sum-log, the paper's objective) or
            ``"throughput"`` (sum-rate) as the greedy criterion.
        deadline: optional absolute :func:`time.monotonic` timestamp;
            :meth:`solve` raises :class:`~repro.errors.DeadlineExceeded`
            at the first grant step that starts past it.
    """

    objective: str = "utility"
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.objective not in ("utility", "throughput"):
            raise AllocationError(
                f"objective must be 'utility' or 'throughput', got "
                f"{self.objective!r}"
            )

    def _score(self, problem: AllocationProblem, swings: np.ndarray) -> float:
        if self.objective == "utility":
            return problem.utility(swings)
        return problem.system_throughput(swings)

    def solve(self, problem: AllocationProblem) -> Allocation:
        """Greedy assignment until the budget (or improvement) runs out."""
        max_swing = problem.led.max_swing
        budget_left = problem.power_budget
        step_cost = problem.full_swing_power
        swings = problem.zero_allocation()
        assignments: List[Assignment] = []
        unassigned = set(range(problem.num_transmitters))
        current = self._score(problem, swings)
        while budget_left >= step_cost - 1e-12 and unassigned:
            if self.deadline is not None and time.monotonic() >= self.deadline:
                raise DeadlineExceeded("greedy allocation passed its deadline")
            best_gain = 0.0
            best_pair: Optional[Assignment] = None
            best_score = current
            for tx in unassigned:
                for rx in range(problem.num_receivers):
                    if problem.channel[tx, rx] <= 0.0:
                        continue
                    swings[tx, rx] = max_swing
                    score = self._score(problem, swings)
                    swings[tx, rx] = 0.0
                    gain = score - current
                    if gain > best_gain + 1e-12:
                        best_gain = gain
                        best_pair = (tx, rx)
                        best_score = score
            if best_pair is None:
                break  # no pair improves the objective
            tx, rx = best_pair
            swings[tx, rx] = max_swing
            assignments.append(best_pair)
            unassigned.discard(tx)
            budget_left -= step_cost
            current = best_score
        return Allocation(
            problem=problem,
            swings=swings,
            assignments=tuple(assignments),
            solver=f"greedy-{self.objective}",
        )

    def sweep(
        self, problem: AllocationProblem, budgets: Sequence[float]
    ) -> List[Allocation]:
        """Solve under several budgets (each budget solved fresh).

        Unlike the ranking heuristic, greedy solutions are *not*
        guaranteed to be prefix-nested across budgets, so no reuse is
        possible.
        """
        return [self.solve(problem.with_budget(float(b))) for b in budgets]
