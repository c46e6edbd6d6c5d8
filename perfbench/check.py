"""Correctness check for every served allocation.

Each served request's channel is rebuilt from its own receiver
positions with the public ``channel_matrix_stack`` (never the served
cache entry), and the served swings must satisfy Eqs. 6-7
(``AllocationProblem.is_feasible``).  The Eq. 5 utility of every served
allocation on that channel gives ``utility_mean``.  A seeded sample is
re-solved from scratch through the core solver of the requested tier;
a served utility more than :data:`MAX_UTILITY_GAP` below the fresh
solve's counts as a failure.

Results are checked as they arrive and then dropped, so the benchmark's
memory does not grow with the number of requests served.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

#: The paper's heuristic cost: at most 1.8% below the optimum.
MAX_UTILITY_GAP = 0.018
#: Relative slack on the Eq. 6-7 limits.  SLSQP meets its constraints to
#: about 1e-6, and has served a per-LED swing 8e-7 above I_sw,max.
FEASIBILITY_TOLERANCE = 1e-6


def fresh_solve(problem, request) -> np.ndarray:
    """Solve *problem* cold through the core solver of the request's tier."""
    from repro.core import (
        OptimizerOptions,
        RankingHeuristic,
        SwingSearchOptions,
        solve_optimal,
        solve_swing,
    )
    from repro.errors import OptimizationError

    if request.solver == "heuristic":
        return RankingHeuristic(kappa=request.kappa).solve(problem).swings
    if request.solver == "optimal":
        try:
            return solve_optimal(
                problem, OptimizerOptions(restarts=0, reduce=True)
            ).swings
        except OptimizationError:
            # The cold program found no feasible point either; the swing
            # search is the next tier down and within 0.2% of SLSQP.
            pass
    options = SwingSearchOptions(kappa=request.kappa, reduce=True)
    return solve_swing(problem, options).swings


class Checker:
    """Accumulates the check over every batch of served results.

    A result is re-solved when a blake2b hash of ``(seed, tag)`` falls
    in a 1-in-*sample_every* bucket, so the sample is seeded and does
    not depend on how many requests a run gets through.
    """

    def __init__(self, seed: int, sample_every: int) -> None:
        self.seed = seed
        self.sample_every = sample_every
        self.checked = 0
        self.infeasible = 0
        self.sampled = 0
        self.gap_failures = 0
        self.worst_gap = float("-inf")
        self.utility_total = 0.0

    def _sampled(self, tag: str) -> bool:
        digest = hashlib.blake2b(f"{self.seed}:{tag}".encode(), digest_size=8)
        return int.from_bytes(digest.digest(), "big") % self.sample_every == 0

    def add(self, scene, noise, results: Sequence) -> None:
        from repro.core import AllocationProblem
        from repro.runtime import channel_matrix_stack

        if not results:
            return
        placements = np.array(
            [result.request.rx_positions_xy for result in results], dtype=float
        )
        # Repeated placements share one rebuilt matrix.
        unique, inverse = np.unique(placements, axis=0, return_inverse=True)
        channels = channel_matrix_stack(scene, unique)
        for slot, result in zip(inverse.reshape(-1), results):
            request = result.request
            problem = AllocationProblem(
                channel=channels[slot],
                power_budget=request.power_budget,
                led=scene.led,
                photodiode=scene.receivers[0].photodiode,
                noise=noise,
            )
            self.checked += 1
            if not problem.is_feasible(result.swings, FEASIBILITY_TOLERANCE):
                self.infeasible += 1
                continue
            utility = problem.utility(result.swings)
            self.utility_total += utility
            if self._sampled(request.tag):
                self.sampled += 1
                reference = problem.utility(fresh_solve(problem, request))
                gap = (reference - utility) / abs(reference)
                self.worst_gap = max(self.worst_gap, gap)
                if gap > MAX_UTILITY_GAP:
                    self.gap_failures += 1

    @property
    def failures(self) -> int:
        return self.infeasible + self.gap_failures

    @property
    def ok(self) -> bool:
        return self.failures == 0 and self.checked > 0

    @property
    def utility_mean(self) -> float:
        feasible = self.checked - self.infeasible
        return self.utility_total / feasible if feasible else 0.0

    def line(self) -> str:
        worst = (
            f" (worst {self.worst_gap:+.4%})" if self.sampled else ""
        )
        return (
            f"check: {'ok' if self.ok else 'failed'} ({self.failures}) -- "
            f"{self.checked} served allocations checked, {self.infeasible} "
            f"infeasible; {self.sampled} re-solved from scratch, "
            f"{self.gap_failures} more than {MAX_UTILITY_GAP:.1%} below{worst}"
        )
