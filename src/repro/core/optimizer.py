"""Continuous solver for the optimal allocation policy (paper Sec. 3.4).

The paper solves program (5)-(7) with Matlab's ``fmincon``; this module is
the scipy equivalent (SLSQP with analytic gradients).  The program is
nonconvex (interference couples beamspots), so the solver supports
multi-start: the first start is seeded from the ranking heuristic -- which
Insight 1 says is close to the optimal structure -- and further starts
perturb it randomly.  The best feasible local optimum wins.

Variables are the scaled swings ``x[j, k] = I_sw[j, k] / I_sw,max`` in
``[0, 1]``; constraints are the per-TX total-swing bound (Eq. 6, linear)
and the total-power budget (Eq. 7, quadratic).

Acceleration layer (see :mod:`repro.core.reduction`): with
``OptimizerOptions(reduce=True)`` the solver first prunes the variable
set to the SJR-ranked prefix the budget can afford (Insight 1 says the
rest end at zero anyway), solves the reduced ~K-variable program, and
expands the solution back to (N, M).  A utility check against the
ranking heuristic -- whose solution lies inside the reduced feasible set
by construction -- guards the shortcut: if the reduced optimum fails it,
the solver falls back to the full-dimension program.  Constraints use
preallocated structured Jacobians (the per-TX bound is a constant
segment-indicator matrix; the power gradient fills a reusable buffer)
built once per solve, not per start.  Stage timings and fallback counts
flow into an optional metrics registry
(:class:`repro.runtime.metrics.MetricsRegistry`-compatible).
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, List, Optional, Tuple

import numpy as np
from scipy import optimize

from ..errors import DeadlineExceeded, OptimizationError
from ..tracecontext import add_span_attributes, current_span
from .allocation import Allocation
from .heuristic import RankingHeuristic
from .problem import UTILITY_FLOOR, AllocationProblem
from .reduction import ReductionPlan, plan_reduction

#: Utility gain [nats] below which a descent counts as never having left
#: its start (SLSQP ends within ~1e-9 of a stationary start).
_STALL_TOLERANCE = 1e-6


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for :class:`ContinuousOptimizer`.

    Attributes:
        restarts: number of additional randomly-perturbed starts.
        max_iterations: SLSQP iteration cap per start.
        tolerance: SLSQP convergence tolerance.
        utility_floor: throughput floor [bit/s] inside the log utility.
        seed: RNG seed for the perturbed starts.
        budget_headroom: fraction of the budget the initial points use
            (starting strictly inside the power constraint helps SLSQP).
        reduce: solve the SJR-pruned reduced program first, falling back
            to the full program when its utility check fails.
        reduction_margin: safety margin on the budget-affordable prefix
            (K grows by this fraction; see :func:`plan_reduction`).
        reduction_min_extra: minimum extra TXs kept beyond the prefix.
        reduction_utility_slack: absolute utility slack below the
            ranking-heuristic reference that triggers the fallback.
        warm_start: optional (N, M) swing matrix [A] used as the first
            initial point (scaled into the budget interior); this is how
            the serving layer and mobility sweeps seed SLSQP from the
            nearest cached allocation.
        deadline: optional absolute :func:`time.monotonic` timestamp;
            the objective raises :class:`~repro.errors.DeadlineExceeded`
            at its first evaluation past it.  The serving layer fills it
            from the request's budget.
    """

    restarts: int = 2
    max_iterations: int = 250
    tolerance: float = 1e-10
    utility_floor: float = UTILITY_FLOOR
    seed: Optional[int] = 0
    budget_headroom: float = 0.9
    reduce: bool = False
    reduction_margin: float = 0.5
    reduction_min_extra: int = 2
    reduction_utility_slack: float = 1e-6
    warm_start: Optional[np.ndarray] = None
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.restarts < 0:
            raise OptimizationError(f"restarts must be >= 0, got {self.restarts}")
        if self.max_iterations < 1:
            raise OptimizationError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.utility_floor <= 0:
            raise OptimizationError(
                f"utility floor must be positive, got {self.utility_floor}"
            )
        if not 0.0 < self.budget_headroom <= 1.0:
            raise OptimizationError(
                f"budget headroom must be in (0, 1], got {self.budget_headroom}"
            )
        if self.reduction_margin < 0:
            raise OptimizationError(
                f"reduction margin must be >= 0, got {self.reduction_margin}"
            )
        if self.reduction_min_extra < 0:
            raise OptimizationError(
                f"reduction_min_extra must be >= 0, got {self.reduction_min_extra}"
            )
        if self.warm_start is not None:
            warm = np.asarray(self.warm_start, dtype=float)
            if warm.ndim != 2:
                raise OptimizationError(
                    f"warm start must be an (N, M) swing matrix, got shape "
                    f"{warm.shape}"
                )
            object.__setattr__(self, "warm_start", warm)


class _Support:
    """Precomputed structure shared by every start of one solve.

    Holds the active-variable index maps, the constant per-TX constraint
    Jacobian, reusable gradient buffers and the bounds list -- everything
    that used to be rebuilt per start (and, for the per-TX bound, as a
    dense (N, N*M) matmul per SLSQP iteration).

    ``plan=None`` means the full program: all N*M variables in TX-major
    order, so the same code path serves both solves.
    """

    def __init__(
        self,
        problem: AllocationProblem,
        options: OptimizerOptions,
        plan: Optional[ReductionPlan],
    ) -> None:
        num_tx = problem.num_transmitters
        num_rx = problem.num_receivers
        if plan is None:
            self.tx_indices = np.repeat(np.arange(num_tx), num_rx)
            self.rx_indices = np.tile(np.arange(num_rx), num_tx)
            self.active_txs = np.arange(num_tx)
        else:
            self.tx_indices = plan.tx_indices
            self.rx_indices = plan.rx_indices
            self.active_txs = plan.active_txs
        self.plan = plan
        self.num_pairs = int(self.tx_indices.size)
        self.num_active = int(self.active_txs.size)
        # Variables are TX-major, so each active TX owns one contiguous
        # segment; local_tx maps variable -> active-row, segment_starts
        # feeds np.add.reduceat for per-TX sums.
        self.local_tx = np.searchsorted(self.active_txs, self.tx_indices)
        self.segment_starts = np.searchsorted(
            self.local_tx, np.arange(self.num_active)
        )
        self.channel_active = np.ascontiguousarray(
            problem.channel[self.active_txs]
        )
        self.bounds = [(0.0, 1.0)] * self.num_pairs

        max_swing = problem.led.max_swing
        resistance = problem.led.dynamic_resistance
        budget = problem.power_budget

        # Eq. 6: 1 - sum_k x[j, k] >= 0 per active TX.  The Jacobian is a
        # constant segment-indicator matrix built once; the function is a
        # segmented sum, not a dense matmul.
        swing_jacobian = np.zeros((self.num_active, self.num_pairs))
        swing_jacobian[self.local_tx, np.arange(self.num_pairs)] = -1.0
        self._swing_jacobian = swing_jacobian
        self._power_grad_buffer = np.empty(self.num_pairs)
        power_coeff = resistance * max_swing * max_swing / 2.0

        def per_tx_swing(x: np.ndarray) -> np.ndarray:
            return np.add.reduceat(x, self.segment_starts)

        def swing_constraint(x: np.ndarray) -> np.ndarray:
            return 1.0 - per_tx_swing(x)

        def power_constraint(x: np.ndarray) -> float:
            totals = per_tx_swing(x) * max_swing
            return budget - float(
                np.sum(resistance * (totals / 2.0) ** 2)
            )

        def power_jacobian(x: np.ndarray) -> np.ndarray:
            # d(budget - power)/dx[p] = -r * T_{tx(p)} * max_swing / 2,
            # gathered into a preallocated buffer (no np.repeat).
            totals = per_tx_swing(x)
            np.take(
                totals * (-power_coeff),
                self.local_tx,
                out=self._power_grad_buffer,
            )
            return self._power_grad_buffer

        self.per_tx_swing = per_tx_swing
        self.constraints = [
            {"type": "ineq", "fun": power_constraint, "jac": power_jacobian},
            {
                "type": "ineq",
                "fun": swing_constraint,
                "jac": lambda x: self._swing_jacobian,
            },
        ]
        # Scatter target for the (K, M) active swing matrix; entries off
        # the support are structurally zero and never written.
        self._swing_matrix = np.zeros((self.num_active, num_rx))

    def active_swings(self, x: np.ndarray, max_swing: float) -> np.ndarray:
        """The (K, M) swing matrix of a reduced point (shared buffer)."""
        self._swing_matrix[self.local_tx, self.rx_indices] = x * max_swing
        return self._swing_matrix

    def expand(self, x: np.ndarray, num_tx: int, num_rx: int) -> np.ndarray:
        """Scatter a reduced point to the full (N, M) matrix."""
        full = np.zeros((num_tx, num_rx))
        full[self.tx_indices, self.rx_indices] = x
        return full

    def restrict(self, matrix: np.ndarray) -> np.ndarray:
        """Gather the reduced coordinates of a full (N, M) matrix."""
        return np.asarray(matrix, dtype=float)[self.tx_indices, self.rx_indices]


class ContinuousOptimizer:
    """SLSQP solver for the Eq. 5-7 program with analytic gradients.

    *metrics* is an optional :class:`repro.runtime.metrics.MetricsRegistry`
    (or any object with the same ``timer``/``counter``/``gauge`` duck
    type); when provided, per-stage timings (prune / reduced solve /
    expand / full solve) and reduction/fallback counts are recorded under
    ``optimizer.*`` names.
    """

    def __init__(
        self,
        options: Optional[OptimizerOptions] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self.options = options if options is not None else OptimizerOptions()
        self.metrics = metrics

    # ------------------------------------------------------------------

    def solve(self, problem: AllocationProblem) -> Allocation:
        """Best feasible local optimum across all starts."""
        if problem.power_budget <= 0.0:
            return Allocation(
                problem=problem,
                swings=problem.zero_allocation(),
                solver="slsqp",
            )
        return self._solve_instance(problem, self.options)

    def sweep(
        self, problem: AllocationProblem, budgets: "list[float]"
    ) -> List[Allocation]:
        """Solve the same instance under increasing budgets, warm-starting.

        Each budget's solution seeds the next one, which both speeds the
        sweep up and produces the smooth swing trajectories of Fig. 9.
        The anchor and restarts run at every budget even when the warm
        start dominates them: the figures this sweep feeds must match
        per-budget solves, and a warm descent cannot switch on the new
        beamspots a larger budget affords.
        """
        allocations: List[Allocation] = []
        previous: Optional[np.ndarray] = None
        for budget in budgets:
            scoped = problem.with_budget(float(budget))
            if budget <= 0.0:
                allocations.append(
                    Allocation(
                        problem=scoped,
                        swings=scoped.zero_allocation(),
                        solver="slsqp",
                    )
                )
                continue
            options = (
                replace(self.options, warm_start=previous)
                if previous is not None
                else self.options
            )
            try:
                allocation = self._solve_instance(
                    scoped, options, skip_dominated=False
                )
            except OptimizationError as error:
                raise OptimizationError(
                    f"SLSQP failed at budget {budget} in the sweep"
                ) from error
            allocations.append(allocation)
            previous = allocation.swings
        return allocations

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _timer(self, name: str):
        return self.metrics.timer(name) if self.metrics is not None else nullcontext()

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).increment()

    def _solve_instance(
        self,
        problem: AllocationProblem,
        options: OptimizerOptions,
        skip_dominated: bool = True,
    ) -> Allocation:
        heuristic = RankingHeuristic().solve(problem)
        if options.reduce:
            with self._timer("optimizer.prune_seconds"):
                plan = plan_reduction(
                    problem,
                    margin=options.reduction_margin,
                    min_extra=options.reduction_min_extra,
                )
            if plan is not None:
                self._count("optimizer.reduced_solves")
                add_span_attributes(reduction_k=int(plan.num_pairs))
                if self.metrics is not None:
                    self.metrics.gauge("optimizer.reduced_variables").set(
                        plan.num_pairs
                    )
                    self.metrics.histogram("optimizer.reduction_k").observe(
                        float(plan.num_pairs)
                    )
                with self._timer("optimizer.reduced_solve_seconds"):
                    best = self._best_over_starts(
                        problem, options, heuristic, plan, skip_dominated
                    )
                if best is not None and problem.utility(best) >= (
                    heuristic.utility - options.reduction_utility_slack
                ):
                    return Allocation(
                        problem=problem, swings=best, solver="slsqp-reduced"
                    )
                # The heuristic's solution lies inside the reduced
                # feasible set, so landing below it means the reduced
                # solve failed -- run the full program.
                self._count("optimizer.fallbacks")
        with self._timer("optimizer.full_solve_seconds"):
            best = self._best_over_starts(
                problem, options, heuristic, None, skip_dominated
            )
        if best is None:
            raise OptimizationError(
                "SLSQP failed to produce a feasible allocation from any start"
            )
        return Allocation(problem=problem, swings=best, solver="slsqp")

    def _best_over_starts(
        self,
        problem: AllocationProblem,
        options: OptimizerOptions,
        heuristic: Allocation,
        plan: Optional[ReductionPlan],
        skip_dominated: bool,
    ) -> Optional[np.ndarray]:
        support = _Support(problem, options, plan)
        max_swing = problem.led.max_swing
        starts: List[np.ndarray] = []
        if options.warm_start is not None:
            warm = np.asarray(options.warm_start, dtype=float)
            if warm.shape != problem.channel.shape:
                raise OptimizationError(
                    f"warm start shape {warm.shape} does not match problem "
                    f"shape {problem.channel.shape}"
                )
            starts.append(
                self._fit_budget(
                    problem, support.restrict(warm / max_swing), support, options
                )
            )
            if skip_dominated and problem.utility(warm) >= heuristic.utility:
                # The warm start already dominates the ranking anchor:
                # every remaining start is the anchor or a perturbation
                # of it, and each one costs a full SLSQP descent toward
                # a solution the warm point starts at or above.
                start = support.expand(
                    starts[0], problem.num_transmitters, problem.num_receivers
                )
                start_utility = problem.utility(start * max_swing)
                best = self._best_from(problem, starts, support, options)
                if best is not None and (
                    problem.utility(best) > start_utility + _STALL_TOLERANCE
                ):
                    if self.metrics is not None:
                        self.metrics.counter(
                            "optimizer.starts_skipped"
                        ).increment(1 + options.restarts)
                    return best
                # The skip is a speed-up only: it must never fail, or
                # land lower, where the full start set would not.  Fall
                # back to the anchor and restarts when the lone warm
                # descent ended infeasible, or never left its start --
                # the utility gradient of a swing is proportional to
                # the swing, so a warm point with zero entries cannot
                # switch on the beamspots a larger budget affords.
                if self.metrics is not None:
                    self.metrics.counter("optimizer.skip_fallbacks").increment()
                return self._best_from(
                    problem,
                    self._anchor_points(problem, options, heuristic, support),
                    support,
                    options,
                    best,
                )
        starts.extend(self._anchor_points(problem, options, heuristic, support))
        return self._best_from(problem, starts, support, options)

    def _best_from(
        self,
        problem: AllocationProblem,
        starts: List[np.ndarray],
        support: _Support,
        options: OptimizerOptions,
        best: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        """The best feasible local optimum over *starts* and *best*."""
        best_utility = -math.inf if best is None else problem.utility(best)
        for x0 in starts:
            swings = self._solve_from(problem, x0, support, options)
            if swings is None:
                continue
            utility = problem.utility(swings)
            if utility > best_utility:
                best_utility = utility
                best = swings
        return best

    def _anchor_points(
        self,
        problem: AllocationProblem,
        options: OptimizerOptions,
        heuristic: Allocation,
        support: _Support,
    ) -> List[np.ndarray]:
        """The ranking-heuristic anchor plus its perturbed restarts."""
        rng = np.random.default_rng(options.seed)
        # Heuristic structure, scaled into the budget interior.
        base = support.restrict(heuristic.swings / problem.led.max_swing)
        seeded = base * 0.8 + 5e-3
        points = [self._fit_budget(problem, seeded, support, options)]

        # Perturbed restarts.
        for _ in range(options.restarts):
            noise = rng.uniform(0.0, 0.3, size=support.num_pairs)
            candidate = np.clip(seeded + noise, 1e-4, 1.0)
            points.append(self._fit_budget(problem, candidate, support, options))
        return points

    def _fit_budget(
        self,
        problem: AllocationProblem,
        x: np.ndarray,
        support: _Support,
        options: OptimizerOptions,
    ) -> np.ndarray:
        """Scale a candidate so it strictly satisfies both constraints."""
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        per_tx = support.per_tx_swing(x)
        overflow = per_tx.max(initial=0.0)
        if overflow > 1.0:
            x = x / overflow
            per_tx = per_tx / overflow
        max_swing = problem.led.max_swing
        power = float(
            np.sum(
                problem.led.dynamic_resistance
                * (per_tx * max_swing / 2.0) ** 2
            )
        )
        target = problem.power_budget * options.budget_headroom
        if power > target > 0.0:
            # Power is quadratic in the swing scale.
            x = x * math.sqrt(target / power)
        return x

    def _solve_from(
        self,
        problem: AllocationProblem,
        x0: np.ndarray,
        support: _Support,
        options: OptimizerOptions,
    ) -> Optional[np.ndarray]:
        num_tx = problem.num_transmitters
        num_rx = problem.num_receivers
        max_swing = problem.led.max_swing
        channel = support.channel_active
        scale = (
            problem.photodiode.responsivity
            * problem.led.wall_plug_efficiency
            * problem.led.dynamic_resistance
        )
        noise_power = problem.noise.power
        bandwidth = problem.noise.bandwidth
        floor = options.utility_floor
        ln2 = math.log(2.0)
        local_tx = support.local_tx
        rx_indices = support.rx_indices
        deadline = options.deadline
        # Objective trajectory only accrues when a trace span is active
        # (the list append would be waste on the untraced hot path).
        span = current_span()
        trajectory: Optional[List[float]] = [] if span is not None else None

        def objective(x: np.ndarray) -> Tuple[float, np.ndarray]:
            # The solve's one deadline checkpoint: evaluations are at
            # most tens of milliseconds apart.
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceeded("SLSQP passed its deadline")
            swings = support.active_swings(x, max_swing)
            quarter = (swings / 2.0) ** 2
            amplitudes = scale * channel.T @ quarter  # (M, M)
            signal = np.diag(amplitudes).copy()
            interference = amplitudes.sum(axis=1) - signal
            denom = noise_power + interference**2
            sinr = signal**2 / denom
            rate = bandwidth * np.log2(1.0 + sinr)
            value = float(np.sum(np.log(rate + floor)))
            if trajectory is not None:
                trajectory.append(value)

            # dF/dSINR_i, dSINR/dsignal, dSINR/dinterference.
            g = (1.0 / (rate + floor)) * bandwidth / (ln2 * (1.0 + sinr))
            dsinr_dsig = 2.0 * signal / denom
            dsinr_dint = -2.0 * signal**2 * interference / denom**2
            w_direct = g * dsinr_dsig
            w_interf = g * dsinr_dint
            total_interf = channel @ w_interf  # (K,)
            grad_q = scale * (
                channel * (w_direct - w_interf)[None, :]
                + total_interf[:, None]
            )
            grad_swing = grad_q * (swings / 2.0)
            gradient = grad_swing[local_tx, rx_indices] * max_swing
            return -value, -gradient

        result = optimize.minimize(
            objective,
            x0,
            jac=True,
            method="SLSQP",
            bounds=support.bounds,
            constraints=support.constraints,
            options={
                "maxiter": options.max_iterations,
                "ftol": options.tolerance,
            },
        )
        iterations = int(getattr(result, "nit", 0))
        if self.metrics is not None:
            self.metrics.histogram("optimizer.slsqp_iterations").observe(
                float(iterations)
            )
        if span is not None and trajectory is not None:
            # Accumulate across the multi-start loop: total iteration
            # count plus a downsampled (<= 32 points) objective
            # trajectory over all evaluations in this solve.
            total = int(span.attributes.get("slsqp_iterations", 0))
            trace = list(span.attributes.get("objective_trajectory", ()))
            step = max(1, -(-len(trajectory) // 16))
            trace.extend(round(v, 6) for v in trajectory[::step])
            add_span_attributes(
                slsqp_iterations=total + iterations,
                objective_trajectory=trace[-32:],
            )
        reduced = np.clip(result.x, 0.0, 1.0)
        candidate = support.expand(reduced, num_tx, num_rx) * max_swing
        # SLSQP can end a hair outside the power budget; pull it back in.
        power = problem.total_power(candidate)
        if power > problem.power_budget > 0.0:
            candidate = candidate * math.sqrt(problem.power_budget / power)
        if not problem.is_feasible(candidate, tolerance=1e-6):
            return None
        return candidate


def solve_optimal(
    problem: AllocationProblem,
    options: Optional[OptimizerOptions] = None,
    metrics: Optional[Any] = None,
) -> Allocation:
    """One-call convenience wrapper around :class:`ContinuousOptimizer`."""
    return ContinuousOptimizer(options, metrics=metrics).solve(problem)
