"""Continuous solver for the optimal allocation policy (paper Sec. 3.4).

The paper solves program (5)-(7) with Matlab's ``fmincon``; this module is
the scipy equivalent (SLSQP with analytic gradients), plus a projected
Newton method for the programs whose curvature is known in closed form.
The program is nonconvex (interference couples beamspots), so the solver
supports multi-start: the first start is seeded from the ranking
heuristic -- which Insight 1 says is close to the optimal structure --
and further starts perturb it randomly.  The best feasible local optimum
wins.  Every start runs on every solve: a warm start (``sweep`` and the
mobility experiment chain one through) is one more start ahead of the
anchor, never a reason to drop it, so its best descent is never below
the cold solve's.

Variables are the scaled swings ``x[j, k] = I_sw[j, k] / I_sw,max`` in
``[0, 1]``; constraints are the per-TX total-swing bound (Eq. 6, linear)
and the total-power budget (Eq. 7, quadratic).  A pruned plan in which
every active TX owns exactly one variable (the program Insight 1
licenses) is solved in the power domain instead, in ``q = x**2``: the
received amplitudes and the Eq. 7 power are linear in ``q``, so the
budget is one linear row, and the result maps back as ``x = sqrt(q)``.
The full program and plans where a TX owns two pairs stay in ``x`` and
run SLSQP.

Power-domain descents run Bertsekas' projected Newton method instead of
SLSQP.  With one pair per TX the utility depends on ``q`` only through
2M linear maps (each RX's signal and interference), so its Hessian is
``J^T Phi J`` of rank at most 2M (:class:`_PowerUtility`), and at the
optimum Insights 1-2 leave only a handful of the K variables off their
bounds.  Each iteration holds the variables an eps rule puts at a bound,
takes an eigenvalue-floored Newton step on the rest (the Eq. 7 row as an
equality while it binds) and an Armijo search along the projection arc.
A descent that is not stationary after ``_NEWTON_MAX_ITERATIONS``
continues in SLSQP from the point it reached (``optimizer.newton_handoffs``
counts these).

Starts: in ``x``, and in ``q`` while the budget affords fewer full-swing
TXs than there are RXs, the anchor is the heuristic's structure shrunk
to ``0.8 * b + 5e-3`` (in the solve's own variables) and every start is
scaled uniformly to ``_BUDGET_HEADROOM`` of the budget.  In ``q`` from
one full-swing TX per RX up -- where Insight 2 puts a near-binary
optimum -- the anchor is the heuristic's binary point, and the anchor
and the warm start get a ``1e-3`` floor and are fitted to the budget by
shedding ``q`` from the pairs with the smallest marginal utility first.
Perturbed restarts are drawn in ``x`` either way.

Acceleration layer (see :mod:`repro.core.reduction`): with
``OptimizerOptions(reduce=True)`` the solver first prunes the variable
set at every budget to the SJR-ranked (TX, RX) prefix the budget can
afford, at most one ranked pair per TX plus coverage pairs (Insight 1
says the rest end at zero anyway), solves that reduced program, and
expands the solution back to (N, M).  A utility check against the
ranking heuristic -- whose solution lies inside the reduced feasible set
by construction -- guards the shortcut: only if the reduced optimum fails
it does the solver run the full-dimension program.  Eq. 6 reaches SLSQP
only for TXs that own two or more variables: for a TX with one variable
it is the box bound ``x <= 1``, so a pruned plan with one pair per TX
sends the power row alone, while the full program keeps all N rows.
Constraints use preallocated structured Jacobians (the Eq. 6 rows form a
constant segment-indicator matrix; the power gradient fills a reusable
buffer) built once per solve, not per start.  The prune / reduced / full
sub-stages are timed by :class:`repro.tracecontext.stage`; their self
times and the fallback counts flow into an optional metrics registry
(:class:`repro.runtime.metrics.MetricsRegistry`-compatible).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy import optimize

from ..errors import DeadlineExceeded, OptimizationError
from ..tracecontext import add_span_attributes, current_span, stage
from .allocation import Allocation
from .heuristic import RankingHeuristic
from .problem import UTILITY_FLOOR, AllocationProblem
from .reduction import ReductionPlan, plan_reduction

#: Fraction of the budget the uniformly scaled starts use: starting
#: strictly inside the power constraint helps SLSQP.  Starts fitted by
#: shedding fill the budget.
_BUDGET_HEADROOM = 0.9

#: Projected Newton iterations per power-domain descent before SLSQP
#: continues from the point reached.
_NEWTON_MAX_ITERATIONS = 20

#: Stationarity test: the projected-gradient step ``max|P(q + dU/dq) - q|``.
_NEWTON_TOLERANCE = 1e-10

#: Bertsekas' eps-active bound: a variable within ``min(eps, residual)``
#: of a bound its reduced gradient pushes against is held there.
_NEWTON_EPSILON = 1e-3

#: Armijo sufficient-increase fraction and the halvings tried per search.
_ARMIJO = 1e-4
_ARMIJO_HALVINGS = 20

#: Relative resolution of U: a step may lose this much (rounding) and
#: still count as an increase.
_RESOLUTION = 1e-14

#: Floor [q = x**2] of the binary anchor and the warm start in the power
#: domain: every pair starts interior to its box.
_Q_FLOOR = 1e-3


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for :class:`ContinuousOptimizer`.

    Attributes:
        restarts: number of additional randomly-perturbed starts.
        max_iterations: SLSQP iteration cap per start.
        tolerance: SLSQP convergence tolerance.
        utility_floor: throughput floor [bit/s] inside the log utility.
        seed: RNG seed for the perturbed starts.
        reduce: solve the SJR-pruned reduced program first (pruned by
            :func:`plan_reduction` with its defaults), falling back to
            the full program when its utility check fails.
        reduction_utility_slack: absolute utility slack below the
            ranking-heuristic reference that triggers the fallback.
        warm_start: optional (N, M) swing matrix [A] used as an extra
            first start (fitted to the budget like the anchor), ahead of
            the anchor and restarts; :meth:`ContinuousOptimizer.sweep`
            and the mobility experiment chain the previous solution
            through it.
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
    reduce: bool = False
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

    Holds the active-variable index maps, the constant Eq. 6 Jacobian
    (one row per TX owning two or more variables; a single-variable TX
    is held by its box bound), reusable gradient buffers and the bounds
    list -- everything that used to be rebuilt per start (and, for the
    per-TX bound, as a dense (N, N*M) matmul per SLSQP iteration).

    ``plan=None`` means the full program: all N*M variables in TX-major
    order, so the same code path serves both solves.

    Variables are the scaled swings ``x`` unless ``power_domain`` is
    set: a pruned plan in which every active TX owns exactly one
    variable is solved in ``q = x**2``.  There the quarter swings
    ``q * (I_sw,max / 2)**2`` and the Eq. 7 power ``r * (I_sw,max / 2)**2
    * sum(q)`` are linear, so the budget is one row with a constant
    Jacobian (``sum(q) <= capacity``), and ``utility`` is the solve's
    one power-domain evaluator (:class:`_PowerUtility`), shared by the
    start shedding, the Newton descent and an SLSQP hand-off.
    :meth:`restrict` and :meth:`expand` take and return scaled swings in
    either domain.  ``allow_power_domain = False`` in a subclass keeps
    every plan in ``x`` (the reference the power domain is checked
    against).
    """

    allow_power_domain = True

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

        # Eq. 6: 1 - sum_k x[j, k] >= 0 per active TX.  For a TX that
        # owns one variable this is its box bound x <= 1, so only TXs
        # owning two or more variables get a row.  The Jacobian is a
        # constant segment-indicator matrix over those rows, built once;
        # the function is a segmented sum, not a dense matmul.
        segment_sizes = np.diff(self.segment_starts, append=self.num_pairs)
        shared = np.flatnonzero(segment_sizes >= 2)
        self.power_domain = bool(
            self.allow_power_domain and plan is not None and not shared.size
        )
        # Scatter target for the (K, M) active swing (x) or quarter-swing
        # (q) matrix; entries off the support are structurally zero and
        # never written.
        self._swing_matrix = np.zeros((self.num_active, num_rx))
        #: (I_sw,max / 2)**2: the quarter swing of q = 1.
        self.quarter_max = (max_swing / 2.0) ** 2
        #: Eq. 7 power of q = 1, i.e. one TX at full swing [W].
        self.unit_power = resistance * self.quarter_max
        if self.power_domain:
            #: Eq. 7 in q: sum(q) <= capacity.
            self.capacity = budget / self.unit_power
            self.utility = _PowerUtility(problem, options, self)
            power_jacobian_q = np.full(self.num_pairs, -self.unit_power)
            self.constraints = [
                {
                    "type": "ineq",
                    "fun": lambda q: budget - self.power(q),
                    "jac": lambda q: power_jacobian_q,
                }
            ]
            return

        self._swing_jacobian = np.where(
            np.equal.outer(shared, self.local_tx), -1.0, 0.0
        )
        self._power_grad_buffer = np.empty(self.num_pairs)
        power_coeff = resistance * max_swing * max_swing / 2.0

        def per_tx_swing(x: np.ndarray) -> np.ndarray:
            return np.add.reduceat(x, self.segment_starts)

        def swing_constraint(x: np.ndarray) -> np.ndarray:
            return 1.0 - per_tx_swing(x)[shared]

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
        ]
        if shared.size:
            self.constraints.append(
                {
                    "type": "ineq",
                    "fun": swing_constraint,
                    "jac": lambda x: self._swing_jacobian,
                }
            )

    def active_swings(self, x: np.ndarray, max_swing: float) -> np.ndarray:
        """The (K, M) swing matrix of a reduced point (shared buffer)."""
        self._swing_matrix[self.local_tx, self.rx_indices] = x * max_swing
        return self._swing_matrix

    def power(self, q: np.ndarray) -> float:
        """Eq. 7 power [W] of a q point."""
        return self.unit_power * float(q.sum())

    def expand(self, v: np.ndarray, num_tx: int, num_rx: int) -> np.ndarray:
        """Scatter a reduced point to the full (N, M) scaled-swing matrix."""
        full = np.zeros((num_tx, num_rx))
        full[self.tx_indices, self.rx_indices] = (
            np.sqrt(v) if self.power_domain else v
        )
        return full

    def to_domain(self, x: np.ndarray) -> np.ndarray:
        """The solve's variables (x, or q = x**2) of reduced scaled swings."""
        return x * x if self.power_domain else x

    def restrict(self, matrix: np.ndarray) -> np.ndarray:
        """The reduced point of a full (N, M) scaled-swing matrix."""
        return self.to_domain(
            np.asarray(matrix, dtype=float)[self.tx_indices, self.rx_indices]
        )


def _check_deadline(deadline: Optional[float]) -> None:
    """The solve's one deadline checkpoint, run at every evaluation."""
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineExceeded("the continuous optimizer passed its deadline")


class _PowerUtility:
    """Eq. 5 utility of a power-domain program, its gradient and curvature.

    With one pair per TX, RX i's signal and interference amplitudes are
    linear in q: ``s = J_s q`` and ``I = J_I q``, with ``J = [J_s; J_I]``
    of shape (2M, K).  So ``U(q) = sum_i f(s_i, I_i)`` with
    ``f = log(rate + floor)``, the gradient is ``J^T (f_s; f_I)`` and
    the Hessian is ``J^T Phi J``, where Phi holds three diagonal (M, M)
    blocks of second derivatives, ``phi_ss``, ``phi_sI`` and ``phi_II``:
    rank at most 2M, whatever K.
    """

    def __init__(
        self,
        problem: AllocationProblem,
        options: OptimizerOptions,
        support: _Support,
    ) -> None:
        num_rx = problem.num_receivers
        gain = (
            problem.photodiode.responsivity
            * problem.led.wall_plug_efficiency
            * problem.led.dynamic_resistance
            * support.quarter_max
        )
        # Column p is pair (tx, rx): its channel to every RX, split into
        # the RX it serves (signal) and the others (interference).
        columns = gain * support.channel_active[support.local_tx].T  # (M, K)
        serves = np.equal.outer(np.arange(num_rx), support.rx_indices)
        self.jacobian = np.concatenate(
            (np.where(serves, columns, 0.0), np.where(serves, 0.0, columns))
        )
        self.num_rx = num_rx
        self.noise_power = problem.noise.power
        self.bandwidth = problem.noise.bandwidth
        self.floor = options.utility_floor
        self.deadline = options.deadline

    def __call__(
        self, q: np.ndarray, curvature: bool = False
    ) -> Tuple[float, np.ndarray, Optional[np.ndarray]]:
        """U(q), dU/dq and, if asked, Phi as a (3, M) array of its blocks."""
        _check_deadline(self.deadline)
        amplitudes = self.jacobian @ q
        signal = amplitudes[: self.num_rx]
        interference = amplitudes[self.num_rx :]
        denom = self.noise_power + interference**2
        sinr = signal**2 / denom
        growth = 1.0 + sinr
        shifted = self.bandwidth * np.log2(growth) + self.floor
        value = float(np.sum(np.log(shifted)))
        # dU/dSINR per RX, and dSINR/ds, dSINR/dI.
        slope = self.bandwidth / (math.log(2.0) * shifted * growth)
        d_signal = 2.0 * signal / denom
        d_interference = -2.0 * sinr * interference / denom
        gradient = self.jacobian.T @ np.concatenate(
            (slope * d_signal, slope * d_interference)
        )
        if not curvature:
            return value, gradient, None
        bend = -slope * (slope + 1.0 / growth)  # d2U/dSINR2
        phi = np.empty((3, self.num_rx))
        phi[0] = bend * d_signal**2 + slope * 2.0 / denom
        phi[1] = (
            bend * d_signal * d_interference
            - slope * d_signal * 2.0 * interference / denom
        )
        phi[2] = bend * d_interference**2 - slope * 2.0 * sinr * (
            1.0 - 4.0 * interference**2 / denom
        ) / denom
        return value, gradient, phi

    def hessian(self, phi: np.ndarray, columns: Any = slice(None)) -> np.ndarray:
        """``J^T Phi J`` restricted to *columns* (a mask, slice or index)."""
        jacobian = self.jacobian[:, columns]
        signal = jacobian[: self.num_rx]
        interference = jacobian[self.num_rx :]
        weighted_signal = phi[0][:, None] * signal + phi[1][:, None] * interference
        weighted_interference = (
            phi[1][:, None] * signal + phi[2][:, None] * interference
        )
        hessian: np.ndarray = (
            signal.T @ weighted_signal + interference.T @ weighted_interference
        )
        return hessian


def _project(
    y: np.ndarray, room: float, equality: bool = False
) -> Tuple[np.ndarray, float]:
    """Project *y* onto ``[0, 1]^K`` with ``sum <= room`` (``== room``).

    Returns the point ``clip(y - lam, 0, 1)`` and the row's multiplier
    ``lam``: 0 when clipping alone satisfies the row, otherwise (and
    always with *equality*, where it may be negative) the value that
    puts the sum on the row.  The sum is piecewise linear in ``lam``
    with breakpoints at ``y`` and ``y - 1``, so it is evaluated at every
    breakpoint at once and interpolated.
    """
    point = np.clip(y, 0.0, 1.0)
    total = float(point.sum())
    if total == room or (total < room and not equality):
        return point, 0.0
    breaks = np.concatenate((y - 1.0, y))
    breaks.sort()
    sums = np.clip(y[None, :] - breaks[:, None], 0.0, 1.0).sum(axis=1)
    upper = int(np.searchsorted(-sums, -room))
    if upper == 0:
        return np.ones_like(y), float(breaks[0])
    if upper == breaks.size:
        return np.zeros_like(y), float(breaks[-1])
    lower = upper - 1
    lam = breaks[lower] + (sums[lower] - room) / (
        sums[lower] - sums[upper]
    ) * (breaks[upper] - breaks[lower])
    return np.clip(y - lam, 0.0, 1.0), float(lam)


class ContinuousOptimizer:
    """Solver for the Eq. 5-7 program: SLSQP, or projected Newton in ``q``.

    *metrics* is an optional :class:`repro.runtime.metrics.MetricsRegistry`
    (or any object with the same ``histogram``/``counter``/``gauge`` duck
    type); when provided, the self times of the ``prune`` /
    ``reduced_solve`` / ``full_solve`` stages land in its
    ``stage.self_seconds`` histogram and reduction/fallback counts
    under ``optimizer.*`` names.  :meth:`solve` and :meth:`sweep` run
    the same starts; ``sweep`` also chains each budget's answer into the
    next as its warm start.
    """

    def __init__(
        self,
        options: Optional[OptimizerOptions] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self.options = options if options is not None else OptimizerOptions()
        self.metrics = metrics
        self._stages: Dict[str, Any] = (
            {
                key: metrics.histogram("stage.self_seconds", stage=key)
                for key in ("prune", "reduced_solve", "full_solve")
            }
            if metrics is not None
            else {}
        )
        # Descent introspection for the active solve span (None:
        # untraced): iterations of every descent (the span's
        # ``slsqp_iterations``), Newton's share, the objective trajectory.
        self._iterations = 0
        self._newton_iterations = 0
        self._trajectory: Optional[List[float]] = None

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
        The warm start is one more start: the anchor and restarts still
        run at every budget, so no rung ends below its per-budget solve,
        and a warm descent cannot switch on the new beamspots a larger
        budget affords.
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
                allocation = self._solve_instance(scoped, options)
            except OptimizationError as error:
                raise OptimizationError(
                    f"the optimizer failed at budget {budget} in the sweep"
                ) from error
            allocations.append(allocation)
            previous = allocation.swings
        return allocations

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).increment()

    def _solve_instance(
        self,
        problem: AllocationProblem,
        options: OptimizerOptions,
    ) -> Allocation:
        # Iterations and the objective trajectory accrue over every
        # descent of the solve and land on the enclosing solve span,
        # not on the sub-stage that ran them.
        self._iterations = 0
        self._newton_iterations = 0
        self._trajectory = [] if current_span() is not None else None
        try:
            return self._solve_stages(problem, options)
        finally:
            if self._trajectory is not None:
                add_span_attributes(
                    slsqp_iterations=self._iterations,
                    newton_iterations=self._newton_iterations,
                    objective_trajectory=self._trajectory[-32:],
                )

    def _solve_stages(
        self,
        problem: AllocationProblem,
        options: OptimizerOptions,
    ) -> Allocation:
        heuristic = RankingHeuristic().solve(problem)
        # Eq. 5 runs once per candidate: the heuristic's utility here,
        # each descent's answer in _best_from.
        heuristic_utility = heuristic.utility
        if options.reduce:
            with stage("prune", self._stages.get("prune")):
                plan = plan_reduction(problem)
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
                with stage("reduced_solve", self._stages.get("reduced_solve")):
                    best, utility = self._best_over_starts(
                        problem, options, heuristic, plan
                    )
                if best is not None and utility >= (
                    heuristic_utility - options.reduction_utility_slack
                ):
                    return Allocation(
                        problem=problem, swings=best, solver="slsqp-reduced"
                    )
                # The heuristic's solution lies inside the reduced
                # feasible set, so landing below it means the reduced
                # solve failed -- run the full program.
                self._count("optimizer.fallbacks")
        with stage("full_solve", self._stages.get("full_solve")):
            best, _ = self._best_over_starts(problem, options, heuristic, None)
        if best is None:
            raise OptimizationError(
                "the optimizer failed to produce a feasible allocation from "
                "any start"
            )
        return Allocation(problem=problem, swings=best, solver="slsqp")

    def _best_over_starts(
        self,
        problem: AllocationProblem,
        options: OptimizerOptions,
        heuristic: Allocation,
        plan: Optional[ReductionPlan],
    ) -> Tuple[Optional[np.ndarray], float]:
        """The best feasible local optimum over the starts, and its utility."""
        support = _Support(problem, options, plan)
        starts: List[np.ndarray] = []
        if options.warm_start is not None:
            warm = np.asarray(options.warm_start, dtype=float)
            if warm.shape != problem.channel.shape:
                raise OptimizationError(
                    f"warm start shape {warm.shape} does not match problem "
                    f"shape {problem.channel.shape}"
                )
            point = support.restrict(warm / problem.led.max_swing)
            starts.append(
                self._shed_to_budget(np.maximum(point, _Q_FLOOR), support)
                if self._sheds(problem, support)
                else self._fit_budget(problem, point, support)
            )
        starts.extend(self._anchor_points(problem, options, heuristic, support))
        return self._best_from(problem, starts, support, options)

    def _best_from(
        self,
        problem: AllocationProblem,
        starts: List[np.ndarray],
        support: _Support,
        options: OptimizerOptions,
    ) -> Tuple[Optional[np.ndarray], float]:
        """The best feasible local optimum over *starts*.

        Returns it with its utility, so callers never re-evaluate Eq. 5.
        """
        best: Optional[np.ndarray] = None
        best_utility = -math.inf
        for x0 in starts:
            swings = self._solve_from(problem, x0, support, options)
            if swings is None:
                continue
            utility = problem.utility(swings)
            if utility > best_utility:
                best_utility = utility
                best = swings
        return best, best_utility

    def _anchor_points(
        self,
        problem: AllocationProblem,
        options: OptimizerOptions,
        heuristic: Allocation,
        support: _Support,
    ) -> List[np.ndarray]:
        """The ranking-heuristic anchor plus its perturbed restarts."""
        rng = np.random.default_rng(options.seed)
        scaled = heuristic.swings / problem.led.max_swing
        base = support.restrict(scaled)
        if self._sheds(problem, support):
            # Insight 2's regime: start at the heuristic's binary point.
            anchor = self._shed_to_budget(np.maximum(base, _Q_FLOOR), support)
        else:
            # Heuristic structure, scaled into the budget interior.  The
            # floor sits in the solve's own variables: squared from x
            # (2.5e-5 in q) it lets low-budget solves settle on optima
            # that serve one RX.
            anchor = self._fit_budget(problem, base * 0.8 + 5e-3, support)
        points = [anchor]

        # Perturbed restarts, drawn around the anchor in x.
        seeded = scaled[support.tx_indices, support.rx_indices] * 0.8 + 5e-3
        for _ in range(options.restarts):
            noise = rng.uniform(0.0, 0.3, size=support.num_pairs)
            candidate = support.to_domain(np.clip(seeded + noise, 1e-4, 1.0))
            points.append(self._fit_budget(problem, candidate, support))
        return points

    @staticmethod
    def _sheds(problem: AllocationProblem, support: _Support) -> bool:
        """Whether starts are fitted by shedding rather than scaling.

        In the power domain, once the budget affords one full-swing TX
        per RX, where the optimum is near binary (Insight 2).
        """
        return support.power_domain and (
            problem.max_affordable_transmitters >= problem.num_receivers
        )

    @staticmethod
    def _shed_to_budget(q: np.ndarray, support: _Support) -> np.ndarray:
        """Fit a q point to the budget, shedding the least useful power.

        Power is linear in q, so the excess comes off the pairs with the
        smallest marginal utility dU/dq first, each down to the floor --
        one gradient evaluation and a sort -- instead of scaling every
        pair.  The floors alone fit: shedding runs only once the budget
        affords ``sum(q) >= M``, and N floors sum to ``N * 1e-3``.
        """
        q = np.clip(q, 0.0, 1.0)
        excess = float(q.sum()) - support.capacity
        if excess <= 0.0:
            return q
        _, marginals, _ = support.utility(q)
        order = np.argsort(marginals, kind="stable")
        room = np.maximum(q[order] - _Q_FLOOR, 0.0)
        q[order] -= np.clip(excess - (np.cumsum(room) - room), 0.0, room)
        return q

    @staticmethod
    def _fit_budget(
        problem: AllocationProblem, x: np.ndarray, support: _Support
    ) -> np.ndarray:
        """Scale a candidate so it strictly satisfies both constraints."""
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        target = problem.power_budget * _BUDGET_HEADROOM
        if support.power_domain:
            # One variable per TX in [0, 1]: Eq. 6 holds, power is linear.
            power = support.power(x)
            return x * (target / power) if power > target > 0.0 else x
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
        if power > target > 0.0:
            # Power is quadratic in the swing scale.
            x = x * math.sqrt(target / power)
        return x

    def _objective(
        self,
        problem: AllocationProblem,
        support: _Support,
        options: OptimizerOptions,
        trajectory: Optional[List[float]] = None,
    ) -> Callable[[np.ndarray], Tuple[float, np.ndarray]]:
        """Negated Eq. 5 utility and its gradient in the solve's variables."""
        if support.power_domain:
            utility = support.utility

            def negated(q: np.ndarray) -> Tuple[float, np.ndarray]:
                value, gradient, _ = utility(q)
                if trajectory is not None:
                    trajectory.append(value)
                return -value, -gradient

            return negated
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

        def objective(x: np.ndarray) -> Tuple[float, np.ndarray]:
            _check_deadline(deadline)
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

        return objective

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
        # Objective trajectory only accrues when a trace span is active
        # (the list append would be waste on the untraced hot path).
        trajectory: Optional[List[float]] = (
            [] if self._trajectory is not None else None
        )
        iterations = 0
        reduced = x0
        converged = False
        if support.power_domain:
            reduced, iterations, converged = self._newton(
                x0, support, trajectory
            )
            if self.metrics is not None:
                self.metrics.histogram("optimizer.newton_iterations").observe(
                    float(iterations)
                )
            if self._trajectory is not None:
                self._newton_iterations += iterations
            if not converged and self.metrics is not None:
                self.metrics.counter("optimizer.newton_handoffs").increment()
        if not converged:
            result = optimize.minimize(
                self._objective(problem, support, options, trajectory),
                reduced,
                jac=True,
                method="SLSQP",
                bounds=support.bounds,
                constraints=support.constraints,
                options={
                    "maxiter": options.max_iterations,
                    "ftol": options.tolerance,
                },
            )
            slsqp_iterations = int(getattr(result, "nit", 0))
            if self.metrics is not None:
                self.metrics.histogram("optimizer.slsqp_iterations").observe(
                    float(slsqp_iterations)
                )
            iterations += slsqp_iterations
            reduced = result.x
        if trajectory is not None and self._trajectory is not None:
            # Accumulate across the multi-start loop: total iteration
            # count plus a downsampled objective trajectory over all
            # evaluations in this solve (the last 32 points are kept).
            self._iterations += iterations
            step = max(1, -(-len(trajectory) // 16))
            self._trajectory.extend(round(v, 6) for v in trajectory[::step])
        reduced = np.clip(reduced, 0.0, 1.0)
        candidate = support.expand(reduced, num_tx, num_rx) * max_swing
        # A descent can end a hair outside the power budget; pull it back.
        power = problem.total_power(candidate)
        if power > problem.power_budget > 0.0:
            candidate = candidate * math.sqrt(problem.power_budget / power)
        if not problem.is_feasible(candidate, tolerance=1e-6):
            return None
        return candidate

    @staticmethod
    def _newton(
        q0: np.ndarray,
        support: _Support,
        trajectory: Optional[List[float]],
    ) -> Tuple[np.ndarray, int, bool]:
        """Projected Newton ascent of U on ``[0, 1]^K`` with ``sum(q) <= c``.

        Bertsekas' method (SIAM J. Control Optim. 20(2), 1982): variables
        within ``eps`` of a bound whose reduced gradient pushes them out
        of the box are held there; the rest take a Newton step on the
        exact Hessian, eigenvalue-floored, with the Eq. 7 row as an
        equality while it binds; an Armijo search runs along the
        projection arc.  Returns the point reached, the iterations taken
        and whether the point passed the stationarity test.
        """
        utility = support.utility
        capacity = support.capacity

        def evaluate(
            q: np.ndarray,
        ) -> Tuple[float, np.ndarray, np.ndarray]:
            value, gradient, phi = utility(q, curvature=True)
            if trajectory is not None:
                trajectory.append(value)
            assert phi is not None
            return value, gradient, phi

        q = _project(q0, capacity)[0]
        value, gradient, phi = evaluate(q)
        iterations = 0
        while True:
            # Projected-gradient residual; its multiplier is the price of
            # power that balances the movable variables on the row.
            target, multiplier = _project(q + gradient, capacity)
            residual = float(np.max(np.abs(target - q)))
            if residual < _NEWTON_TOLERANCE:
                return q, iterations, True
            if iterations >= _NEWTON_MAX_ITERATIONS:
                return q, iterations, False
            iterations += 1
            eps = min(_NEWTON_EPSILON, residual)
            binds = multiplier > 0.0 and capacity - float(q.sum()) <= eps
            reduced = (multiplier if binds else 0.0) - gradient
            lower = (q <= eps) & (reduced > 0.0)
            upper = (q >= 1.0 - eps) & (reduced < 0.0)
            free = ~(lower | upper)
            base = np.where(upper, 1.0, np.where(lower, 0.0, q))
            room = capacity - float(base[~free].sum())
            # Near the optimum the gain falls below what U resolves.
            resolution = _RESOLUTION * abs(value)
            trial: Optional[np.ndarray] = None
            if free.any() and room > 0.0:
                step = _newton_step(
                    utility.hessian(phi, free), reduced[free], binds
                )
                alpha = 1.0
                for _ in range(_ARMIJO_HALVINGS):
                    point = base.copy()
                    point[free] = _project(
                        q[free] + alpha * step, room, equality=binds
                    )[0]
                    gain = float(gradient @ (point - q))
                    if gain < -resolution:
                        break
                    result = evaluate(point)
                    if result[0] - value >= _ARMIJO * gain - resolution:
                        trial = point
                        value, gradient, phi = result
                        break
                    alpha *= 0.5
            if trial is None:
                # No ascent along the Newton arc: one projected-
                # gradient step, backtracked from the curvature's scale.
                scale = float(np.abs(utility.hessian(phi)).sum(axis=1).max())
                beta = 1.0 / max(scale, np.finfo(float).tiny)
                for _ in range(_ARMIJO_HALVINGS):
                    point = _project(q + beta * gradient, capacity)[0]
                    gain = float(gradient @ (point - q))
                    if gain <= 0.0:
                        break
                    result = evaluate(point)
                    if result[0] - value >= _ARMIJO * gain - resolution:
                        trial = point
                        value, gradient, phi = result
                        break
                    beta *= 0.5
                if trial is None:
                    return q, iterations, False
            q = trial


def _newton_step(
    hessian: np.ndarray, reduced: np.ndarray, binds: bool
) -> np.ndarray:
    """Newton step on the free variables, flooring -H's eigenvalues.

    ``|w|`` is floored at ``max(1e-8 * max|w|, max|reduced|)``: the
    Hessian has rank at most 2M, and its null directions would otherwise
    take huge steps that project onto a vertex.  While the Eq. 7 row
    binds, the step keeps ``sum`` constant (the row as an equality).
    """
    eigenvalues, vectors = np.linalg.eigh(-hessian)
    magnitudes = np.abs(eigenvalues)
    floor = max(
        1e-8 * float(magnitudes.max()),
        float(np.abs(reduced).max()),
        np.finfo(float).tiny,
    )
    inverse = 1.0 / np.maximum(magnitudes, floor)

    def solve(y: np.ndarray) -> np.ndarray:
        solved: np.ndarray = vectors @ (inverse * (vectors.T @ y))
        return solved

    step = -solve(reduced)
    if binds:
        ones = solve(np.ones_like(reduced))
        step -= (step.sum() / ones.sum()) * ones
    return step


def solve_optimal(
    problem: AllocationProblem,
    options: Optional[OptimizerOptions] = None,
    metrics: Optional[Any] = None,
) -> Allocation:
    """One-call convenience wrapper around :class:`ContinuousOptimizer`."""
    return ContinuousOptimizer(options, metrics=metrics).solve(problem)
