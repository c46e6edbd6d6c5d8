"""Unit tests for repro.core.optimizer (the Eq. 5-7 solver)."""

import numpy as np
import pytest

from repro.core import (
    AllocationProblem,
    ContinuousOptimizer,
    OptimizerOptions,
    RankingHeuristic,
    solve_optimal,
)
from repro.errors import OptimizationError


@pytest.fixture(scope="module")
def small_problem(fig7_channel, led, photodiode, noise):
    """A reduced 12-TX problem for fast optimizer tests."""
    return AllocationProblem(
        channel=fig7_channel[:12],
        power_budget=0.3,
        led=led,
        photodiode=photodiode,
        noise=noise,
    )


class TestOptions:
    def test_defaults_valid(self):
        OptimizerOptions()

    def test_validation(self):
        with pytest.raises(OptimizationError):
            OptimizerOptions(restarts=-1)
        with pytest.raises(OptimizationError):
            OptimizerOptions(max_iterations=0)
        with pytest.raises(OptimizationError):
            OptimizerOptions(utility_floor=0.0)
        with pytest.raises(OptimizationError):
            OptimizerOptions(budget_headroom=0.0)


class TestSolve:
    def test_feasible_solution(self, small_problem):
        allocation = solve_optimal(
            small_problem, OptimizerOptions(restarts=0)
        )
        assert allocation.is_feasible
        assert allocation.solver == "slsqp"

    def test_zero_budget_returns_zero(self, small_problem):
        allocation = solve_optimal(small_problem.with_budget(0.0))
        assert np.all(allocation.swings == 0.0)

    def test_beats_or_matches_heuristic_utility(self, fig7_problem):
        optimal = ContinuousOptimizer(OptimizerOptions(restarts=1)).solve(
            fig7_problem
        )
        heuristic = RankingHeuristic().solve(fig7_problem)
        # The optimum of Eq. 5 must (weakly) dominate any feasible point
        # in utility, up to solver tolerance.
        assert optimal.utility >= heuristic.utility - 0.5

    def test_uses_most_of_budget(self, small_problem):
        allocation = solve_optimal(small_problem)
        assert allocation.total_power >= 0.5 * small_problem.power_budget

    def test_heuristic_close_in_throughput(self, fig7_problem):
        # Sec. 5: the heuristic sacrifices only ~2% system throughput.
        optimal = ContinuousOptimizer(OptimizerOptions(restarts=1)).solve(
            fig7_problem
        )
        heuristic = RankingHeuristic(kappa=1.3).solve(fig7_problem)
        loss = (
            optimal.system_throughput - heuristic.system_throughput
        ) / optimal.system_throughput
        assert loss < 0.10

    def test_serves_all_receivers(self, fig7_problem):
        allocation = ContinuousOptimizer(OptimizerOptions(restarts=0)).solve(
            fig7_problem
        )
        assert np.all(allocation.throughput > 0.0)

    def test_throughput_balanced(self, fig7_problem):
        # Proportional fairness keeps per-RX rates within a small factor.
        allocation = ContinuousOptimizer(OptimizerOptions(restarts=0)).solve(
            fig7_problem
        )
        rates = allocation.throughput
        assert rates.max() / rates.min() < 4.0


class TestSweep:
    def test_monotone_utility(self, small_problem):
        budgets = [0.05, 0.15, 0.3]
        sweep = ContinuousOptimizer(OptimizerOptions(restarts=0)).sweep(
            small_problem, budgets
        )
        utilities = [a.utility for a in sweep]
        assert utilities == sorted(utilities)

    def test_monotone_throughput_roughly(self, small_problem):
        budgets = [0.05, 0.15, 0.3]
        sweep = ContinuousOptimizer(OptimizerOptions(restarts=0)).sweep(
            small_problem, budgets
        )
        throughputs = [a.system_throughput for a in sweep]
        assert throughputs[-1] > throughputs[0]

    def test_budgets_respected(self, small_problem):
        budgets = [0.05, 0.15, 0.3]
        sweep = ContinuousOptimizer(OptimizerOptions(restarts=0)).sweep(
            small_problem, budgets
        )
        for allocation, budget in zip(sweep, budgets):
            assert allocation.total_power <= budget * (1 + 1e-6)

    def test_zero_budget_in_sweep(self, small_problem):
        sweep = ContinuousOptimizer(OptimizerOptions(restarts=0)).sweep(
            small_problem, [0.0, 0.1]
        )
        assert np.all(sweep[0].swings == 0.0)
        assert sweep[1].total_power > 0.0


class TestWarmSkipDifferential:
    """The warm-start skip against a cold solve, over a seeded sweep.

    The ladder walks the Fig. 9 budgets upward, warm-starting each rung
    from the rung below through ``OptimizerOptions.warm_start`` -- the
    path the serving layer's warm starts take -- so a dominating warm
    start skips the anchor and restarts.  ``sweep`` walks the same
    ladder without the skip.  Each rung of both must match a cold solve
    of the same budget: feasible, and at most 1.8% (the paper's
    heuristic cost) below it in utility.  The options are the serving
    tier's (``restarts=0``, ``reduce=True``).  The placements are four
    of seed 0's Fig. 6 draw, picked so that both ways the skip can go
    wrong occur: at 6 and 7 the lone warm descent ends infeasible on
    some rung, and at 4 and 6 it never leaves its start and would end
    3-6% below the cold solve.

    Wall time: about 25 s on a 2-vCPU x86 box.
    """

    MAX_GAP = 0.018
    TOLERANCE = 1e-6
    PLACEMENTS = (4, 6, 7, 9)

    def _assert_feasible(self, allocation):
        from repro.illumination.dimming import max_swing_for_bias

        problem = allocation.problem
        led = problem.led
        per_tx = allocation.swings.sum(axis=1)
        slack = 1.0 + self.TOLERANCE
        assert np.all(allocation.swings >= -self.TOLERANCE)
        # Eq. 6: each TX's total swing stays within I_sw,max.
        assert np.all(per_tx <= led.max_swing * slack)
        # Eq. 7: the communication power stays within the budget.
        assert problem.total_power(allocation.swings) <= (
            problem.power_budget * slack
        )
        # Illumination: both OOK symbols stay inside the LED's current
        # range, so the mean current -- and the light -- stays at I_b.
        assert np.all(per_tx <= max_swing_for_bias(led.bias_current) * slack)

    def _assert_matches_cold(self, allocation, cold, label):
        self._assert_feasible(allocation)
        gap = (cold.utility - allocation.utility) / abs(cold.utility)
        assert gap <= self.MAX_GAP, (
            f"budget {allocation.problem.power_budget:.3f} W: {label} "
            f"{gap:.2%} below the cold solve"
        )

    def test_warm_ladder_matches_cold_solves(self):
        from dataclasses import replace

        from repro.channel import channel_matrix
        from repro.experiments.config import default_config
        from repro.experiments.scenarios import fig6_instances
        from repro.runtime import MetricsRegistry

        cfg = default_config()
        budgets = list(cfg.coarse_budgets(12))
        options = OptimizerOptions(restarts=0, seed=cfg.seed, reduce=True)
        ladder_metrics = MetricsRegistry()
        sweep_metrics = MetricsRegistry()
        draw = fig6_instances(instances=max(self.PLACEMENTS) + 1, seed=0)
        for placement in draw[list(self.PLACEMENTS)]:
            scene = cfg.simulation_scene_at(
                tuple((float(x), float(y)) for x, y in placement)
            )
            problem = AllocationProblem(
                channel=channel_matrix(scene),
                power_budget=budgets[-1],
                led=cfg.led,
                photodiode=cfg.photodiode,
                noise=cfg.noise,
            )
            sweep = ContinuousOptimizer(options, metrics=sweep_metrics).sweep(
                problem, budgets
            )
            previous = None
            for budget, swept in zip(budgets, sweep):
                scoped = problem.with_budget(budget)
                warm = ContinuousOptimizer(
                    replace(options, warm_start=previous), metrics=ladder_metrics
                ).solve(scoped)
                previous = warm.swings
                cold = solve_optimal(scoped, options)
                self._assert_matches_cold(warm, cold, "warm ladder")
                self._assert_matches_cold(swept, cold, "sweep")
        counters = ladder_metrics.snapshot()["counters"]
        assert counters["optimizer.starts_skipped"] > 0
        assert counters["optimizer.skip_fallbacks"] > 0
        # The figure path never skips.
        counters = sweep_metrics.snapshot()["counters"]
        assert counters.get("optimizer.starts_skipped", 0) == 0
        assert counters.get("optimizer.skip_fallbacks", 0) == 0
