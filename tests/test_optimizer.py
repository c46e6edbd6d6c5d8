"""Unit tests for repro.core.optimizer (the Eq. 5-7 solver)."""

import numpy as np
import pytest

from repro.core import (
    AllocationProblem,
    ContinuousOptimizer,
    OptimizerOptions,
    RankingHeuristic,
    ReductionPlan,
    solve_optimal,
)
from repro.core.optimizer import _Support
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


#: Slack of the feasibility checks (relative on Eq. 6/7, absolute on x).
FEASIBILITY_TOLERANCE = 1e-6


def _assert_feasible(allocation):
    from repro.illumination.dimming import max_swing_for_bias

    problem = allocation.problem
    led = problem.led
    per_tx = allocation.swings.sum(axis=1)
    slack = 1.0 + FEASIBILITY_TOLERANCE
    assert np.all(allocation.swings >= -FEASIBILITY_TOLERANCE)
    # Eq. 6: each TX's total swing stays within I_sw,max.
    assert np.all(per_tx <= led.max_swing * slack)
    # Eq. 7: the communication power stays within the budget.
    assert problem.total_power(allocation.swings) <= (
        problem.power_budget * slack
    )
    # Illumination: both OOK symbols stay inside the LED's current
    # range, so the mean current -- and the light -- stays at I_b.
    assert np.all(per_tx <= max_swing_for_bias(led.bias_current) * slack)


def _fig6_problems(seed):
    """The coarse Fig. 9 budgets and the seed's ten Fig. 6 problems.

    Each problem is the figure config's (scene LED, photodiode, noise)
    at one placement of ``fig6_instances(10, seed)``, posed at the top
    rung.
    """
    from repro.channel import channel_matrix
    from repro.experiments.config import default_config
    from repro.experiments.scenarios import fig6_instances

    cfg = default_config()
    budgets = list(cfg.coarse_budgets(12))
    problems = []
    for placement in fig6_instances(instances=10, seed=seed):
        scene = cfg.simulation_scene_at(
            tuple((float(x), float(y)) for x, y in placement)
        )
        problems.append(
            AllocationProblem(
                channel=channel_matrix(scene),
                power_budget=budgets[-1],
                led=cfg.led,
                photodiode=cfg.photodiode,
                noise=cfg.noise,
            )
        )
    return budgets, problems


class TestWarmStartDifferential:
    """Warm-started solves against cold ones, over a seeded sweep.

    A warm start is one more start ahead of the anchor and its restarts,
    so a warm-started solve can end above the cold solve of the same
    problem but never below it.  Seeds 0 and 3 x ten Fig. 6 placements
    walk the coarse Fig. 9 rungs top-down and bottom-up with the serving
    options (``restarts=0``, ``reduce=True``), each rung warm-started
    from the previous rung's answer; every rung must be feasible and at
    or above the cold solve, exactly.  ``sweep`` is the bottom-up walk
    and must reproduce it bit for bit.

    Wall time: about 3 s on a 2-vCPU x86 box.
    """

    def test_warm_ladder_never_below_cold(self):
        from dataclasses import replace

        options = OptimizerOptions(restarts=0, seed=0, reduce=True)
        for seed in (0, 3):
            budgets, problems = _fig6_problems(seed)
            for index, problem in enumerate(problems):
                cold = {
                    budget: solve_optimal(problem.with_budget(budget), options)
                    for budget in budgets
                }
                walks = {"top-down": budgets[::-1], "bottom-up": budgets}
                solved = {}
                for label, ladder in walks.items():
                    previous = None
                    warm = solved[label] = []
                    for budget in ladder:
                        allocation = ContinuousOptimizer(
                            replace(options, warm_start=previous)
                        ).solve(problem.with_budget(budget))
                        previous = allocation.swings
                        warm.append(allocation)
                        _assert_feasible(allocation)
                        assert allocation.utility >= cold[budget].utility, (
                            f"seed {seed} placement {index} {label} "
                            f"{budget:.3f} W: warm {allocation.utility!r} "
                            f"below cold {cold[budget].utility!r}"
                        )
                swept = ContinuousOptimizer(options).sweep(problem, budgets)
                for rung, allocation in zip(solved["bottom-up"], swept):
                    assert np.array_equal(rung.swings, allocation.swings)


class TestPruningDifferential:
    """SJR pruning against the full program, over a seeded sweep.

    Insight 1 prunes the program to each TX's SJR-ranked pair at every
    budget; on the 36x4 setup that is 36 of 144 variables once the
    budget affords every TX.  The slow reference is the full program
    (``reduce=False``) with the same ``restarts`` and ``seed``, solved
    cold at each budget.  Six placements of seed 0's Fig. 6 draw run the
    coarse Fig. 9 rungs at or above 1.3 W, where the plan keeps one pair
    per TX; each pruned solve -- cold, and down the top-down ``sweep``
    -- must be feasible, at most 1.8% below the reference, and never
    fall back to the full program.  The swing search gets the same gap
    check against its own unpruned run.

    Wall time: about 12 s on a 2-vCPU x86 box.
    """

    MAX_GAP = 0.018
    PLACEMENTS = 6
    _assert_feasible = staticmethod(_assert_feasible)

    @pytest.fixture(scope="class")
    def ladders(self):
        """Per placement: the top-down rungs and their references."""
        from dataclasses import replace

        from repro.channel import channel_matrix
        from repro.experiments.config import default_config
        from repro.experiments.scenarios import fig6_instances

        cfg = default_config()
        budgets = sorted(
            (b for b in cfg.coarse_budgets(12) if b >= 1.3), reverse=True
        )
        options = OptimizerOptions(restarts=0, seed=cfg.seed, reduce=True)
        full = replace(options, reduce=False)
        ladders = []
        for placement in fig6_instances(instances=self.PLACEMENTS, seed=0):
            scene = cfg.simulation_scene_at(
                tuple((float(x), float(y)) for x, y in placement)
            )
            problem = AllocationProblem(
                channel=channel_matrix(scene),
                power_budget=budgets[0],
                led=cfg.led,
                photodiode=cfg.photodiode,
                noise=cfg.noise,
            )
            rungs = [problem.with_budget(b) for b in budgets]
            references = [solve_optimal(rung, full) for rung in rungs]
            ladders.append((rungs, references))
        return options, ladders

    def _assert_within_gap(self, allocation, reference, label):
        self._assert_feasible(allocation)
        gap = (reference.utility - allocation.utility) / abs(reference.utility)
        assert gap <= self.MAX_GAP, (
            f"budget {allocation.problem.power_budget:.3f} W: {label} "
            f"{gap:.2%} below the unpruned solve"
        )

    def test_cold_pruned_solves_match_full_program(self, ladders):
        from repro.runtime import MetricsRegistry

        options, ladders = ladders
        metrics = MetricsRegistry()
        for rungs, references in ladders:
            for rung, reference in zip(rungs, references):
                pruned = ContinuousOptimizer(options, metrics=metrics).solve(
                    rung
                )
                assert pruned.solver == "slsqp-reduced"
                self._assert_within_gap(pruned, reference, "cold")
        counters = metrics.snapshot()["counters"]
        assert counters["optimizer.reduced_solves"] == sum(
            len(rungs) for rungs, _ in ladders
        )
        assert counters.get("optimizer.fallbacks", 0) == 0

    def test_top_down_pruned_sweep_matches_full_program(self, ladders):
        from repro.runtime import MetricsRegistry

        options, ladders = ladders
        metrics = MetricsRegistry()
        for rungs, references in ladders:
            sweep = ContinuousOptimizer(options, metrics=metrics).sweep(
                rungs[0], [rung.power_budget for rung in rungs]
            )
            for swept, reference in zip(sweep, references):
                assert swept.solver == "slsqp-reduced"
                self._assert_within_gap(swept, reference, "sweep")
        assert metrics.snapshot()["counters"].get("optimizer.fallbacks", 0) == 0

    def test_pruned_swing_search_matches_unpruned(self, ladders):
        from repro.core import SwingSearchOptions, solve_swing

        options, ladders = ladders
        for rungs, _ in ladders:
            for rung in rungs:
                pruned = solve_swing(
                    rung, SwingSearchOptions(seed=options.seed, reduce=True)
                )
                unpruned = solve_swing(
                    rung, SwingSearchOptions(seed=options.seed, reduce=False)
                )
                self._assert_within_gap(pruned, unpruned, "swing search")


class _EveryRowSupport(_Support):
    """A ``_Support`` that sends one Eq. 6 row per active TX."""

    def __init__(self, problem, options, plan):
        super().__init__(problem, options, plan)
        starts = self.segment_starts
        jacobian = np.zeros((self.num_active, self.num_pairs))
        jacobian[self.local_tx, np.arange(self.num_pairs)] = -1.0
        self.constraints = self.constraints[:1] + [
            {
                "type": "ineq",
                "fun": lambda x: 1.0 - np.add.reduceat(x, starts),
                "jac": lambda x: jacobian,
            }
        ]


class TestSwingRowPruning:
    """Eq. 6 rows reach SLSQP only for TXs owning two or more variables.

    For a TX with one variable, Eq. 6 is its box bound ``x <= 1``, so
    the solver drops that row.  The slow reference sends every active
    TX's row -- the per-TX segment-indicator constraint built from
    ``support.segment_starts`` -- after the power row.  The feasible set
    is the same, so ten placements of seed 3's Fig. 6 draw swept over
    the coarse Fig. 9 rungs, cold, must land within 1e-9 relative
    utility of the reference, with the serving options
    (``restarts=0``) and with two restarts.

    Wall time: about 15 s on a 2-vCPU x86 box.
    """

    RELATIVE_TOLERANCE = 1e-9
    PLACEMENTS = 10
    _assert_feasible = staticmethod(_assert_feasible)

    @staticmethod
    def _swing_rows(support):
        """The Eq. 6 Jacobian sent to SLSQP (no rows: shape (0, P))."""
        x = np.full(support.num_pairs, 0.1)
        rows = [
            np.atleast_2d(constraint["jac"](x))
            for constraint in support.constraints[1:]
        ]
        return np.vstack(rows) if rows else np.zeros((0, support.num_pairs))

    @pytest.mark.parametrize("restarts", [0, 2])
    def test_matches_every_row_reference(self, monkeypatch, restarts):
        from repro.channel import channel_matrix
        from repro.core import optimizer
        from repro.experiments.config import default_config
        from repro.experiments.scenarios import fig6_instances
        from repro.runtime import MetricsRegistry

        cfg = default_config()
        options = OptimizerOptions(
            restarts=restarts, seed=cfg.seed, reduce=True
        )
        metrics = MetricsRegistry()
        for placement in fig6_instances(instances=self.PLACEMENTS, seed=3):
            scene = cfg.simulation_scene_at(
                tuple((float(x), float(y)) for x, y in placement)
            )
            channel = channel_matrix(scene)
            for budget in cfg.coarse_budgets(12):
                problem = AllocationProblem(
                    channel=channel,
                    power_budget=budget,
                    led=cfg.led,
                    photodiode=cfg.photodiode,
                    noise=cfg.noise,
                )
                pruned = ContinuousOptimizer(options, metrics=metrics).solve(
                    problem
                )
                with monkeypatch.context() as patch:
                    patch.setattr(optimizer, "_Support", _EveryRowSupport)
                    reference = solve_optimal(problem, options)
                self._assert_feasible(pruned)
                gap = abs(pruned.utility - reference.utility) / abs(
                    reference.utility
                )
                assert gap <= self.RELATIVE_TOLERANCE, (
                    f"budget {budget:.3f} W: utility {gap:.2e} from the "
                    "every-row reference"
                )
        assert metrics.snapshot()["counters"].get("optimizer.fallbacks", 0) == 0

    def test_one_pair_per_tx_sends_only_the_power_row(self, fig7_problem):
        num_tx = fig7_problem.num_transmitters
        plan = ReductionPlan(
            tx_indices=np.arange(num_tx),
            rx_indices=np.arange(num_tx) % fig7_problem.num_receivers,
            active_txs=np.arange(num_tx),
            num_transmitters=num_tx,
            num_receivers=fig7_problem.num_receivers,
        )
        support = _Support(fig7_problem, OptimizerOptions(), plan)
        assert len(support.constraints) == 1
        assert self._swing_rows(support).shape == (0, num_tx)

    def test_full_program_keeps_every_row(self, fig7_problem):
        num_tx = fig7_problem.num_transmitters
        num_rx = fig7_problem.num_receivers
        assert num_rx == 4
        support = _Support(fig7_problem, OptimizerOptions(), None)
        rows = self._swing_rows(support)
        assert rows.shape == (num_tx, num_tx * num_rx)
        expected = -np.kron(np.eye(num_tx), np.ones(num_rx))
        assert np.array_equal(rows, expected)

    def test_coverage_pair_keeps_only_its_tx_row(self, fig7_problem):
        num_tx = fig7_problem.num_transmitters
        num_rx = fig7_problem.num_receivers
        shared_tx = 5
        tx = np.append(np.arange(num_tx), shared_tx)
        rx = np.append(np.zeros(num_tx, dtype=int), 2)
        plan = ReductionPlan(
            tx_indices=tx,
            rx_indices=rx,
            active_txs=np.unique(tx),
            num_transmitters=num_tx,
            num_receivers=num_rx,
        )
        support = _Support(fig7_problem, OptimizerOptions(), plan)
        rows = self._swing_rows(support)
        assert rows.shape == (1, num_tx + 1)
        owned = support.tx_indices == shared_tx
        assert np.array_equal(rows[0], np.where(owned, -1.0, 0.0))
        x = np.full(support.num_pairs, 0.3)
        assert np.allclose(support.constraints[1]["fun"](x), [0.4])


def _ladder_differential(monkeypatch, seed, patch_reference, label):
    """Walk seeded ladders with and without *patch_reference* applied.

    Ten placements of the seed's Fig. 6 draw run the coarse Fig. 9 rungs
    with the serving options (``restarts=0``, ``reduce=True``): cold,
    down a warm-started ladder from the top rung and up one from the
    bottom, each rung seeded from the ladder's previous answer.  Every
    allocation must be feasible and no more than 1e-9 relative utility
    below the reference on the same rung of the same walk.
    """
    from dataclasses import replace

    def walk(problem, budgets, options, warm):
        previous = None
        for budget in budgets:
            allocation = ContinuousOptimizer(
                replace(options, warm_start=previous)
            ).solve(problem.with_budget(budget))
            if warm:
                previous = allocation.swings
            yield allocation

    budgets, problems = _fig6_problems(seed)
    options = OptimizerOptions(restarts=0, seed=0, reduce=True)
    walks = {
        "cold": (budgets, False),
        "top-down": (budgets[::-1], True),
        "bottom-up": (budgets, True),
    }
    for problem in problems:
        for walk_label, (ladder, warm) in walks.items():
            solved = list(walk(problem, ladder, options, warm))
            with monkeypatch.context() as patch:
                patch_reference(patch)
                references = list(walk(problem, ladder, options, warm))
            for allocation, reference in zip(solved, references):
                assert allocation.solver == "slsqp-reduced"
                _assert_feasible(allocation)
                loss = (reference.utility - allocation.utility) / abs(
                    reference.utility
                )
                assert loss <= 1e-9, (
                    f"{walk_label} {allocation.problem.power_budget:.3f} W: "
                    f"utility {loss:.2e} below {label}"
                )


class _XDomainSupport(_Support):
    """A ``_Support`` that solves every plan in the scaled swings ``x``."""

    allow_power_domain = False


class TestPowerDomainDifferential:
    """One-pair-per-TX plans solved in ``q = x**2`` against ``x``.

    The power domain changes the variables the descent walks and the
    starts it walks from (the heuristic's binary point and the warm
    start fitted by shedding the least useful power, or a floor in ``q``
    below one full-swing TX per RX), not the program.  The slow
    reference keeps every plan in ``x`` with today's starts
    (:class:`_XDomainSupport`), on the ladders of
    :func:`_ladder_differential`.

    Wall time: about 15 s on a 2-vCPU x86 box.
    """

    @pytest.mark.parametrize("seed", [0, 3])
    def test_never_below_the_x_domain(self, monkeypatch, seed):
        from repro.core import optimizer

        _ladder_differential(
            monkeypatch,
            seed,
            lambda patch: patch.setattr(optimizer, "_Support", _XDomainSupport),
            "the x domain",
        )


class TestNewtonDescent:
    """Projected Newton on power-domain programs against SLSQP.

    The reference forces the SLSQP descent for every power-domain
    program, from the same starts.  The Hessian is checked against
    central differences of the gradient, and the hand-off to SLSQP
    against a cap of one Newton iteration.

    Wall time: about 15 s on a 2-vCPU x86 box.
    """

    @staticmethod
    def _slsqp_only(patch):
        from repro.core import optimizer

        patch.setattr(
            optimizer.ContinuousOptimizer,
            "_newton",
            staticmethod(lambda q0, support, trajectory: (q0, 0, False)),
        )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_never_below_slsqp(self, monkeypatch, seed):
        _ladder_differential(monkeypatch, seed, self._slsqp_only, "SLSQP")

    @staticmethod
    def _power_support(problem):
        from repro.core import plan_reduction

        options = OptimizerOptions(restarts=0, reduce=True)
        support = _Support(problem, options, plan_reduction(problem))
        assert support.power_domain
        return support

    @pytest.mark.parametrize("budget", [0.2, 0.8, 1.9])
    def test_hessian_matches_central_differences(self, fig7_problem, budget):
        support = self._power_support(fig7_problem.with_budget(budget))
        utility = support.utility
        rng = np.random.default_rng(int(budget * 10))
        step = 1e-6
        for _ in range(3):
            q = rng.uniform(0.05, 0.95, size=support.num_pairs)
            _, _, phi = utility(q, curvature=True)
            hessian = utility.hessian(phi)
            numeric = np.empty_like(hessian)
            for p in range(q.size):
                shift = np.zeros_like(q)
                shift[p] = step
                numeric[:, p] = (
                    utility(q + shift)[1] - utility(q - shift)[1]
                ) / (2.0 * step)
            scale = np.abs(numeric).max()
            assert np.abs(hessian - numeric).max() <= 1e-6 * scale
            assert np.allclose(hessian, hessian.T, rtol=0.0, atol=1e-12 * scale)

    def test_capped_descent_hands_off_to_slsqp(self, monkeypatch, fig7_problem):
        from repro.core import optimizer
        from repro.runtime import MetricsRegistry

        problem = fig7_problem.with_budget(1.0)
        options = OptimizerOptions(restarts=0, reduce=True)
        reference = solve_optimal(problem, options)
        monkeypatch.setattr(optimizer, "_NEWTON_MAX_ITERATIONS", 1)
        metrics = MetricsRegistry()
        capped = solve_optimal(problem, options, metrics=metrics)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["optimizer.newton_handoffs"] >= 1
        assert "optimizer.slsqp_iterations" in snapshot["histograms"]
        assert capped.is_feasible
        assert capped.utility >= reference.utility - 1e-9 * abs(
            reference.utility
        )
