"""Tests for the solver acceleration layer.

Covers :mod:`repro.core.reduction` (SJR-guided variable pruning),
the reduced/fallback paths of :class:`repro.core.ContinuousOptimizer`,
warm-started solves, and the incremental channel maintenance in
:func:`repro.channel.channel_matrix_update` and the serving layer.
"""

import numpy as np
import pytest

from repro.channel import channel_matrix, channel_matrix_update
from repro.core import (
    AllocationProblem,
    ContinuousOptimizer,
    OptimizerOptions,
    RankingHeuristic,
    ReductionPlan,
    plan_reduction,
    solve_optimal,
)
from repro.errors import ChannelError, GeometryError, OptimizationError
from repro.runtime import (
    AllocationRequest,
    AllocationService,
    MetricsRegistry,
    ServiceOptions,
)
from repro.system import simulation_scene


@pytest.fixture(scope="module")
def small_problem(fig7_channel, led, photodiode, noise):
    """A 12-TX subproblem: fast enough for full-vs-reduced comparisons."""
    return AllocationProblem(
        channel=fig7_channel[:12],
        power_budget=0.3,
        led=led,
        photodiode=photodiode,
        noise=noise,
    )


class TestReductionPlan:
    def test_round_trip_expand_restrict(self):
        plan = ReductionPlan(
            tx_indices=np.array([4, 0, 2]),
            rx_indices=np.array([1, 0, 1]),
            active_txs=np.array([0, 2, 4]),
            num_transmitters=6,
            num_receivers=2,
        )
        reduced = np.array([1.0, 2.0, 3.0])
        full = plan.expand(reduced)
        assert full.shape == (6, 2)
        # __post_init__ sorts pairs TX-major: (0,0), (2,1), (4,1).
        assert plan.pairs == [(0, 0), (2, 1), (4, 1)]
        assert np.allclose(plan.restrict(full), reduced)
        # Off-support entries are structurally zero.
        assert float(np.abs(full).sum()) == pytest.approx(6.0)

    def test_covers_receiver(self):
        plan = ReductionPlan(
            tx_indices=np.array([0, 1]),
            rx_indices=np.array([0, 0]),
            active_txs=np.array([0, 1]),
            num_transmitters=2,
            num_receivers=2,
        )
        assert plan.covers_receiver(0)
        assert not plan.covers_receiver(1)

    def test_duplicate_pairs_raise(self):
        with pytest.raises(OptimizationError):
            ReductionPlan(
                tx_indices=np.array([1, 1]),
                rx_indices=np.array([0, 0]),
                active_txs=np.array([1]),
                num_transmitters=2,
                num_receivers=1,
            )

    def test_out_of_range_raises(self):
        with pytest.raises(OptimizationError):
            ReductionPlan(
                tx_indices=np.array([5]),
                rx_indices=np.array([0]),
                active_txs=np.array([5]),
                num_transmitters=2,
                num_receivers=1,
            )

    def test_wrong_size_expand_raises(self):
        plan = ReductionPlan(
            tx_indices=np.array([0]),
            rx_indices=np.array([0]),
            active_txs=np.array([0]),
            num_transmitters=1,
            num_receivers=1,
        )
        with pytest.raises(OptimizationError):
            plan.expand(np.zeros(3))


class TestPlanReduction:
    def test_prunes_at_low_budget(self, fig7_problem):
        low = fig7_problem.with_budget(0.3)
        plan = plan_reduction(low)
        assert plan is not None
        assert plan.num_pairs < low.num_transmitters * low.num_receivers
        assert plan.num_active < low.num_transmitters

    def test_covers_every_reachable_receiver(self, fig7_problem):
        plan = plan_reduction(fig7_problem.with_budget(0.1))
        assert plan is not None
        for rx in range(fig7_problem.num_receivers):
            if np.any(fig7_problem.channel[:, rx] > 0.0):
                assert plan.covers_receiver(rx)

    def test_budget_affording_every_tx_keeps_one_pair_per_tx(
        self, fig7_problem
    ):
        from repro.core import rank_transmitters

        # A huge budget affords every TX, yet each keeps only its ranked
        # RX: Insight 1's one-user-per-LED structure, not all N*M pairs.
        rich = fig7_problem.with_budget(1e6)
        plan = plan_reduction(rich)
        assert plan is not None
        num_tx, num_rx = rich.num_transmitters, rich.num_receivers
        assert plan.num_pairs <= num_tx + num_rx < num_tx * num_rx
        assert plan.num_active == num_tx
        assert set(rank_transmitters(rich.channel)) <= set(plan.pairs)

    def test_none_when_plan_covers_every_pair(self, fig7_problem):
        # With one receiver every TX's ranked pair is the whole program.
        single = AllocationProblem(
            channel=fig7_problem.channel[:, :1],
            power_budget=1e6,
            led=fig7_problem.led,
            photodiode=fig7_problem.photodiode,
            noise=fig7_problem.noise,
        )
        assert plan_reduction(single) is None

    def test_pairs_follow_sjr_prefix(self, fig7_problem):
        from repro.core import rank_transmitters

        low = fig7_problem.with_budget(0.3)
        plan = plan_reduction(low)
        ranked = rank_transmitters(low.channel)
        prefix = set(ranked[: plan.num_pairs])
        # Every prefix pair survives (coverage only ever adds pairs).
        kept = set(plan.pairs)
        assert set(ranked[: len(kept) - fig7_problem.num_receivers]) <= kept

    def test_invalid_margin_raises(self, fig7_problem):
        with pytest.raises(OptimizationError):
            plan_reduction(fig7_problem, margin=-0.1)
        with pytest.raises(OptimizationError):
            plan_reduction(fig7_problem, min_extra=-1)


class TestReducedSolve:
    def test_round_trip_matches_full_solve(self, fig7_problem):
        # The paper's 36x4 setup at 1.2 W: Insight 1 holds here, so the
        # pruned program contains the full optimum's support and the
        # round trip loses < 1% utility (it typically matches exactly).
        full = solve_optimal(fig7_problem, OptimizerOptions(restarts=0))
        reduced = solve_optimal(
            fig7_problem, OptimizerOptions(restarts=0, reduce=True)
        )
        assert reduced.is_feasible
        assert reduced.solver == "slsqp-reduced"
        assert reduced.utility >= full.utility - 0.01 * abs(full.utility)

    def test_reduced_solution_stays_on_support(self, small_problem):
        plan = plan_reduction(small_problem)
        allocation = solve_optimal(
            small_problem, OptimizerOptions(restarts=0, reduce=True)
        )
        support = np.zeros_like(allocation.swings, dtype=bool)
        support[plan.tx_indices, plan.rx_indices] = True
        assert np.all(allocation.swings[~support] == 0.0)

    def test_reduce_off_keeps_full_solver_label(self, small_problem):
        allocation = solve_optimal(small_problem, OptimizerOptions(restarts=0))
        assert allocation.solver == "slsqp"

    def test_metrics_record_stages(self, small_problem):
        metrics = MetricsRegistry()
        solve_optimal(
            small_problem,
            OptimizerOptions(restarts=0, reduce=True),
            metrics=metrics,
        )
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["optimizer.reduced_solves"] == 1
        assert 'stage.self_seconds{stage="prune"}' in snapshot["histograms"]
        assert (
            'stage.self_seconds{stage="reduced_solve"}' in snapshot["histograms"]
        )
        assert snapshot["gauges"]["optimizer.reduced_variables"] > 0

    def test_fallback_triggers_when_utility_check_fails(self, small_problem):
        # An unattainable utility requirement (negative slack demands the
        # reduced optimum beat the heuristic by 1e9) forces the guard to
        # reject the reduced solve and rerun the full program.
        metrics = MetricsRegistry()
        allocation = solve_optimal(
            small_problem,
            OptimizerOptions(
                restarts=0, reduce=True, reduction_utility_slack=-1e9
            ),
            metrics=metrics,
        )
        assert allocation.solver == "slsqp"
        assert allocation.is_feasible
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["optimizer.fallbacks"] == 1
        assert 'stage.self_seconds{stage="full_solve"}' in snapshot["histograms"]

    def test_fallback_result_matches_plain_full_solve(self, small_problem):
        forced = solve_optimal(
            small_problem,
            OptimizerOptions(
                restarts=0, reduce=True, reduction_utility_slack=-1e9
            ),
        )
        plain = solve_optimal(small_problem, OptimizerOptions(restarts=0))
        assert np.array_equal(forced.swings, plain.swings)


class TestWarmStart:
    def test_warm_start_validation(self, small_problem):
        with pytest.raises(OptimizationError):
            OptimizerOptions(warm_start=np.zeros(5))
        options = OptimizerOptions(restarts=0, warm_start=np.zeros((3, 2)))
        with pytest.raises(OptimizationError):
            ContinuousOptimizer(options).solve(small_problem)

    def test_warm_start_is_deterministic(self, small_problem):
        seed = solve_optimal(small_problem, OptimizerOptions(restarts=0))
        options = OptimizerOptions(restarts=0, warm_start=seed.swings)
        first = ContinuousOptimizer(options).solve(small_problem)
        second = ContinuousOptimizer(options).solve(small_problem)
        assert np.array_equal(first.swings, second.swings)

    def test_warm_started_solve_keeps_utility(self, small_problem):
        cold = solve_optimal(small_problem, OptimizerOptions(restarts=0))
        warm = solve_optimal(
            small_problem,
            OptimizerOptions(restarts=0, warm_start=cold.swings),
        )
        assert warm.is_feasible
        assert warm.utility >= cold.utility - 1e-6

    def test_dominated_warm_start_keeps_anchor(self, small_problem):
        # An all-zero warm start is worse than the heuristic anchor; the
        # anchor still runs, so a bad hint cannot pin the solver to a
        # poor basin.
        warm = ContinuousOptimizer(
            OptimizerOptions(
                restarts=0, warm_start=np.zeros_like(small_problem.channel)
            )
        ).solve(small_problem)
        cold = solve_optimal(small_problem, OptimizerOptions(restarts=0))
        assert warm.utility >= cold.utility

    def test_sweep_warm_starts_between_budgets(self, small_problem):
        optimizer = ContinuousOptimizer(OptimizerOptions(restarts=0))
        allocations = optimizer.sweep(small_problem, [0.1, 0.2, 0.3])
        assert [a.problem.power_budget for a in allocations] == [0.1, 0.2, 0.3]
        utilities = [a.utility for a in allocations]
        assert utilities == sorted(utilities)


class TestIncrementalChannel:
    def test_matches_full_rebuild_to_1e12(self, fig7_scene):
        base = channel_matrix(fig7_scene)
        new_positions = [(1.1, 0.9), (2.0, 2.1)]
        moved = [0, 2]
        updated = channel_matrix_update(fig7_scene, base, new_positions, moved)
        positions = [
            (rx.position[0], rx.position[1]) for rx in fig7_scene.receivers
        ]
        for slot, xy in zip(moved, new_positions):
            positions[slot] = xy
        rebuilt = channel_matrix(fig7_scene.with_receivers_at(positions))
        assert float(np.max(np.abs(updated - rebuilt))) <= 1e-12

    def test_seeded_movers_match_full_rebuild_bitwise(self):
        """Seeded Fig. 6 placements, every mover count 1..M, bit-identical."""
        from repro.experiments.config import default_config
        from repro.experiments.scenarios import fig6_instances

        cfg = default_config()
        rng = np.random.default_rng(11)
        draw = fig6_instances(instances=12, seed=5)
        cases = 0
        for placement, target in zip(draw[:-1], draw[1:]):
            positions = [(float(x), float(y)) for x, y in placement]
            scene = cfg.simulation_scene_at(tuple(positions))
            base = channel_matrix(scene)
            num_rx = len(positions)
            for count in range(1, num_rx + 1):
                moved = sorted(
                    int(k) for k in rng.choice(num_rx, count, replace=False)
                )
                new_positions = [
                    (float(x), float(y))
                    for x, y in target[rng.permutation(num_rx)[:count]]
                ]
                updated = channel_matrix_update(
                    scene, base, new_positions, moved
                )
                rebuilt_positions = list(positions)
                for slot, xy in zip(moved, new_positions):
                    rebuilt_positions[slot] = xy
                rebuilt = channel_matrix(
                    cfg.simulation_scene_at(tuple(rebuilt_positions))
                )
                assert np.array_equal(updated, rebuilt), (
                    f"movers {moved} of {positions}"
                )
                cases += 1
        assert cases == 11 * 4

    def test_untouched_columns_are_shared_bitwise(self, fig7_scene):
        base = channel_matrix(fig7_scene)
        updated = channel_matrix_update(fig7_scene, base, [(1.5, 1.5)], [1])
        kept = [0, 2, 3]
        assert np.array_equal(updated[:, kept], base[:, kept])
        assert updated is not base

    def test_validation_errors(self, fig7_scene):
        base = channel_matrix(fig7_scene)
        with pytest.raises(ChannelError):
            channel_matrix_update(fig7_scene, base[:, :2], [(1.0, 1.0)], [0])
        with pytest.raises(ChannelError):
            channel_matrix_update(fig7_scene, base, [(1.0, 1.0)] * 2, [0, 0])
        with pytest.raises(GeometryError):
            channel_matrix_update(fig7_scene, base, [(1.0, 1.0)], [99])
        with pytest.raises(ChannelError):
            channel_matrix_update(fig7_scene, base, [(1.0, 1.0, 1.0)], [0])


class TestServiceAcceleration:
    @staticmethod
    def _service(**overrides):
        scene = simulation_scene([(1.0, 1.0), (2.0, 2.0)])
        options = ServiceOptions(**overrides)
        return AllocationService(scene, options=options)

    def test_incremental_channel_path_used(self):
        service = self._service()
        base = ((1.0, 1.0), (2.0, 2.0))
        service.handle(AllocationRequest(base, power_budget=0.5))
        # One receiver moves: the second placement's matrix should come
        # from the incremental path, not a full broadcast.
        moved = ((1.0, 1.0), (2.2, 2.0))
        service.handle(AllocationRequest(moved, power_budget=0.5))
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["service.channel_incremental"] == 1

    def test_incremental_matches_batched_channel(self):
        warm = self._service()
        cold = self._service(incremental_channel=False)
        requests = [
            AllocationRequest(((1.0, 1.0), (2.0, 2.0)), power_budget=0.5),
            AllocationRequest(((1.3, 1.0), (2.0, 2.0)), power_budget=0.5),
            AllocationRequest(((1.3, 1.0), (2.0, 2.4)), power_budget=0.5),
        ]
        for a, b in zip(
            [warm.handle(r) for r in requests],
            [cold.handle(r) for r in requests],
        ):
            assert np.array_equal(a.swings, b.swings)
            assert np.allclose(
                a.per_rx_throughput, b.per_rx_throughput, rtol=0, atol=1e-9
            )

    def test_solver_stage_metrics_reach_snapshot(self):
        service = self._service()
        service.handle(
            AllocationRequest(
                ((1.0, 1.0), (2.0, 2.0)), power_budget=0.5, solver="optimal"
            )
        )
        snapshot = service.metrics_snapshot()
        histogram_names = set(snapshot["histograms"])
        assert any(name.startswith("optimizer.") for name in histogram_names)
        assert snapshot["counters"].get("optimizer.reduced_solves", 0) >= 1

    def test_same_fingerprint_identical_allocation(self):
        service = self._service()
        request = AllocationRequest(
            ((1.0, 1.0), (2.0, 2.0)), power_budget=0.5, solver="optimal"
        )
        first = service.handle(request)
        second = service.handle(request)
        assert second.allocation_cached
        assert np.array_equal(first.swings, second.swings)
