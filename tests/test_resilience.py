"""Unit tests for the runtime fault-tolerance layer (repro.runtime.resilience).

Covers the primitives in isolation -- deadlines, the degradation chain,
the fault plan's determinism -- plus the pool-level behaviors built
from them (bounded hung solves, degradation on timeout) and the solver
deadline checkpoints (no effect on a solve that meets its deadline, a
bounded overrun on one that does not).  End-to-end chaos scenarios
through ``AllocationService.handle_batch`` live in
``tests/test_fault_injection.py``.
"""

import threading
import time

import numpy as np
import pytest

from repro.channel import channel_matrix_stack
from repro.core import AllocationProblem
from repro.errors import ConfigurationError, DeadlineExceeded
from repro.experiments.scenarios import fig6_instances
from repro.runtime import (
    DEGRADATION_CHAIN,
    SOLVERS,
    AllocationRequest,
    AllocationService,
    Deadline,
    FaultPlan,
    MetricsRegistry,
    SolverPool,
    SolveTask,
    Tracer,
    TracingOptions,
    degradation_fallbacks,
    stage,
)
from repro.system import simulation_scene


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------


class TestDeadline:
    def test_unbounded_by_default(self):
        deadline = Deadline()
        assert not deadline.bounded
        assert not deadline.expired
        assert deadline.remaining() == float("inf")
        assert deadline.cap(1.5) == 1.5
        assert deadline.cap(None) is None
        deadline.require()  # no-op

    def test_after_counts_down(self):
        deadline = Deadline.after(60.0)
        assert deadline.bounded
        assert 0.0 < deadline.remaining() <= 60.0
        assert deadline.cap(120.0) <= 60.0
        assert deadline.cap(0.001) == 0.001

    def test_expiry_raises(self):
        deadline = Deadline(expires_at=time.monotonic() - 1.0)
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded):
            deadline.require("test solve")

    def test_none_means_unbounded(self):
        assert not Deadline.after(None).bounded

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            Deadline.after(0.0)
        with pytest.raises(ConfigurationError):
            Deadline.after(-1.0)

    def test_non_finite_budget_rejected(self):
        # Pre-fix, `nan <= 0` is False so Deadline.after(nan) built a
        # deadline that never expires but reports a NaN remaining().
        with pytest.raises(ConfigurationError):
            Deadline.after(float("nan"))
        with pytest.raises(ConfigurationError):
            Deadline.after(float("inf"))

    def test_nan_expires_at_rejected(self):
        with pytest.raises(ConfigurationError):
            Deadline(expires_at=float("nan"))

    def test_boundary_semantics_at_exact_expiry(self):
        # At the expiry instant the deadline is expired AND remaining()
        # is exactly zero -- both derived from one clock read.
        now = [0.0]
        deadline = Deadline(expires_at=10.0, clock=lambda: now[0])
        now[0] = 9.0
        assert not deadline.expired
        assert deadline.remaining() == pytest.approx(1.0)
        now[0] = 10.0
        assert deadline.expired
        assert deadline.remaining() == 0.0
        now[0] = 11.0
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_expired_iff_remaining_zero(self):
        for offset in (-1.0, -1e-9, 0.0, 1e-9, 1.0):
            now = [5.0]
            deadline = Deadline(expires_at=5.0 + offset, clock=lambda: now[0])
            assert deadline.expired == (deadline.remaining() == 0.0)

    def test_after_uses_injected_clock(self):
        now = [50.0]
        deadline = Deadline.after(2.0, clock=lambda: now[0])
        assert deadline.remaining() == pytest.approx(2.0)
        now[0] = 52.0
        assert deadline.expired
        with pytest.raises(DeadlineExceeded):
            deadline.require("boundary solve")


# ----------------------------------------------------------------------
# Degradation chain
# ----------------------------------------------------------------------


class TestDegradationChain:
    def test_chain_order(self):
        assert DEGRADATION_CHAIN == ("optimal", "swing", "heuristic")
        assert set(SOLVERS) == {"heuristic", "greedy", "optimal", "swing"}

    def test_fallbacks_walk_down(self):
        assert degradation_fallbacks("optimal") == ("swing", "heuristic")
        assert degradation_fallbacks("swing") == ("heuristic",)
        assert degradation_fallbacks("greedy") == ("heuristic",)
        assert degradation_fallbacks("heuristic") == ()

    def test_timeout_skips_slsqp(self):
        # No fallback re-runs SLSQP: after a timed-out or failed optimal
        # solve the chain only offers the millisecond-scale tiers.
        for solver in SOLVERS:
            assert "optimal" not in degradation_fallbacks(solver)

    def test_unknown_solver_falls_to_heuristic(self):
        assert degradation_fallbacks("custom") == ("heuristic",)


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        a = FaultPlan(seed=3, slow_solve_probability=0.5, slow_solve_seconds=0.0)
        b = FaultPlan(seed=3, slow_solve_probability=0.5, slow_solve_seconds=0.0)
        outcomes_a = [a.maybe_slow_solve(k) > 0 or False for k in range(20)]
        # maybe_slow_solve returns seconds slept; with 0.0s stalls use
        # the internal roll instead for a clean boolean comparison.
        rolls_a = [a._fires("slow", k, 0, 0.5) for k in range(20)]
        rolls_b = [b._fires("slow", k, 0, 0.5) for k in range(20)]
        assert rolls_a == rolls_b
        assert any(rolls_a) and not all(rolls_a)
        assert outcomes_a.count(True) == 0  # 0-second stall sleeps nothing

    def test_faults_clear_after_fault_attempts(self):
        plan = FaultPlan(seed=0, slow_solve_probability=1.0, fault_attempts=1)
        assert plan._fires("slow", "k", 0, 1.0)
        assert not plan._fires("slow", "k", 1, 1.0)

    def test_corrupt_channel_injects_nan(self):
        plan = FaultPlan(seed=0, corrupt_channel_probability=1.0)
        matrix = np.ones((6, 2))
        corrupted = plan.maybe_corrupt_channel(matrix, "k", 0)
        assert corrupted is not matrix
        assert np.isnan(corrupted).sum() == 1
        assert np.isfinite(matrix).all()  # the original is untouched
        again = plan.maybe_corrupt_channel(matrix, "k", 0)
        np.testing.assert_array_equal(corrupted, again)

    def test_corruption_respects_attempts(self):
        plan = FaultPlan(seed=0, corrupt_channel_probability=1.0, fault_attempts=1)
        matrix = np.ones((4, 2))
        assert plan.maybe_corrupt_channel(matrix, "k", 1) is matrix

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(slow_solve_probability=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(slow_solve_seconds=-1.0)


# ----------------------------------------------------------------------
# Pool-level resilience behavior
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_tasks():
    placements = fig6_instances(instances=2, seed=5)
    scene = simulation_scene([(float(x), float(y)) for x, y in placements[0]])
    stack = channel_matrix_stack(scene, placements)
    return [
        SolveTask(channel=stack[t], power_budget=1.2, solver="greedy", fault_key=t)
        for t in range(len(placements))
    ]


class TestPoolResilience:
    def test_hung_heuristic_raises_within_its_deadline(self, small_tasks):
        """A hung solve never blocks the batch past its deadline.

        Every attempt stalls far longer than the deadline and the
        heuristic has nothing to fall back to, so the pool must fail
        explicitly, once the budget is spent, instead of hanging.
        """
        plan = FaultPlan(
            seed=0,
            slow_solve_probability=1.0,
            slow_solve_seconds=30.0,
            fault_attempts=3,
        )
        tasks = [
            SolveTask(
                channel=t.channel,
                power_budget=t.power_budget,
                solver="heuristic",
                deadline=time.monotonic() + 0.1,
                faults=plan,
                fault_key=i,
            )
            for i, t in enumerate(small_tasks)
        ]
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            SolverPool().solve_many(tasks)
        assert time.monotonic() - start < 1.0

    def test_hung_solve_degrades(self, small_tasks):
        plan = FaultPlan(
            seed=0, slow_solve_probability=1.0, slow_solve_seconds=30.0
        )
        tasks = [
            SolveTask(
                channel=t.channel,
                power_budget=t.power_budget,
                solver="greedy",
                deadline=time.monotonic() + 0.1,
                faults=plan,
                fault_key=i,
            )
            for i, t in enumerate(small_tasks)
        ]
        metrics = MetricsRegistry()
        start = time.monotonic()
        outcomes = SolverPool(metrics).solve_outcomes(tasks)
        assert time.monotonic() - start < 1.0
        assert len(outcomes) == len(tasks)
        for outcome in outcomes:
            assert outcome.degraded
            assert outcome.deadline_exceeded
            assert outcome.requested_solver == "greedy"
            assert outcome.solver == "heuristic"
            assert outcome.swings.shape == tasks[0].channel.shape
        counters = metrics.snapshot()["counters"]
        assert counters["resilience.degraded_solves"] == len(tasks)
        assert counters["resilience.deadline_expirations"] == len(tasks)

    def test_expired_deadline_still_returns_heuristic(self, small_tasks):
        task = SolveTask(
            channel=small_tasks[0].channel,
            power_budget=1.2,
            solver="optimal",
            deadline=time.monotonic() - 1.0,
        )
        outcome = SolverPool().solve_outcomes([task])[0]
        assert outcome.degraded
        assert outcome.deadline_exceeded
        assert outcome.solver == "heuristic"


class TestStarvingDegradation:
    """Degradations that leave a reachable RX unserved are counted.

    SLSQP fails on one Fig. 6 placement, so ``swing`` answers.  On the
    lowest Fig. 9 rung (0.0541 W) the budget affords one full-swing TX,
    so swing lights one of the four RXs; at 0.8 W it affords 14 and
    serves all four.
    """

    @pytest.fixture
    def failing_optimal(self, monkeypatch):
        from repro.errors import OptimizationError
        from repro.runtime import pool

        def fail(task, metrics=None):
            raise OptimizationError("injected non-convergence")

        monkeypatch.setitem(pool.SOLVERS, "optimal", fail)

    @pytest.mark.parametrize("rung, starving", [("lowest", 1), (0.8, 0)])
    def test_counter_moves_only_when_a_receiver_starves(
        self, fig6_channels, failing_optimal, rung, starving
    ):
        from repro.experiments.config import default_config

        scene, _, stack = fig6_channels
        lowest = default_config().coarse_budgets(12)[0]
        budget = lowest if rung == "lowest" else rung
        task = SolveTask(
            channel=stack[0],
            power_budget=budget,
            solver="optimal",
            led=scene.led,
            photodiode=scene.receivers[0].photodiode,
        )
        metrics = MetricsRegistry()
        outcome = SolverPool(metrics).solve_outcomes([task])[0]
        assert outcome.degraded
        assert outcome.solver == "swing"
        assert np.all(stack[0].any(axis=0))
        served = int(np.count_nonzero(outcome.swings.any(axis=0)))
        assert served == (1 if starving else 4)
        counters = metrics.snapshot()["counters"]
        key = 'pool.degraded_starving{fallback="swing",requested="optimal"}'
        assert counters.get(key, 0) == starving


# ----------------------------------------------------------------------
# Solver deadline checkpoints
# ----------------------------------------------------------------------

#: The Fig. 9 budget ladder [W] the checkpoint sweeps walk.
BUDGETS = (0.6, 1.2, 2.4, 4.8)


@pytest.fixture(scope="module")
def fig6_channels():
    placements = fig6_instances(instances=6, seed=11)
    scene = simulation_scene([(float(x), float(y)) for x, y in placements[0]])
    return scene, placements, channel_matrix_stack(scene, placements)


class TestDeadlineCheckpoints:
    """Checkpoints leave solves that meet their deadline untouched."""

    @pytest.mark.parametrize(
        "solver, placements",
        [("heuristic", 6), ("greedy", 4), ("swing", 6), ("optimal", 2)],
    )
    def test_far_deadline_is_bit_identical(self, fig6_channels, solver, placements):
        _, _, stack = fig6_channels
        pool = SolverPool()
        for channel in stack[:placements]:
            for budget in BUDGETS:
                plain = SolveTask(channel=channel, power_budget=budget, solver=solver)
                bounded = SolveTask(
                    channel=channel,
                    power_budget=budget,
                    solver=solver,
                    deadline=time.monotonic() + 3600.0,
                )
                [expect, got] = pool.solve_outcomes([plain, bounded])
                assert not got.degraded and not got.deadline_exceeded
                np.testing.assert_array_equal(got.swings, expect.swings)

    def test_optimal_request_expiry_is_bounded(self, fig6_channels):
        scene, placements, _ = fig6_channels
        service = AllocationService(scene)
        # The first solve starts about 0.5 ms in and a 2.4 W `optimal`
        # solve takes over a millisecond, so every request expires
        # inside its solve or before it starts.
        deadline = 0.001
        requests = [
            AllocationRequest(
                rx_positions_xy=tuple((float(x), float(y)) for x, y in xy),
                power_budget=2.4,
                solver="optimal",
                deadline_seconds=deadline,
            )
            for xy in placements[:3]
        ]
        threads = threading.active_count()
        start = time.monotonic()
        results = service.handle_batch(requests)
        elapsed = time.monotonic() - start
        assert threading.active_count() == threads
        assert elapsed < deadline + 0.2
        channels = channel_matrix_stack(scene, placements[:3])
        for channel, result in zip(channels, results):
            assert result.degraded
            assert result.deadline_exceeded
            assert result.solver_used == "heuristic"
            problem = AllocationProblem(
                channel=channel,
                power_budget=2.4,
                led=scene.led,
                photodiode=scene.receivers[0].photodiode,
                noise=service.noise,
            )
            assert problem.is_feasible(result.swings)

    def test_timed_out_solve_span_is_flagged(self, fig6_channels):
        _, _, stack = fig6_channels
        task = SolveTask(
            channel=stack[0],
            power_budget=2.4,
            solver="optimal",
            # Far below the ~230 ms the full 144-variable program needs,
            # so SLSQP's own checkpoint (not the pre-solve expiry check)
            # stops it.  The pruned program would finish inside 50 ms.
            reduce=False,
            deadline=time.monotonic() + 0.05,
        )
        tracer = Tracer(TracingOptions(seed=0))
        root = tracer.start_trace("request")
        with stage("allocation", parents=[root], tracer=tracer):
            outcome = SolverPool().solve_outcomes([task])[0]
        assert outcome.deadline_exceeded
        solves = [
            span for span in tracer.finished_spans() if span.name == "solve"
        ]
        assert [span.attributes["solver"] for span in solves] == [
            "optimal",
            "heuristic",
        ]
        assert solves[0].attributes["timed_out"] is True
        assert "timed_out" not in solves[1].attributes
