"""Unit tests for the runtime fault-tolerance layer (repro.runtime.resilience).

Covers the primitives in isolation -- deadlines, the degradation chain,
the fault plan's determinism -- plus the pool-level behaviors built
from them (bounded hung solves, degradation on timeout).  End-to-end
chaos scenarios
through ``AllocationService.handle_batch`` live in
``tests/test_fault_injection.py``.
"""

import time

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    RuntimeEngineError,
)
from repro.experiments.scenarios import fig6_instances
from repro.runtime import (
    DEGRADATION_CHAIN,
    Deadline,
    FaultPlan,
    MetricsRegistry,
    PoolOptions,
    ResilienceOptions,
    ResiliencePolicy,
    SolverPool,
    SolveTask,
    channel_matrix_stack,
    degradation_fallbacks,
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

    def test_non_finite_default_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            ResilienceOptions(default_deadline_seconds=float("nan"))
        with pytest.raises(ConfigurationError):
            ResilienceOptions(default_deadline_seconds=float("inf"))
        with pytest.raises(ConfigurationError):
            ResilienceOptions(default_deadline_seconds=0.0)


# ----------------------------------------------------------------------
# Degradation chain
# ----------------------------------------------------------------------


class TestDegradationChain:
    def test_chain_order(self):
        assert DEGRADATION_CHAIN == (
            "optimal",
            "swing",
            "binary",
            "greedy",
            "heuristic",
        )

    def test_fallbacks_walk_down(self):
        assert degradation_fallbacks("optimal") == (
            "swing",
            "binary",
            "greedy",
            "heuristic",
        )
        assert degradation_fallbacks("swing") == ("binary", "greedy", "heuristic")
        assert degradation_fallbacks("greedy") == ("heuristic",)
        assert degradation_fallbacks("heuristic") == ()

    def test_timeout_skips_slsqp(self):
        # binary is a projection of the SLSQP solve that just timed out;
        # re-running it would burn the remaining budget for nothing.
        # The combinatorial swing search is not SLSQP-based, so a
        # timed-out optimal still gets a near-optimal answer first.
        assert degradation_fallbacks("optimal", timed_out=True) == (
            "swing",
            "greedy",
            "heuristic",
        )
        assert degradation_fallbacks("swing", timed_out=True) == (
            "greedy",
            "heuristic",
        )

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
    def test_hung_retry_is_bounded_without_policy(self, small_tasks):
        """A hung solve never blocks the batch forever.

        Every attempt stalls longer than the task timeout; without a
        resilience policy the pool must fail explicitly instead of
        hanging.
        """
        plan = FaultPlan(
            seed=0,
            slow_solve_probability=1.0,
            slow_solve_seconds=0.6,
            fault_attempts=3,
        )
        tasks = [
            SolveTask(
                channel=t.channel,
                power_budget=t.power_budget,
                solver="heuristic",
                deadline=time.monotonic() + 30.0,
                faults=plan,
                fault_key=i,
            )
            for i, t in enumerate(small_tasks)
        ]
        pool = SolverPool(PoolOptions(task_timeout=0.1))
        start = time.monotonic()
        with pytest.raises(RuntimeEngineError):
            pool.solve_many(tasks)
        assert time.monotonic() - start < 10.0

    def test_hung_solve_degrades_with_policy(self, small_tasks):
        plan = FaultPlan(
            seed=0, slow_solve_probability=1.0, slow_solve_seconds=0.6
        )
        tasks = [
            SolveTask(
                channel=t.channel,
                power_budget=t.power_budget,
                solver="greedy",
                deadline=time.monotonic() + 30.0,
                faults=plan,
                fault_key=i,
            )
            for i, t in enumerate(small_tasks)
        ]
        metrics = MetricsRegistry()
        policy = ResiliencePolicy(ResilienceOptions(), metrics)
        pool = SolverPool(
            PoolOptions(task_timeout=0.1), metrics, resilience=policy
        )
        outcomes = pool.solve_outcomes(tasks)
        assert len(outcomes) == len(tasks)
        for outcome in outcomes:
            assert outcome.degraded
            assert outcome.requested_solver == "greedy"
            assert outcome.solver == "heuristic"
            assert outcome.swings.shape == tasks[0].channel.shape
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["resilience.degraded_solves"] == len(tasks)

    def test_expired_deadline_still_returns_heuristic(self, small_tasks):
        task = SolveTask(
            channel=small_tasks[0].channel,
            power_budget=1.2,
            solver="optimal",
            deadline=time.monotonic() - 1.0,
        )
        policy = ResiliencePolicy(ResilienceOptions(), MetricsRegistry())
        pool = SolverPool(resilience=policy)
        outcome = pool.solve_outcomes([task])[0]
        assert outcome.degraded
        assert outcome.deadline_exceeded
        assert outcome.solver == "heuristic"

    def test_degradation_disabled_raises(self, small_tasks):
        task = SolveTask(
            channel=small_tasks[0].channel,
            power_budget=1.2,
            solver="greedy",
            deadline=time.monotonic() - 1.0,
        )
        policy = ResiliencePolicy(
            ResilienceOptions(degrade=False), MetricsRegistry()
        )
        pool = SolverPool(resilience=policy)
        with pytest.raises(DeadlineExceeded):
            pool.solve_outcomes([task])
