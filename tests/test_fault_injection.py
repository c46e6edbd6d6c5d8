"""Fault-injection tests: the system degrades gracefully, never wrongly.

Each scenario injects a failure a deployed system would meet -- a fully
shadowed receiver, an unsynchronizable beamspot member, a dead LED, a
corrupt frame stream, a pathological channel -- and checks the stack
fails *explicitly* (typed errors) or degrades *gracefully* (serves whom
it can), but never silently produces wrong results.
"""

import numpy as np
import pytest

from repro.channel import CylinderBlocker, blocked_channel_matrix
from repro.core import (
    AllocationProblem,
    RankingHeuristic,
    binary_allocation,
    problem_for_scene,
)
from repro.errors import (
    AllocationError,
    DecodingError,
    SimulationError,
    SynchronizationError,
)
from repro.mac import BeamspotScheduler, DenseVLCController
from repro.mac.scheduler import Beamspot
from repro.phy import MACFrame, TransmissionPath, VLCPhyLink
from repro.sync import NlosSynchronizer
from repro.system import experimental_scene, simulation_scene


class TestShadowedReceiver:
    """A person standing directly over a receiver kills all its links."""

    @pytest.fixture(scope="class")
    def shadowed_problem(self, led, photodiode, noise):
        scene = experimental_scene([(0.75, 0.75), (2.25, 2.25)])
        blocker = CylinderBlocker(x=0.75, y=0.75, radius=0.6, height=1.95)
        channel = blocked_channel_matrix(scene, [blocker])
        return AllocationProblem(
            channel=channel, power_budget=0.5, led=led,
            photodiode=photodiode, noise=noise,
        ), channel

    def test_rx1_fully_dark(self, shadowed_problem):
        _, channel = shadowed_problem
        assert np.all(channel[:, 0] == 0.0)

    def test_heuristic_serves_the_other_rx(self, shadowed_problem):
        problem, _ = shadowed_problem
        allocation = RankingHeuristic().solve(problem)
        assert allocation.is_feasible
        assert allocation.throughput[1] > 0.0
        assert allocation.throughput[0] == 0.0

    def test_no_power_wasted_on_the_dark_rx(self, shadowed_problem):
        problem, _ = shadowed_problem
        allocation = RankingHeuristic().solve(problem)
        # Every assigned TX should point at the visible receiver; zero-SJR
        # rows rank last, so dark-RX assignments only appear once the
        # visible RX's TXs are exhausted.
        useful = [rx for _, rx in allocation.assignments[:10]]
        assert all(rx == 1 for rx in useful)


class TestAllDarkChannel:
    def test_heuristic_on_zero_channel(self, led, photodiode, noise):
        problem = AllocationProblem(
            channel=np.zeros((6, 2)), power_budget=0.5, led=led,
            photodiode=photodiode, noise=noise,
        )
        allocation = RankingHeuristic().solve(problem)
        assert allocation.is_feasible
        assert np.all(allocation.throughput == 0.0)

    def test_utility_stays_finite(self, led, photodiode, noise):
        problem = AllocationProblem(
            channel=np.zeros((6, 2)), power_budget=0.5, led=led,
            photodiode=photodiode, noise=noise,
        )
        allocation = RankingHeuristic().solve(problem)
        assert np.isfinite(allocation.utility)


class TestUnsynchronizableBeamspot:
    def test_cross_room_follower_dropped_not_crashed(self):
        scene = experimental_scene([(0.75, 0.75)])
        scheduler = BeamspotScheduler(scene)
        # Force an absurd beamspot: TX8 leads, TX36 (across the room,
        # different board) also "assigned".
        problem = problem_for_scene(scene, power_budget=1.0)
        allocation = binary_allocation(
            problem, [(7, 0), (35, 0)], solver="fault-injection"
        )
        plans = scheduler.plan(allocation, rng=0)
        plan = plans[0]
        assert 35 in plan.unsynchronized
        assert 7 in plan.active_members

    def test_direct_sync_attempt_raises(self):
        scene = experimental_scene([(0.75, 0.75)])
        synchronizer = NlosSynchronizer(scene)
        with pytest.raises(SynchronizationError):
            synchronizer.timing_error(7, 35, rng=0)


class TestCorruptFrames:
    def test_heavily_corrupted_stream_fails_cleanly(self, rng):
        frame = MACFrame(destination=1, source=0, protocol=0, payload=b"x" * 50)
        link = VLCPhyLink(samples_per_symbol=10, noise_std=0.05)
        waveform = link.transmit(frame, [TransmissionPath(1.0)], rng=rng)
        # Chop the body: the decoder must report failure, not garbage.
        result = link.receive(waveform[:2000])
        assert not result.success
        assert result.error

    def test_wrong_length_field_detected(self):
        frame = MACFrame(destination=1, source=0, protocol=0, payload=b"y" * 20)
        data = bytearray(frame.to_bytes())
        data[1] = 0xFF  # corrupt the length field beyond the body
        data[2] = 0xFF
        with pytest.raises(DecodingError):
            MACFrame.from_bytes(bytes(data))

    def test_flipped_sfd_detected(self):
        frame = MACFrame(destination=1, source=0, protocol=0, payload=b"z" * 20)
        data = bytearray(frame.to_bytes())
        data[0] ^= 0x01
        with pytest.raises(DecodingError):
            MACFrame.from_bytes(bytes(data))


class TestControllerUnderFaults:
    def test_round_with_one_unreachable_rx(self):
        # RX2 parked at the far corner outside any beamspot budget.
        scene = experimental_scene([(1.5, 1.5), (0.05, 0.05)])
        controller = DenseVLCController(
            scene, power_budget=0.11, measurement_noise=False
        )
        result = controller.run_round(rng=0)
        # Whoever is served, the round must complete and stay feasible.
        assert result.allocation.is_feasible
        assert result.served_receivers >= 1

    def test_zero_budget_round(self):
        scene = experimental_scene([(1.5, 1.5)])
        controller = DenseVLCController(
            scene, power_budget=0.0, measurement_noise=False
        )
        result = controller.run_round(rng=0)
        assert result.served_receivers == 0
        assert result.active_transmitters == 0


class TestPathologicalAllocations:
    def test_duplicate_tx_assignment_rejected(self, fig7_problem):
        with pytest.raises(AllocationError):
            binary_allocation(fig7_problem, [(7, 0), (7, 1)], solver="bad")

    def test_over_budget_binary_allocation_detected(self, fig7_problem):
        tight = fig7_problem.with_budget(fig7_problem.full_swing_power / 2)
        allocation = binary_allocation(tight, [(7, 0)], solver="bad")
        assert not allocation.is_feasible

    def test_nan_channel_rejected_at_construction(self, led, photodiode, noise):
        channel = np.full((4, 2), np.nan)
        with pytest.raises(AllocationError):
            AllocationProblem(
                channel=channel, power_budget=1.0, led=led,
                photodiode=photodiode, noise=noise,
            )


# ----------------------------------------------------------------------
# Chaos tests: the runtime resilience layer under injected faults.
#
# Every scenario drives a seedable FaultPlan through
# AllocationService.handle_batch and asserts the contract of the
# fault-tolerance layer: every request gets a result, degradation is
# explicit (flagged, counted), request order is preserved, runs are
# deterministic, and with faults disabled the output is identical to a
# fault-free service.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def chaos_placements():
    from repro.experiments.scenarios import fig6_instances

    return fig6_instances(instances=4, seed=11)


@pytest.fixture(scope="module")
def chaos_scene(chaos_placements):
    from repro.system import simulation_scene as build_scene

    return build_scene(
        [(float(x), float(y)) for x, y in chaos_placements[0]]
    )


def _chaos_requests(placements, indices, **kwargs):
    from repro.runtime import AllocationRequest

    power_budget = kwargs.pop("power_budget", 1.2)
    return [
        AllocationRequest(
            rx_positions_xy=tuple(
                (float(x), float(y)) for x, y in placements[i]
            ),
            power_budget=power_budget,
            tag=f"chaos-{n}",
            **kwargs,
        )
        for n, i in enumerate(indices)
    ]


def _clear_faults(service):
    # ServiceOptions is frozen; chaos tests flip the fault plan off
    # mid-run to model a fault clearing.
    object.__setattr__(service.options, "faults", None)


class TestChaosDeadlineExpiry:
    """A wedged solve blows the request deadline; the service degrades."""

    def test_expired_deadline_served_by_fallback(
        self, chaos_scene, chaos_placements
    ):
        from repro.runtime import (
            AllocationService,
            FaultPlan,
            ServiceOptions,
        )

        plan = FaultPlan(
            seed=0, slow_solve_probability=1.0, slow_solve_seconds=0.5
        )
        service = AllocationService(
            chaos_scene, options=ServiceOptions(faults=plan)
        )
        requests = _chaos_requests(
            chaos_placements, [0, 1],
            solver="greedy", deadline_seconds=0.05,
        )
        results = service.handle_batch(requests)
        assert len(results) == len(requests)
        for request, result in zip(requests, results):
            assert result.request.tag == request.tag
            assert result.degraded
            assert result.deadline_exceeded
            assert result.solver_used == "heuristic"
            assert np.isfinite(result.swings).all()
            assert result.system_throughput >= 0.0
        counters = service.health()["resilience"]
        assert counters["resilience.degraded_solves"] == 2
        assert counters["resilience.deadline_expirations"] == 2

    def test_degraded_results_never_cached(
        self, chaos_scene, chaos_placements
    ):
        from repro.core import AllocationProblem, GreedyMarginalHeuristic
        from repro.runtime import (
            AllocationService,
            FaultPlan,
            ServiceOptions,
        )

        plan = FaultPlan(
            seed=0, slow_solve_probability=1.0, slow_solve_seconds=0.5
        )
        service = AllocationService(
            chaos_scene, options=ServiceOptions(faults=plan)
        )
        [degraded] = service.handle_batch(
            _chaos_requests(
                chaos_placements, [0],
                solver="greedy", deadline_seconds=0.05,
            )
        )
        assert degraded.degraded

        _clear_faults(service)
        [healthy] = service.handle_batch(
            _chaos_requests(chaos_placements, [0], solver="greedy")
        )
        # The degraded allocation must not have been cached under the
        # (placement, budget, solver) key: the healthy retry re-solves.
        assert not healthy.allocation_cached
        assert not healthy.degraded
        assert healthy.solver_used == "greedy"
        channel = service._channel_cache.peek(healthy.fingerprint)
        direct = GreedyMarginalHeuristic().solve(
            AllocationProblem(
                channel=channel,
                power_budget=1.2,
                led=chaos_scene.led,
                photodiode=chaos_scene.receivers[0].photodiode,
                noise=service.noise,
            )
        )
        np.testing.assert_array_equal(healthy.swings, direct.swings)


class TestChaosCorruptedChannel:
    """Corrupted channel estimates are detected and recomputed."""

    def test_results_identical_to_faultless_run(
        self, chaos_scene, chaos_placements
    ):
        from repro.runtime import (
            AllocationService,
            FaultPlan,
            ServiceOptions,
        )

        requests = _chaos_requests(chaos_placements, [0, 1, 2, 3])
        reference = AllocationService(chaos_scene)
        expected = reference.handle_batch(requests)

        plan = FaultPlan(seed=3, corrupt_channel_probability=1.0)
        service = AllocationService(
            chaos_scene, options=ServiceOptions(faults=plan)
        )
        results = service.handle_batch(requests)
        for expect, result in zip(expected, results):
            np.testing.assert_array_equal(result.swings, expect.swings)
            assert not result.degraded
        counters = service.health()["resilience"]
        assert counters["resilience.channel_repairs"] == 4

    def test_unrepairable_channel_raises_typed_error(
        self, chaos_scene, chaos_placements
    ):
        from repro.errors import ChannelError
        from repro.runtime import (
            AllocationService,
            FaultPlan,
            ServiceOptions,
        )

        # fault_attempts=2: the corruption also hits the recompute, so
        # the screen must give up with a typed error, never cache NaNs.
        plan = FaultPlan(
            seed=3, corrupt_channel_probability=1.0, fault_attempts=2
        )
        service = AllocationService(
            chaos_scene, options=ServiceOptions(faults=plan)
        )
        with pytest.raises(ChannelError):
            service.handle_batch(_chaos_requests(chaos_placements, [0]))
        assert len(service._channel_cache) == 0


class TestChaosHarnessOff:
    """A zero-probability plan must be indistinguishable from no plan."""

    def test_disabled_faults_bit_identical(self, chaos_scene, chaos_placements):
        from repro.runtime import (
            AllocationService,
            FaultPlan,
            ServiceOptions,
        )

        requests = _chaos_requests(chaos_placements, [0, 1, 2, 0])
        plain = AllocationService(chaos_scene)
        armed = AllocationService(
            chaos_scene, options=ServiceOptions(faults=FaultPlan(seed=9))
        )
        for expect, result in zip(
            plain.handle_batch(requests), armed.handle_batch(requests)
        ):
            np.testing.assert_array_equal(result.swings, expect.swings)
            np.testing.assert_array_equal(
                result.per_rx_throughput, expect.per_rx_throughput
            )
            assert not result.degraded
            assert not result.deadline_exceeded
        assert armed.health()["status"] == "ok"
        assert armed.health()["resilience"] == {}


class TestChaosSwingTier:
    """The swing tier rides the degradation chain under injected faults."""

    @pytest.fixture
    def failing_optimal(self, monkeypatch):
        """Every ``optimal`` solve fails to converge."""
        from repro.errors import OptimizationError
        from repro.runtime import pool

        def fail(task, metrics=None):
            raise OptimizationError("injected non-convergence")

        monkeypatch.setitem(pool.SOLVERS, "optimal", fail)

    def test_failed_optimal_falls_to_swing(
        self, chaos_scene, chaos_placements, failing_optimal
    ):
        from repro.runtime import AllocationService

        # SLSQP failed with most of the request deadline left, so the
        # swing search -- the next chain member -- answers: the caller
        # gets a near-optimal allocation, not the heuristic floor.
        service = AllocationService(chaos_scene)
        requests = _chaos_requests(
            chaos_placements, [0, 1, 2], solver="optimal",
            deadline_seconds=30.0,
        )
        results = service.handle_batch(requests)
        assert len(results) == len(requests)
        for request, result in zip(requests, results):
            assert result.request.tag == request.tag
            assert result.degraded
            assert not result.deadline_exceeded
            assert result.solver_used == "swing"
            assert np.isfinite(result.swings).all()
            assert result.system_throughput > 0.0
        counters = service.health()["resilience"]
        assert counters["resilience.degraded_solves"] == len(requests)
        assert "resilience.deadline_expirations" not in counters

    def test_swing_fallback_is_deterministic(
        self, chaos_scene, chaos_placements, failing_optimal
    ):
        from repro.runtime import AllocationService

        requests = _chaos_requests(
            chaos_placements, [0, 1], solver="optimal", deadline_seconds=30.0
        )
        runs = [
            AllocationService(chaos_scene).handle_batch(requests)
            for _ in range(2)
        ]
        for first, second in zip(*runs):
            np.testing.assert_array_equal(first.swings, second.swings)
            assert first.solver_used == second.solver_used == "swing"

    def test_swing_request_degrades_past_expired_deadline(
        self, chaos_scene, chaos_placements
    ):
        from repro.runtime import AllocationService, FaultPlan, ServiceOptions

        # A wedged swing solve blows the request deadline, so the
        # last-resort heuristic answers, flagged.
        plan = FaultPlan(
            seed=0, slow_solve_probability=1.0, slow_solve_seconds=0.5
        )
        service = AllocationService(
            chaos_scene, options=ServiceOptions(faults=plan)
        )
        requests = _chaos_requests(
            chaos_placements, [0, 1],
            solver="swing", deadline_seconds=0.05,
        )
        results = service.handle_batch(requests)
        for request, result in zip(requests, results):
            assert result.request.tag == request.tag
            assert result.degraded
            assert result.deadline_exceeded
            assert result.solver_used == "heuristic"
            assert np.isfinite(result.swings).all()
