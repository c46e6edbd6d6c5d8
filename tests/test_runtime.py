"""Tests for the allocation-serving runtime engine (repro.runtime)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.channel import channel_matrix
from repro.cli import main as cli_main
from repro.core import AllocationProblem, RankingHeuristic
from repro.errors import RuntimeEngineError
from repro.experiments.scenarios import fig6_instances
from repro.obs import TraceRecorder, TraceReplayer, replay_service
from repro.runtime import (
    AllocationRequest,
    AllocationService,
    ChannelCache,
    LRUCache,
    MetricsRegistry,
    SOLVERS,
    ServiceOptions,
    SolverPool,
    SolveTask,
    channel_matrix_stack,
    sinr_stack,
    solve_task,
    throughput_stack,
)
from repro.system import simulation_scene


@pytest.fixture(scope="module")
def placements():
    return fig6_instances(instances=6, seed=3)


@pytest.fixture(scope="module")
def base_scene(placements):
    return simulation_scene([(float(x), float(y)) for x, y in placements[0]])


# ----------------------------------------------------------------------
# cache.py
# ----------------------------------------------------------------------


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now oldest
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_hit_rate(self):
        cache = LRUCache(capacity=4)
        cache.put("x", 1)
        assert cache.get("x") == 1
        assert cache.get("missing") is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_get_or_create_computes_once(self):
        cache = LRUCache(capacity=4)
        calls = []
        for _ in range(3):
            cache.get_or_create("k", lambda: calls.append(1) or "v")
        assert cache.get("k") == "v"
        assert len(calls) == 1

    def test_invalid_capacity(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            LRUCache(capacity=0)

    def test_get_or_create_single_flight(self):
        """Concurrent misses on one key must run the factory exactly once.

        Regression: get_or_create used to probe and populate in separate
        lock regions, so a thundering herd solved the same allocation
        N times.
        """
        from concurrent.futures import ThreadPoolExecutor
        from threading import Barrier

        cache = LRUCache(capacity=4)
        workers = 8
        barrier = Barrier(workers)
        calls = []

        def factory():
            calls.append(1)
            time.sleep(0.02)  # widen the race window
            return "value"

        def hammer():
            barrier.wait()
            return cache.get_or_create("key", factory)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = [f.result() for f in [pool.submit(hammer) for _ in range(workers)]]

        assert results == ["value"] * workers
        assert len(calls) == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == workers - 1

    def test_cached_arrays_are_read_only(self):
        """Mutating a cache hit must raise, not poison every consumer."""
        cache = LRUCache(capacity=4)
        cache.put("m", np.ones((3, 2)))
        hit = cache.get("m")
        with pytest.raises(ValueError):
            hit[0, 0] = 99.0
        created = cache.get_or_create("n", lambda: np.zeros(4))
        with pytest.raises(ValueError):
            created[0] = 1.0
        np.testing.assert_array_equal(cache.get("m"), np.ones((3, 2)))

    def test_channel_cache_matrix_read_only(self, base_scene):
        cache = ChannelCache(capacity=4)
        matrix = cache.matrix_for(base_scene)
        with pytest.raises(ValueError):
            matrix *= 2.0

    def test_channel_cache_shares_matrix(self, base_scene):
        cache = ChannelCache(capacity=4)
        first = cache.matrix_for(base_scene)
        second = cache.matrix_for(base_scene)
        assert first is second
        assert cache.stats.hits == 1
        np.testing.assert_allclose(first, channel_matrix(base_scene))


# ----------------------------------------------------------------------
# Scene.fingerprint
# ----------------------------------------------------------------------


class TestFingerprint:
    def test_stable_across_rebuilds(self, placements):
        xy = [(float(x), float(y)) for x, y in placements[0]]
        assert (
            simulation_scene(xy).fingerprint()
            == simulation_scene(xy).fingerprint()
        )

    def test_perturbation_beyond_quantum_changes_key(self, base_scene):
        moved = base_scene.with_receivers_at(
            [(rx.position[0] + 0.01, rx.position[1]) for rx in base_scene.receivers]
        )
        assert moved.fingerprint() != base_scene.fingerprint()

    def test_perturbation_below_quantum_hits(self, base_scene):
        moved = base_scene.with_receivers_at(
            [(rx.position[0] + 1e-5, rx.position[1]) for rx in base_scene.receivers]
        )
        assert moved.fingerprint() == base_scene.fingerprint()

    def test_device_change_changes_key(self, placements):
        from repro.optics import cree_xte_paper_power

        xy = [(float(x), float(y)) for x, y in placements[0]]
        assert (
            simulation_scene(xy, led=cree_xte_paper_power()).fingerprint()
            != simulation_scene(xy).fingerprint()
        )

    def test_invalid_quantum(self, base_scene):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            base_scene.fingerprint(quantum=0.0)


# ----------------------------------------------------------------------
# batch.py
# ----------------------------------------------------------------------


class TestBatchEvaluator:
    def test_channel_stack_matches_per_scene_matrices(
        self, base_scene, placements
    ):
        stack = channel_matrix_stack(base_scene, placements)
        assert stack.shape == (
            len(placements),
            base_scene.num_transmitters,
            base_scene.num_receivers,
        )
        for t in range(len(placements)):
            moved = base_scene.with_receivers_at(
                [(float(x), float(y)) for x, y in placements[t]]
            )
            np.testing.assert_allclose(
                stack[t], channel_matrix(moved), rtol=1e-12, atol=0
            )

    def test_throughput_stack_matches_problem_evaluation(
        self, base_scene, placements
    ):
        stack = channel_matrix_stack(base_scene, placements)
        problems = [
            AllocationProblem(channel=stack[t], power_budget=1.2)
            for t in range(len(placements))
        ]
        allocations = [RankingHeuristic().solve(p) for p in problems]
        swings = np.stack([a.swings for a in allocations])
        reference = problems[0]
        rates = throughput_stack(
            stack, swings, reference.led, reference.photodiode, reference.noise
        )
        sinrs = sinr_stack(
            stack, swings, reference.led, reference.photodiode, reference.noise
        )
        for t, allocation in enumerate(allocations):
            np.testing.assert_allclose(rates[t], allocation.throughput, rtol=1e-12)
            np.testing.assert_allclose(sinrs[t], allocation.sinr, rtol=1e-12)

    def test_shared_channel_broadcasts_over_swings(self, base_scene):
        channel = channel_matrix(base_scene)
        problem = AllocationProblem(channel=channel, power_budget=1.2)
        allocation = RankingHeuristic().solve(problem)
        swings = np.stack([allocation.swings, problem.zero_allocation()])
        rates = throughput_stack(
            channel, swings, problem.led, problem.photodiode, problem.noise
        )
        np.testing.assert_allclose(rates[0], allocation.throughput, rtol=1e-12)
        np.testing.assert_allclose(rates[1], 0.0)

    def test_placement_outside_room_raises(self, base_scene):
        from repro.errors import GeometryError

        bad = np.full((1, base_scene.num_receivers, 2), -1.0)
        with pytest.raises(GeometryError):
            channel_matrix_stack(base_scene, bad)


# ----------------------------------------------------------------------
# pool.py
# ----------------------------------------------------------------------


class TestSolverPool:
    @pytest.fixture(scope="class")
    def tasks(self, placements, base_scene):
        stack = channel_matrix_stack(base_scene, placements)
        return [
            SolveTask(channel=stack[t], power_budget=1.2, solver=solver)
            for t in range(len(placements))
            for solver in ("heuristic", "greedy")
        ]

    def test_solve_task_matches_direct_solver(self, tasks):
        task = tasks[0]
        direct = RankingHeuristic(kappa=task.kappa).solve(task.problem())
        np.testing.assert_array_equal(solve_task(task), direct.swings)

    def test_unknown_solver_rejected(self, tasks):
        bad = SolveTask(channel=tasks[0].channel, power_budget=1.2, solver="nope")
        with pytest.raises(RuntimeEngineError):
            solve_task(bad)

    def test_pool_metrics_counted(self, tasks):
        metrics = MetricsRegistry()
        SolverPool(metrics=metrics).solve_many(tasks[:3])
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["pool.tasks"] == 3
        solves = {
            key: stats["count"]
            for key, stats in snapshot["histograms"].items()
            if key.startswith('stage.self_seconds{stage="solve[')
        }
        assert solves == {
            'stage.self_seconds{stage="solve[heuristic]"}': 2,
            'stage.self_seconds{stage="solve[greedy]"}': 1,
        }


# ----------------------------------------------------------------------
# metrics.py
# ----------------------------------------------------------------------


class TestMetrics:
    def test_snapshot_contents(self):
        registry = MetricsRegistry()
        registry.counter("requests").increment(5)
        registry.gauge("cache_size").set(7)
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.histogram("latency").observe(value)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["requests"] == 5
        assert snapshot["gauges"]["cache_size"] == 7
        latency = snapshot["histograms"]["latency"]
        assert latency["count"] == 4
        assert latency["mean"] == pytest.approx(2.5)
        assert latency["min"] == 1.0
        assert latency["max"] == 4.0
        assert latency["p50"] == pytest.approx(2.5)

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.percentile(50.0) == pytest.approx(50.5)
        assert histogram.percentile(95.0) == pytest.approx(95.05)

    def test_counter_rejects_negative(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("c").increment(-1)

    def test_empty_histogram_statistics_raise(self):
        # Pre-fix, percentile() on an empty reservoir silently returned
        # 0.0 and mean returned 0.0 -- indistinguishable from a real
        # zero-latency measurement.
        from repro.errors import ConfigurationError

        histogram = MetricsRegistry().histogram("empty")
        with pytest.raises(ConfigurationError):
            histogram.percentile(50.0)
        with pytest.raises(ConfigurationError):
            histogram.mean
        assert histogram.as_dict() == {"count": 0}

    def test_snapshot_and_exposition_skip_empty_reservoirs(self):
        registry = MetricsRegistry()
        registry.histogram("never.observed", buckets=(0.1, 1.0))
        registry.histogram("seen").observe(1.0)
        snapshot = registry.snapshot()
        assert "never.observed" not in snapshot["histograms"]
        assert snapshot["histograms"]["seen"]["count"] == 1
        text = registry.expose_prometheus(prefix="repro_")
        assert "never_observed" not in text
        assert "repro_seen_count 1" in text

    def test_labeled_instruments_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("solve", mode="optimal").increment(2)
        registry.counter("solve", mode="heuristic").increment()
        registry.counter("solve").increment(5)
        snapshot = registry.snapshot()
        assert snapshot["counters"]['solve{mode="optimal"}'] == 2
        assert snapshot["counters"]['solve{mode="heuristic"}'] == 1
        # unlabeled instruments keep their plain names
        assert snapshot["counters"]["solve"] == 5
        # same labels in any declaration order -> same instrument
        registry.counter("multi", a="1", b="2").increment()
        registry.counter("multi", b="2", a="1").increment()
        assert registry.snapshot()["counters"]['multi{a="1",b="2"}'] == 2

    def test_histogram_reservoir_size_conflict(self):
        from repro.errors import ConfigurationError

        registry = MetricsRegistry()
        histogram = registry.histogram("latency", reservoir_size=8)
        for value in range(100):
            histogram.observe(float(value))
        # the reservoir really is bounded at the configured size
        assert histogram.percentile(0.0) == 92.0
        # omitting the parameter accepts the existing configuration
        assert registry.histogram("latency") is histogram
        assert registry.histogram("latency", reservoir_size=8) is histogram
        with pytest.raises(ConfigurationError):
            registry.histogram("latency", reservoir_size=16)

    def test_histogram_bucket_configuration(self):
        from repro.errors import ConfigurationError

        registry = MetricsRegistry()
        histogram = registry.histogram("t", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        stats = histogram.as_dict()
        assert stats["buckets"] == {
            0.1: 1, 1.0: 2, 10.0: 3, float("inf"): 4,
        }
        with pytest.raises(ConfigurationError):
            registry.histogram("t", buckets=(0.5, 1.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("bad", buckets=(1.0, 1.0))

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("service.requests").increment(3)
        registry.counter("solve", mode="optimal").increment()
        registry.gauge("cache.size").set(4)
        bucketed = registry.histogram("latency", buckets=(0.1, 1.0))
        bucketed.observe(0.05)
        bucketed.observe(0.5)
        registry.histogram("plain").observe(2.0)
        text = registry.expose_prometheus(prefix="repro_")
        assert "# TYPE repro_service_requests_total counter" in text
        assert "repro_service_requests_total 3.0" in text
        assert 'repro_solve_total{mode="optimal"} 1.0' in text
        assert "repro_cache_size 4.0" in text
        assert 'repro_latency_bucket{le="0.1"} 1' in text
        assert 'repro_latency_bucket{le="+Inf"} 2' in text
        assert "repro_latency_count 2" in text
        assert 'repro_plain{quantile="0.5"} 2.0' in text
        # every line is either a comment or name{labels} value
        for line in text.strip().splitlines():
            assert line.startswith("#") or len(line.rsplit(" ", 1)) == 2

    def test_snapshot_consistent_under_concurrent_writes(self):
        """Snapshots must be internally consistent, not torn.

        Regression: Gauge.set was unlocked and Histogram.as_dict took
        the lock once per statistic, so a snapshot could mix values from
        different instants (e.g. count from one write, mean from
        another).  Writers here keep every histogram observation equal
        to the gauge value; a torn read shows up as a histogram whose
        min != max or a mean inconsistent with them.
        """
        from concurrent.futures import ThreadPoolExecutor

        registry = MetricsRegistry()
        stop = []

        def writer(value):
            while not stop:
                registry.gauge("g").set(value)
                # one histogram per writer: all observations identical,
                # so any self-consistent snapshot has min == mean == max
                registry.histogram(f"h{value}").observe(value)
                registry.counter("writes").increment()

        def reader():
            problems = []
            for _ in range(200):
                snapshot = registry.snapshot()
                for name, stats in snapshot["histograms"].items():
                    if stats["count"] == 0:
                        continue
                    if not (
                        stats["min"] == stats["max"] == pytest.approx(stats["mean"])
                    ):
                        problems.append((name, stats))
            return problems

        with ThreadPoolExecutor(max_workers=4) as pool:
            writers = [pool.submit(writer, float(v)) for v in (1.0, 2.0)]
            readers = [pool.submit(reader) for _ in range(2)]
            problems = [p for f in readers for p in f.result()]
            stop.append(True)
            for f in writers:
                f.result()

        assert problems == []
        final = registry.snapshot()
        assert final["gauges"]["g"] in (1.0, 2.0)
        assert final["counters"]["writes"] > 0


# ----------------------------------------------------------------------
# service.py
# ----------------------------------------------------------------------


class TestAllocationService:
    @pytest.fixture()
    def service(self, base_scene):
        return AllocationService(base_scene)

    def _request(self, placements, index, **kwargs):
        return AllocationRequest(
            rx_positions_xy=tuple(
                (float(x), float(y)) for x, y in placements[index]
            ),
            power_budget=kwargs.pop("power_budget", 1.2),
            **kwargs,
        )

    def test_repeat_requests_hit_both_caches(self, service, placements):
        first = service.handle(self._request(placements, 1))
        second = service.handle(self._request(placements, 1))
        assert not first.channel_cached and not first.allocation_cached
        assert second.channel_cached and second.allocation_cached
        np.testing.assert_array_equal(first.swings, second.swings)
        assert service.channel_hit_rate > 0
        assert service.allocation_hit_rate > 0

    def test_cached_result_matches_direct_solve(self, service, placements):
        result = service.handle(self._request(placements, 2))
        moved = service.scene.with_receivers_at(
            [(float(x), float(y)) for x, y in placements[2]]
        )
        problem = AllocationProblem(
            channel=channel_matrix(moved),
            power_budget=1.2,
            led=service.scene.led,
            photodiode=service.scene.receivers[0].photodiode,
            noise=service.noise,
        )
        direct = RankingHeuristic().solve(problem)
        np.testing.assert_allclose(result.swings, direct.swings, atol=1e-9)
        np.testing.assert_allclose(
            result.per_rx_throughput, direct.throughput, rtol=1e-9
        )
        assert result.system_throughput == pytest.approx(
            direct.system_throughput, rel=1e-9
        )

    def test_budget_is_part_of_allocation_key(self, service, placements):
        low = service.handle(self._request(placements, 0, power_budget=0.3))
        high = service.handle(self._request(placements, 0, power_budget=1.8))
        assert not high.allocation_cached  # same placement, new budget
        assert high.channel_cached  # channel reused across budgets
        assert np.count_nonzero(high.swings) >= np.count_nonzero(low.swings)

    def test_batch_matches_singles(self, base_scene, placements):
        singles = AllocationService(base_scene)
        batched = AllocationService(base_scene)
        requests = [self._request(placements, i % 3) for i in range(6)]
        expected = [singles.handle(r) for r in requests]
        actual = batched.handle_batch(requests)
        for e, a in zip(expected, actual):
            np.testing.assert_allclose(a.swings, e.swings, atol=1e-9)
            assert a.system_throughput == pytest.approx(
                e.system_throughput, rel=1e-9
            )

    def test_metrics_snapshot_shape(self, service, placements):
        service.handle(self._request(placements, 0))
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["service.requests"] == 1
        assert "channel" in snapshot["caches"]
        assert "allocation" in snapshot["caches"]
        assert snapshot["histograms"]["service.latency_seconds"]["count"] == 1
        assert snapshot["gauges"]["service.channel_cache_size"] == 1

    def test_eviction_bounded_by_capacity(self, base_scene, placements):
        options = ServiceOptions(
            channel_cache_capacity=2, allocation_cache_capacity=2
        )
        service = AllocationService(base_scene, options=options)
        for i in range(len(placements)):
            service.handle(self._request(placements, i))
        snapshot = service.metrics_snapshot()
        assert snapshot["gauges"]["service.channel_cache_size"] <= 2
        assert snapshot["caches"]["channel"]["evictions"] > 0

    def test_invalid_request_rejected(self, placements):
        with pytest.raises(RuntimeEngineError):
            AllocationRequest(rx_positions_xy=(), power_budget=1.0)
        with pytest.raises(RuntimeEngineError):
            AllocationRequest(
                rx_positions_xy=((1.0, 1.0),), power_budget=-1.0
            )
        with pytest.raises(RuntimeEngineError):
            AllocationRequest(
                rx_positions_xy=((1.0, 1.0),), power_budget=1.0, solver="nope"
            )

    def test_non_finite_deadline_rejected(self):
        # Pre-fix, a NaN deadline sailed through request validation and
        # turned into a never-expiring Deadline downstream.
        for bad in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(RuntimeEngineError):
                AllocationRequest(
                    rx_positions_xy=((1.0, 1.0),),
                    power_budget=1.0,
                    deadline_seconds=bad,
                )


# ----------------------------------------------------------------------
# served allocations against cold core solves
# ----------------------------------------------------------------------


class TestServedEqualsCold:
    """Every served solve is the core's cold solve of the same problem.

    Seeds 0 and 3 x ten Fig. 6 placements walk the coarse Fig. 9 rungs
    top-down and bottom-up, each walk on a fresh service, so every rung
    follows a neighbour the service has just solved.  Each served
    ``optimal`` and ``swing`` allocation must be bit-identical to
    ``solve_optimal``/``solve_swing`` on the scene's problem at that
    budget: what the service served before must not change the answer.

    Wall time: about 2 s on a 2-vCPU x86 box.
    """

    def test_served_allocations_equal_cold_solves(self):
        from repro.core import (
            OptimizerOptions,
            SwingSearchOptions,
            solve_optimal,
            solve_swing,
        )
        from repro.experiments.config import default_config

        cfg = default_config()
        budgets = list(cfg.coarse_budgets(12))
        cold_solvers = {
            "optimal": lambda problem: solve_optimal(
                problem, OptimizerOptions(restarts=0, reduce=True)
            ),
            "swing": lambda problem: solve_swing(
                problem, SwingSearchOptions(reduce=True)
            ),
        }
        for seed in (0, 3):
            for index, placement in enumerate(
                fig6_instances(instances=10, seed=seed)
            ):
                positions = tuple((float(x), float(y)) for x, y in placement)
                scene = cfg.simulation_scene_at(positions)
                problem = AllocationProblem(
                    channel=channel_matrix_stack(scene, np.array([positions]))[0],
                    power_budget=budgets[-1],
                    led=scene.led,
                    photodiode=scene.receivers[0].photodiode,
                    noise=cfg.noise,
                )
                cold = {
                    (solver, budget): solve(problem.with_budget(budget)).swings
                    for solver, solve in cold_solvers.items()
                    for budget in budgets
                }
                for label, ladder in (
                    ("top-down", budgets[::-1]), ("bottom-up", budgets)
                ):
                    service = AllocationService(scene, noise=cfg.noise)
                    for budget in ladder:
                        for solver in cold_solvers:
                            result = service.handle(
                                AllocationRequest(
                                    positions, power_budget=budget, solver=solver
                                )
                            )
                            assert not result.degraded
                            assert np.array_equal(
                                result.swings, cold[(solver, budget)]
                            ), (
                                f"seed {seed} placement {index} {label} "
                                f"{solver} at {budget:.3f} W differs from "
                                f"the cold solve"
                            )


# ----------------------------------------------------------------------
# health snapshots
# ----------------------------------------------------------------------


class TestHealthSnapshot:
    def _request(self, placements, index, **kwargs):
        return AllocationRequest(
            rx_positions_xy=tuple(
                (float(x), float(y)) for x, y in placements[index]
            ),
            power_budget=1.2,
            **kwargs,
        )

    def test_health_reports_cache_occupancy(self, base_scene, placements):
        service = AllocationService(base_scene)
        service.handle(self._request(placements, 0))
        health = service.health()
        assert health["status"] == "ok"
        for block in health["caches"].values():
            assert block["size"] >= 0
            assert block["capacity"] > 0
            assert block["occupancy"] == pytest.approx(
                block["size"] / block["capacity"]
            )
            assert block["hits"] + block["misses"] >= 0

    def test_health_snapshot_is_atomic_under_concurrent_traffic(
        self, base_scene, placements
    ):
        import threading

        service = AllocationService(
            base_scene,
            options=ServiceOptions(
                channel_cache_capacity=4, allocation_cache_capacity=8
            ),
        )
        stop = threading.Event()
        errors = []

        def serve(worker):
            index = worker
            try:
                while not stop.is_set():
                    service.handle(self._request(placements, index % 6))
                    index += 1
            except Exception as exc:  # a dying worker must fail the test
                errors.append(("serve", repr(exc)))

        def poll():
            while not stop.is_set():
                health = service.health()
                for block in health["caches"].values():
                    # size/occupancy come from one locked read: a torn
                    # snapshot would let occupancy drift from size.
                    if block["occupancy"] != block["size"] / block["capacity"]:
                        errors.append(("torn occupancy", block))
                    if block["size"] > block["capacity"]:
                        errors.append(("overfull cache", block))
                if health["status"] not in ("ok", "degraded"):
                    errors.append(("bad status", health["status"]))

        threads = [
            threading.Thread(target=serve, args=(n,)) for n in range(2)
        ] + [threading.Thread(target=poll) for _ in range(2)]
        for thread in threads:
            thread.start()
        time.sleep(0.5)
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors, errors[:3]


    def test_concurrent_handle_shares_the_neighbor_memories(self):
        # Four threads serving through one service insert into the
        # placement memory while the others scan it;
        # a near-zero switch interval makes the interleaving likely.
        import sys
        import threading

        placements = fig6_instances(instances=12, seed=5)
        scene = simulation_scene(
            [(float(x), float(y)) for x, y in placements[0]]
        )
        service = AllocationService(
            scene,
            options=ServiceOptions(
                channel_cache_capacity=4,
                allocation_cache_capacity=4,
                neighborhood_memory=8,
            ),
        )
        stop = threading.Event()
        errors = []

        def serve(worker):
            index = worker
            try:
                while not stop.is_set():
                    service.handle(
                        AllocationRequest(
                            rx_positions_xy=tuple(
                                (float(x), float(y))
                                for x, y in placements[index % 12]
                            ),
                            power_budget=1.2,
                            solver="swing",
                        )
                    )
                    index += 1
            except Exception as exc:
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=serve, args=(n,)) for n in range(4)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.5)
            stop.set()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[:3]
        assert service.metrics.counter("service.requests").value > 12


# ----------------------------------------------------------------------
# benchmarking through trace replay
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fig6_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "fig6-random.trace.jsonl"
    TraceRecorder.record_scenario("fig6-random").save(str(path))
    return str(path)


class TestBench:
    def test_replay_reports_cache_hits(self):
        replayer = TraceReplayer(TraceRecorder.record_scenario("fig6-hotmix"))
        report = replay_service(replayer)
        assert report.served == report.requests == 384
        assert report.requests_per_second > 0
        assert report.channel_hit_rate > 0
        assert report.allocation_hit_rate > 0
        assert report.p95_latency_ms >= report.p50_latency_ms
        assert any("hit rates" in line for line in report.lines())

    def test_cli_bench_smoke(self, fig6_trace, capsys):
        exit_code = cli_main(["replay", fig6_trace])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "hit rates" in captured.out

    def test_cli_rejects_unknown_solver(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["replay", "t.trace.jsonl", "--solver", "bogus"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_cli_solver_choices_match_registry(self):
        # The argparse choices are a literal (cli keeps heavy imports
        # lazy); this pins the literal to the actual solver registry.
        assert set(SOLVERS) == {
            "greedy",
            "heuristic",
            "optimal",
            "swing",
        }

    def test_cli_metrics_prometheus_stdout(self, fig6_trace, capsys):
        code = cli_main(["replay", fig6_trace, "--metrics-prom", "-"])
        captured = capsys.readouterr()
        assert code == 0
        assert "# TYPE repro_service_requests_total counter" in captured.out
        assert "repro_service_latency_seconds" in captured.out

    def test_cli_metrics_json_to_file(self, fig6_trace, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        code = cli_main(["replay", fig6_trace, "--metrics-json", str(path)])
        assert code == 0
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"]["service.requests"] == 100.0
        assert "service.latency_seconds" in snapshot["histograms"]
