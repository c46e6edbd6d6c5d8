"""Tests for the sharded cluster layer (repro.cluster).

Covers the consistent-hash ring (determinism, minimal remap), the
controller (lifecycle, routing, health and Prometheus rollups), the
asyncio front door (batching, coalescing bit-identity,
deadline- and capacity-shedding, trace propagation into the shards) and
the cluster benchmark + ``repro cluster-bench`` CLI.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.cluster import (
    ClusterController,
    ClusterError,
    ClusterFrontend,
    ClusterOptions,
    ConsistentHashRing,
    FrontendOptions,
    RequestShedError,
    cluster_workload,
    knee_sweep,
    run_cluster_benchmark,
)
from repro.experiments.scenarios import fig6_instances
from repro.runtime import (
    AllocationRequest,
    ServiceOptions,
    Tracer,
    TracingOptions,
)
from repro.system import simulation_scene


@pytest.fixture(scope="module")
def placements():
    return fig6_instances(instances=16, seed=7)


@pytest.fixture(scope="module")
def scene(placements):
    return simulation_scene([(float(x), float(y)) for x, y in placements[0]])


def make_request(placements, index, **kwargs):
    kwargs.setdefault("power_budget", 1.2)
    return AllocationRequest(
        rx_positions_xy=tuple(
            (float(x), float(y)) for x, y in placements[index % len(placements)]
        ),
        **kwargs,
    )


def small_options(shards=4, **service_kwargs):
    service_kwargs.setdefault("channel_cache_capacity", 64)
    service_kwargs.setdefault("allocation_cache_capacity", 256)
    return ClusterOptions(
        shards=shards, service=ServiceOptions(**service_kwargs)
    )


# ----------------------------------------------------------------------
# sharding.py
# ----------------------------------------------------------------------


class TestConsistentHashRing:
    KEYS = [f"scene:{n}" for n in range(200)]

    def test_routing_is_deterministic_across_rings(self):
        a = ConsistentHashRing(["s0", "s1", "s2", "s3"], seed=0)
        b = ConsistentHashRing(["s0", "s1", "s2", "s3"], seed=0)
        assert a.assignment(self.KEYS) == b.assignment(self.KEYS)

    def test_insertion_order_does_not_matter(self):
        a = ConsistentHashRing(["s0", "s1", "s2", "s3"], seed=0)
        b = ConsistentHashRing(["s3", "s1", "s0", "s2"], seed=0)
        assert a.assignment(self.KEYS) == b.assignment(self.KEYS)

    def test_every_shard_owns_keys(self):
        ring = ConsistentHashRing(["s0", "s1", "s2", "s3"], seed=0)
        owners = set(ring.assignment(self.KEYS).values())
        assert owners == {"s0", "s1", "s2", "s3"}

    def test_add_shard_remaps_minimally(self):
        ring = ConsistentHashRing(["s0", "s1", "s2", "s3"], seed=0)
        before = ring.assignment(self.KEYS)
        ring.add_shard("s4")
        after = ring.assignment(self.KEYS)
        moved = [k for k in self.KEYS if before[k] != after[k]]
        # Every moved key must have moved *to* the new shard, and the
        # new shard should take roughly 1/5 of the space, not half.
        assert moved, "a new shard should take over some arcs"
        assert all(after[k] == "s4" for k in moved)
        assert len(moved) < len(self.KEYS) // 2

    def test_remove_then_readd_restores_assignment(self):
        ring = ConsistentHashRing(["s0", "s1", "s2", "s3"], seed=0)
        before = ring.assignment(self.KEYS)
        ring.remove_shard("s2")
        between = ring.assignment(self.KEYS)
        # Keys not owned by s2 keep their shard while it is gone.
        for key, owner in before.items():
            if owner != "s2":
                assert between[key] == owner
        ring.add_shard("s2")
        assert ring.assignment(self.KEYS) == before

    def test_membership_errors(self):
        ring = ConsistentHashRing(["s0"], seed=0)
        with pytest.raises(ClusterError):
            ring.add_shard("s0")
        with pytest.raises(ClusterError):
            ring.add_shard("")
        with pytest.raises(ClusterError):
            ring.remove_shard("nope")
        with pytest.raises(ClusterError):
            ConsistentHashRing(replicas=0)

    def test_routing_errors(self):
        empty = ConsistentHashRing(seed=0)
        with pytest.raises(ClusterError):
            empty.route("k")


# ----------------------------------------------------------------------
# controller.py
# ----------------------------------------------------------------------


class TestClusterController:
    def test_lifecycle(self, scene):
        controller = ClusterController(scene, options=small_options(shards=3))
        assert controller.shard_ids == ("shard-0", "shard-1", "shard-2")
        new_id = controller.add_shard()
        assert new_id == "shard-3"
        controller.remove_shard("shard-1")
        assert "shard-1" not in controller.shard_ids
        with pytest.raises(ClusterError):
            controller.remove_shard("shard-1")
        with pytest.raises(ClusterError):
            controller.shard("shard-1")
        with pytest.raises(ClusterError):
            ClusterOptions(shards=0)

    def test_routing_is_deterministic_across_controllers(
        self, scene, placements
    ):
        a = ClusterController(scene, options=small_options())
        b = ClusterController(scene, options=small_options())
        for index in range(8):
            request = make_request(placements, index)
            key = a.fingerprint_for(request)
            assert key == b.fingerprint_for(request)
            assert a.route(key).shard_id == b.route(key).shard_id

    def test_health_rollup(self, scene, placements):
        controller = ClusterController(scene, options=small_options(shards=2))
        controller.shard("shard-0").service.handle(
            make_request(placements, 0)
        )
        health = controller.health()
        assert health["status"] == "ok"
        assert health["shard_count"] == 2
        assert health["degraded_shards"] == []
        for report in health["shards"].values():
            caches = report["caches"]
            assert 0.0 <= caches["channel"]["occupancy"] <= 1.0
            assert 0.0 <= caches["allocation"]["occupancy"] <= 1.0

        class ExhaustedSLO:
            def observe(self, latency_seconds, ok):
                pass

            def snapshot(self):
                return {"healthy": False}

        # A shard degrades when its SLO error budget is spent.
        controller.shard("shard-0").service.attach_slo(ExhaustedSLO())
        health = controller.health()
        assert health["status"] == "degraded"
        assert health["degraded_shards"] == ["shard-0"]
        assert health["shards"]["shard-1"]["status"] == "ok"

    def test_prometheus_rollup_is_shard_labeled_and_grouped(
        self, scene, placements
    ):
        controller = ClusterController(scene, options=small_options(shards=2))
        for index in range(3):
            shard = controller.route(
                controller.fingerprint_for(make_request(placements, index))
            )
            shard.service.handle(make_request(placements, index))
        text = controller.expose_prometheus(prefix="repro_")
        assert 'shard="shard-0"' in text
        assert 'shard="shard-1"' in text
        # Families must be contiguous: every series of a family sits
        # directly under its single TYPE header.
        current = None
        for line in text.strip().splitlines():
            if line.startswith("# TYPE "):
                name = line.split()[2]
                assert name != current, f"family {name} split"
                current = name
            else:
                assert line.startswith(current)

    def test_snapshot_covers_all_registries(self, scene):
        controller = ClusterController(scene, options=small_options(shards=2))
        snapshot = controller.metrics_snapshot()
        assert set(snapshot) == {"shard-0", "shard-1", "cluster"}


# ----------------------------------------------------------------------
# frontend.py
# ----------------------------------------------------------------------


def run_frontend(controller, options, coro_factory):
    """Start a frontend, run the coroutine against it, tear it down."""

    async def _run():
        async with ClusterFrontend(controller, options) as frontend:
            return await coro_factory(frontend)

    return asyncio.run(_run())


class TestClusterFrontend:
    def test_submit_matches_direct_service(self, scene, placements):
        controller = ClusterController(scene, options=small_options())
        request = make_request(placements, 1)
        result = run_frontend(
            controller,
            FrontendOptions(),
            lambda frontend: frontend.submit(request),
        )
        direct = controller.shards()[0].service.handle(request)
        np.testing.assert_array_equal(result.swings, direct.swings)
        np.testing.assert_allclose(
            result.per_rx_throughput, direct.per_rx_throughput
        )

    def test_coalesced_duplicates_are_bit_identical(self, scene, placements):
        controller = ClusterController(scene, options=small_options())
        request = make_request(placements, 2)

        async def submit_duplicates(frontend):
            return await frontend.submit_many([request] * 8)

        results = run_frontend(
            controller, FrontendOptions(), submit_duplicates
        )
        assert len(results) == 8
        first = results[0]
        for other in results[1:]:
            assert other.fingerprint == first.fingerprint
            assert other.swings.tobytes() == first.swings.tobytes()
            assert (
                other.per_rx_throughput.tobytes()
                == first.per_rx_throughput.tobytes()
            )
        coalesced = controller.metrics.counter("cluster.coalesced").value
        # Single-threaded event loop: the 7 followers all arrive while
        # the leader's dispatch is in flight.
        assert coalesced == 7
        assert controller.metrics.counter("cluster.submitted").value == 8

    def test_concurrent_distinct_requests_batch(self, scene, placements):
        controller = ClusterController(
            scene, options=small_options(shards=1)
        )
        requests = [make_request(placements, i) for i in range(12)]

        async def submit_all(frontend):
            return await frontend.submit_many(requests)

        results = run_frontend(
            controller,
            FrontendOptions(batch_max=32, coalesce=False),
            submit_all,
        )
        assert len(results) == 12
        dispatches = controller.metrics.counter("cluster.dispatches").value
        # All 12 queue behind the first dispatch and drain into one or
        # two batches -- far fewer dispatches than requests.
        assert dispatches < 12
        batch_hist = controller.metrics.histogram("cluster.batch_size")
        assert batch_hist.count == dispatches
        assert batch_hist.mean > 1.0

    def test_shedding_never_violates_served_deadlines(
        self, scene, placements
    ):
        controller = ClusterController(scene, options=small_options())
        tight = [
            make_request(placements, i, deadline_seconds=2e-4)
            for i in range(10)
        ]
        comfy = [
            make_request(placements, i, deadline_seconds=30.0)
            for i in range(10)
        ]

        async def submit_mixed(frontend):
            return await frontend.submit_many(
                tight + comfy, return_exceptions=True
            )

        outcomes = run_frontend(
            controller,
            FrontendOptions(coalesce=False, initial_service_seconds=0.005),
            submit_mixed,
        )
        shed = [o for o in outcomes if isinstance(o, RequestShedError)]
        served = [o for o in outcomes if not isinstance(o, BaseException)]
        assert shed, "tight deadlines must be shed, not served late"
        assert served, "comfortable deadlines must be served"
        for result in served:
            assert result.deadline_exceeded is False
        # Every comfortable request was served (sheds hit the tight ones).
        assert len(served) >= len(comfy)
        shed_count = sum(
            count
            for key, count in controller.metrics.counters_with_prefix(
                "cluster.shed"
            ).items()
        )
        assert shed_count == len(shed)

    def test_capacity_shedding(self, scene, placements, monkeypatch):
        controller = ClusterController(
            scene, options=small_options(shards=1)
        )
        service = controller.shards()[0].service
        real_handle_batch = service.handle_batch

        def slow_handle_batch(requests, trace_parents=None):
            time.sleep(0.05)
            return real_handle_batch(requests, trace_parents=trace_parents)

        monkeypatch.setattr(service, "handle_batch", slow_handle_batch)
        requests = [make_request(placements, i) for i in range(8)]

        async def flood(frontend):
            return await frontend.submit_many(
                requests, return_exceptions=True
            )

        outcomes = run_frontend(
            controller,
            FrontendOptions(batch_max=1, coalesce=False, max_queue_depth=2),
            flood,
        )
        shed = [o for o in outcomes if isinstance(o, RequestShedError)]
        served = [o for o in outcomes if not isinstance(o, BaseException)]
        assert shed, "a full queue must shed arrivals"
        assert served, "queued requests must still be served"
        reasons = controller.metrics.counters_with_prefix("cluster.shed")
        assert any("capacity" in key for key in reasons)

    def test_trace_chain_spans_frontdoor_to_solve(self, scene, placements):
        tracer = Tracer(TracingOptions(sample_rate=1.0, seed=0))
        controller = ClusterController(
            scene, options=small_options(), tracer=tracer
        )
        request = make_request(placements, 3)
        run_frontend(
            controller,
            FrontendOptions(),
            lambda frontend: frontend.submit(request),
        )
        spans = tracer.finished_spans()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        for name in ("frontdoor", "route", "queue", "request"):
            assert name in by_name, f"missing span {name!r}"
        frontdoor = by_name["frontdoor"][0]
        request_span = by_name["request"][0]
        # One trace id covers queue -> route -> request -> children.
        assert request_span.trace_id == frontdoor.trace_id
        assert request_span.parent_id == frontdoor.span_id
        for name in ("route", "queue"):
            child = by_name[name][0]
            assert child.trace_id == frontdoor.trace_id
            assert child.parent_id == frontdoor.span_id
        children_of_request = [
            s for s in spans if s.parent_id == request_span.span_id
        ]
        assert children_of_request, "shard stages must nest under request"
        assert {"channel", "allocation", "throughput"} <= {
            s.name for s in children_of_request
        }

    def test_lifecycle_errors(self, scene, placements):
        controller = ClusterController(scene, options=small_options())
        frontend = ClusterFrontend(controller)
        request = make_request(placements, 0)

        async def submit_unstarted():
            await frontend.submit(request)

        with pytest.raises(ClusterError):
            asyncio.run(submit_unstarted())

        async def double_start():
            async with ClusterFrontend(controller) as running:
                await running.start()

        with pytest.raises(ClusterError):
            asyncio.run(double_start())

    def test_ema_state_cleared_on_stop(self, scene, placements):
        # Regression: per-shard EMA state survived stop(), so a
        # restarted frontend began with the previous run's (possibly
        # wildly stale) service-time estimates.
        controller = ClusterController(
            scene, options=small_options(shards=1)
        )
        options = FrontendOptions(
            initial_service_seconds=0.005, coalesce=False
        )
        requests = [make_request(placements, i) for i in range(6)]

        async def _run():
            frontend = ClusterFrontend(controller, options)
            await frontend.start()
            shard_id = controller.shard_ids[0]
            await frontend.submit_many(requests)
            warmed = frontend.service_time_estimate(shard_id)
            await frontend.stop()
            cold = frontend.service_time_estimate(shard_id)
            await frontend.start()
            restarted = frontend.service_time_estimate(shard_id)
            await frontend.stop()
            return warmed, cold, restarted

        warmed, cold, restarted = asyncio.run(_run())
        assert warmed != options.initial_service_seconds
        assert cold == options.initial_service_seconds
        assert restarted == options.initial_service_seconds

    def test_remove_shard_clears_queue_worker_and_ema(
        self, scene, placements
    ):
        controller = ClusterController(
            scene, options=small_options(shards=2)
        )

        async def _run():
            frontend = ClusterFrontend(
                controller, FrontendOptions(coalesce=False)
            )
            with pytest.raises(ClusterError):
                await frontend.remove_shard("shard-0")  # not started
            async with frontend:
                victim, survivor = controller.shard_ids
                await frontend.submit_many(
                    [make_request(placements, i) for i in range(4)]
                )
                await frontend.remove_shard(victim)
                assert victim not in frontend._ema
                assert victim not in frontend._queues
                assert victim not in frontend._workers
                assert controller.shard_ids == (survivor,)
                # the cluster still serves after the drain
                result = await frontend.submit(make_request(placements, 1))
                assert result.swings is not None
                with pytest.raises(ClusterError):
                    await frontend.remove_shard(victim)  # unknown now
                with pytest.raises(ClusterError):
                    await frontend.remove_shard(survivor)  # last shard
                assert survivor in frontend._ema

        asyncio.run(_run())

    def test_spent_deadline_shed_at_admission(self, scene, placements):
        # Regression: a budget already spent by admission time used to
        # enter the queue and burn a slot before being late-shed.
        controller = ClusterController(
            scene, options=small_options(shards=1)
        )
        request = make_request(placements, 0, deadline_seconds=1e-9)

        async def _run():
            async with ClusterFrontend(
                controller, FrontendOptions(shed=False)
            ) as frontend:
                with pytest.raises(RequestShedError):
                    await frontend.submit(request)

        asyncio.run(_run())
        reasons = controller.metrics.counters_with_prefix("cluster.shed")
        assert any("expired" in key for key in reasons), reasons

    def test_invalid_options(self):
        with pytest.raises(ClusterError):
            FrontendOptions(batch_max=0)
        with pytest.raises(ClusterError):
            FrontendOptions(max_queue_depth=0)
        with pytest.raises(ClusterError):
            FrontendOptions(ema_alpha=0.0)
        with pytest.raises(ClusterError):
            FrontendOptions(shed_safety=0.0)
        with pytest.raises(ClusterError):
            FrontendOptions(initial_service_seconds=0.0)


# ----------------------------------------------------------------------
# bench.py + CLI
# ----------------------------------------------------------------------


class TestClusterBench:
    def test_workload_is_deterministic(self):
        _, a = cluster_workload(requests=24, distinct_placements=8, seed=5)
        _, b = cluster_workload(requests=24, distinct_placements=8, seed=5)
        assert [r.rx_positions_xy for r in a] == [
            r.rx_positions_xy for r in b
        ]
        _, c = cluster_workload(requests=24, distinct_placements=8, seed=6)
        assert [r.rx_positions_xy for r in a] != [
            r.rx_positions_xy for r in c
        ]

    def test_run_cluster_benchmark_smoke(self):
        report = run_cluster_benchmark(
            requests=24,
            shards=2,
            distinct_placements=6,
            cache_capacity=64,
            seed=0,
        )
        assert report.served + report.shed == 24
        assert report.requests_per_second > 0
        assert report.dispatches >= 1
        assert report.baseline_requests_per_second > 0
        assert report.speedup > 0
        assert set(report.per_shard) == {"shard-0", "shard-1"}
        payload = report.as_dict()
        assert payload["requests"] == 24
        assert payload["per_shard"]["shard-0"]["requests"] >= 0
        assert any("throughput" in line for line in report.lines())

    def test_rate_paced_mode(self):
        report = run_cluster_benchmark(
            requests=12,
            shards=2,
            distinct_placements=4,
            rate=2000.0,
            cache_capacity=64,
            baseline=False,
            seed=0,
        )
        assert report.rate == 2000.0
        assert report.served + report.shed == 12

    def test_distinct_placements_counts_the_draw(self):
        # A hot-heavy draw repeats placements: the report must count the
        # placements the workload actually contains, not the pool size.
        config = dict(
            requests=12, distinct_placements=12, hot_fraction=0.75, seed=0
        )
        _, workload = cluster_workload(**config)
        drawn = len({r.rx_positions_xy for r in workload})
        assert drawn < config["distinct_placements"]
        report = run_cluster_benchmark(
            shards=2, cache_capacity=64, baseline=False, **config
        )
        assert report.distinct_placements == drawn

    def test_knee_sweep_reports_points(self):
        points = knee_sweep(
            requests=16,
            shards=2,
            distinct_placements=4,
            cache_capacity=64,
            start_rate=500.0,
            max_steps=2,
            seed=0,
        )
        assert 1 <= len(points) <= 2
        for point in points:
            assert point["offered_rps"] > 0
            assert point["achieved_rps"] > 0
            assert 0.0 <= point["shed_fraction"] <= 1.0


class TestClusterCLI:
    def test_cluster_bench_smoke(self, capsys):
        code = cli_main(
            [
                "cluster-bench",
                "--shards",
                "2",
                "--requests",
                "16",
                "--distinct",
                "4",
                "--json",
                "-",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "throughput" in captured.out
        assert '"requests_per_second"' in captured.out

    def test_cluster_bench_writes_artifacts(self, tmp_path, capsys):
        json_path = tmp_path / "cluster.json"
        prom_path = tmp_path / "cluster.prom"
        code = cli_main(
            [
                "cluster-bench",
                "--shards",
                "2",
                "--requests",
                "16",
                "--distinct",
                "4",
                "--no-baseline",
                "--json",
                str(json_path),
                "--metrics-prom",
                str(prom_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        import json

        payload = json.loads(json_path.read_text())
        assert payload["shards"] == 2
        assert payload["served"] + payload["shed"] == 16
        prom = prom_path.read_text()
        assert 'shard="shard-0"' in prom
        assert 'shard="cluster"' in prom

    def test_cluster_bench_rejects_bad_config(self, capsys):
        code = cli_main(["cluster-bench", "--shards", "0", "--requests", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in captured.err


class TestDispatchErrorAccounting:
    def test_dispatch_error_counts_and_surfaces(self, scene, placements):
        # A shard raising mid-dispatch must reach every submitter's
        # future AND leave an aggregate trace: cluster.dispatch_errors
        # is what dashboards see when a shard fails every batch.
        controller = ClusterController(scene, options=small_options(shards=2))
        request = make_request(placements, 3)

        def explode(requests, trace_parents=None):
            raise RuntimeError("shard exploded")

        for shard in controller.shards():
            shard.service.handle_batch = explode  # type: ignore[method-assign]

        async def submit_one(frontend):
            with pytest.raises(RuntimeError, match="shard exploded"):
                await frontend.submit(request)
            return frontend.metrics.counter("cluster.dispatch_errors").value

        errors = run_frontend(controller, FrontendOptions(), submit_one)
        assert errors == 1
