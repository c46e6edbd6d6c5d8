"""Tests for the scenario catalog (repro.scenarios).

Covers the registry and seeding contract, trace validation, the
mobility/outage/placement builders, the mirror channel they lean on,
and an end-to-end serve through ``run_scenario_benchmark``.  The
bit-identity of every registered scenario's workload digest against the
committed pin lives in ``benchmarks/test_bench_scenarios.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import (
    channel_matrix,
    los_gain,
    mirror_augmented_channel_matrix,
    mirror_channel_matrix,
    mirror_gain,
)
from repro.channel.mirror import WallMirror
from repro.cli import main as cli_main
from repro.errors import ChannelError, ConfigurationError, GeometryError
from repro.geometry import HotspotModel, RandomWalkModel
from repro.geometry.room import simulation_room
from repro.runtime import AllocationRequest
from repro.scenarios import (
    OutageEvent,
    OutageTimeline,
    ScenarioInstance,
    TimedRequest,
    build_scenario,
    compile_fault_plan,
    derive_seed,
    fleet_trace,
    get_scenario,
    nongrid_scene,
    optimized_led_layout,
    register_scenario,
    run_scenario_benchmark,
    sample_timeline,
    scenario_cluster_workload,
    scenario_names,
)
from repro.scenarios.mobility import MOVE_PHASES
from repro.system import simulation_scene

EXPECTED_SCENARIOS = (
    "degraded-luminaire",
    "hotspot-fleet",
    "led-outage",
    "mirror-nlos",
    "nongrid-placement",
    "waypoint-fleet",
)


# ----------------------------------------------------------------------
# registry + seeding contract
# ----------------------------------------------------------------------


class TestRegistry:
    def test_builtin_scenarios_registered(self):
        assert scenario_names() == EXPECTED_SCENARIOS

    def test_unknown_scenario_lists_available(self):
        with pytest.raises(ConfigurationError) as excinfo:
            build_scenario("no-such-scenario")
        assert "waypoint-fleet" in str(excinfo.value)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_scenario("waypoint-fleet", "imposter")(lambda seed: None)

    def test_specs_carry_descriptions(self):
        for name in scenario_names():
            spec = get_scenario(name)
            assert spec.name == name
            assert spec.description
            assert spec.default_seed == 0

    def test_derive_seed_is_stable_and_stream_dependent(self):
        assert derive_seed(0, "a") == derive_seed(0, "a")
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert derive_seed(0, "a") != derive_seed(1, "a")
        assert derive_seed(0, "rx", 1) != derive_seed(0, "rx", 2)

    def test_same_seed_same_digest(self):
        first = build_scenario("waypoint-fleet", seed=3)
        second = build_scenario("waypoint-fleet", seed=3)
        assert first.workload_digest() == second.workload_digest()

    def test_different_seed_different_digest(self):
        base = build_scenario("waypoint-fleet", seed=0)
        other = build_scenario("waypoint-fleet", seed=1)
        assert base.workload_digest() != other.workload_digest()


# ----------------------------------------------------------------------
# instance validation
# ----------------------------------------------------------------------


def _request(positions, **kwargs):
    return AllocationRequest(
        rx_positions_xy=tuple(positions),
        power_budget=kwargs.pop("power_budget", 1.2),
        **kwargs,
    )


class TestScenarioInstance:
    @pytest.fixture(scope="class")
    def scene(self):
        return simulation_scene([(1.0, 1.0), (2.0, 2.0)])

    def test_empty_trace_rejected(self, scene):
        with pytest.raises(ConfigurationError):
            ScenarioInstance(name="x", seed=0, scene=scene, trace=())

    def test_unsorted_trace_rejected(self, scene):
        entries = (
            TimedRequest(1.0, _request([(1.0, 1.0), (2.0, 2.0)])),
            TimedRequest(0.5, _request([(1.0, 1.0), (2.0, 2.0)])),
        )
        with pytest.raises(ConfigurationError):
            ScenarioInstance(name="x", seed=0, scene=scene, trace=entries)

    def test_receiver_count_mismatch_rejected(self, scene):
        entries = (TimedRequest(0.0, _request([(1.0, 1.0)])),)
        with pytest.raises(ConfigurationError):
            ScenarioInstance(name="x", seed=0, scene=scene, trace=entries)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ConfigurationError):
            TimedRequest(-0.1, _request([(1.0, 1.0)]))


# ----------------------------------------------------------------------
# mobility fleets
# ----------------------------------------------------------------------


class TestFleetTrace:
    def test_group_size_must_divide_fleet(self):
        room = simulation_room()
        models = [
            RandomWalkModel(room=room, seed=i, margin=0.3) for i in range(5)
        ]
        with pytest.raises(ConfigurationError):
            fleet_trace("x", models, epochs=2, dt=0.5, group_size=4)

    def test_bad_epochs_rejected(self):
        room = simulation_room()
        models = [
            RandomWalkModel(room=room, seed=i, margin=0.3) for i in range(4)
        ]
        with pytest.raises(ConfigurationError):
            fleet_trace("x", models, epochs=0, dt=0.5, group_size=4)
        with pytest.raises(ConfigurationError):
            fleet_trace("x", models, epochs=2, dt=0.0, group_size=4)

    def test_staggered_motion_moves_a_strict_subset(self):
        """Consecutive epochs must share some receivers and move others.

        That partial overlap is the whole point of the phase stagger:
        it is what routes requests down the incremental-channel path.
        """
        room = simulation_room()
        models = [
            RandomWalkModel(room=room, speed=0.8, seed=derive_seed(9, i), margin=0.3)
            for i in range(6)
        ]
        trace, _ = fleet_trace(
            "stagger", models, epochs=4, dt=0.5, group_size=6
        )
        by_epoch = [timed.request.rx_positions_xy for timed in trace]
        for previous, current in zip(by_epoch, by_epoch[1:]):
            moved = sum(a != b for a, b in zip(previous, current))
            assert 0 < moved < len(models)
            assert moved <= -(-len(models) // MOVE_PHASES)

    def test_trace_is_deterministic(self):
        room = simulation_room()

        def build():
            models = [
                HotspotModel(
                    room=room,
                    hotspots=((1.0, 1.0), (2.0, 2.0)),
                    seed=derive_seed(4, "rx", i),
                    margin=0.3,
                )
                for i in range(4)
            ]
            return fleet_trace(
                "det", models, epochs=5, dt=0.4, group_size=4
            )

        first, _ = build()
        second, _ = build()
        assert [t.request.rx_positions_xy for t in first] == [
            t.request.rx_positions_xy for t in second
        ]


class TestHotspotModel:
    def test_positions_stay_inside_margins(self):
        room = simulation_room()
        model = HotspotModel(
            room=room,
            hotspots=((1.0, 1.0),),
            sigma=0.5,
            seed=11,
            margin=0.2,
        )
        for t in np.linspace(0.0, 60.0, 121):
            x, y = model.position_at(float(t))
            assert 0.2 <= x <= room.width - 0.2
            assert 0.2 <= y <= room.depth - 0.2

    def test_deterministic_per_seed(self):
        room = simulation_room()
        kwargs = dict(
            room=room, hotspots=((1.0, 1.0), (2.0, 2.0)), sigma=0.3
        )
        a = HotspotModel(seed=5, **kwargs)
        b = HotspotModel(seed=5, **kwargs)
        c = HotspotModel(seed=6, **kwargs)
        times = [0.0, 3.0, 7.5, 20.0]
        assert [a.position_at(t) for t in times] == [
            b.position_at(t) for t in times
        ]
        assert [a.position_at(t) for t in times] != [
            c.position_at(t) for t in times
        ]

    def test_dwells_concentrate_near_hotspots(self):
        room = simulation_room()
        hotspots = ((1.0, 1.0), (2.5, 2.0))
        model = HotspotModel(
            room=room,
            hotspots=hotspots,
            sigma=0.2,
            dwell_seconds=5.0,
            seed=2,
            margin=0.2,
        )
        samples = np.array(
            [model.position_at(float(t)) for t in np.linspace(0, 120, 241)]
        )
        anchors = np.array(hotspots)
        nearest = np.min(
            np.linalg.norm(
                samples[:, None, :] - anchors[None, :, :], axis=2
            ),
            axis=1,
        )
        # dwell phases dominate, so the median sample sits near a hotspot
        assert float(np.median(nearest)) < 3.0 * 0.2


# ----------------------------------------------------------------------
# outage timelines
# ----------------------------------------------------------------------


class TestOutages:
    def test_event_validation(self):
        with pytest.raises(ConfigurationError):
            OutageEvent(tx_index=-1, start_seconds=0.0, end_seconds=1.0)
        with pytest.raises(ConfigurationError):
            OutageEvent(tx_index=0, start_seconds=2.0, end_seconds=1.0)
        with pytest.raises(ConfigurationError):
            OutageEvent(
                tx_index=0, start_seconds=0.0, end_seconds=1.0, severity=0.0
            )

    def test_timeline_validation(self):
        event = OutageEvent(tx_index=5, start_seconds=0.0, end_seconds=2.0)
        with pytest.raises(ConfigurationError):
            OutageTimeline(num_leds=4, horizon_seconds=10.0, events=(event,))
        with pytest.raises(ConfigurationError):
            OutageTimeline(num_leds=8, horizon_seconds=1.0, events=(event,))

    def test_active_and_fraction(self):
        events = (
            OutageEvent(tx_index=0, start_seconds=1.0, end_seconds=3.0),
            OutageEvent(
                tx_index=1, start_seconds=2.0, end_seconds=4.0, severity=0.5
            ),
        )
        timeline = OutageTimeline(
            num_leds=2, horizon_seconds=10.0, events=events
        )
        assert timeline.active(0.5) == ()
        assert timeline.active(1.0) == (events[0],)
        assert timeline.active(2.5) == events
        assert timeline.active(3.0) == (events[1],)
        # (2*1.0 + 2*0.5) LED-seconds lost over 2 LEDs * 10 s
        assert timeline.outage_fraction() == pytest.approx(0.15)

    def test_sample_timeline_deterministic(self):
        a = sample_timeline(
            seed=7, num_leds=36, horizon_seconds=10.0, events=5,
            mean_duration_seconds=2.0,
        )
        b = sample_timeline(
            seed=7, num_leds=36, horizon_seconds=10.0, events=5,
            mean_duration_seconds=2.0,
        )
        assert a == b
        c = sample_timeline(
            seed=8, num_leds=36, horizon_seconds=10.0, events=5,
            mean_duration_seconds=2.0,
        )
        assert a != c

    def test_compiled_pressure_scales_with_lost_time(self):
        def plan_for(duration):
            timeline = OutageTimeline(
                num_leds=4,
                horizon_seconds=20.0,
                events=(
                    OutageEvent(
                        tx_index=0,
                        start_seconds=0.0,
                        end_seconds=duration,
                    ),
                ),
            )
            return compile_fault_plan(timeline, seed=0)

        light, heavy = plan_for(1.0), plan_for(8.0)
        assert (
            heavy.corrupt_channel_probability
            > light.corrupt_channel_probability
            > 0.0
        )

    def test_dim_time_drives_slow_solves_not_corruption(self):
        timeline = OutageTimeline(
            num_leds=4,
            horizon_seconds=20.0,
            events=(
                OutageEvent(
                    tx_index=0,
                    start_seconds=0.0,
                    end_seconds=8.0,
                    severity=0.4,
                ),
            ),
        )
        plan = compile_fault_plan(timeline, seed=0)
        assert plan.slow_solve_probability > 0.0
        assert plan.corrupt_channel_probability == 0.0

    def test_outage_scenarios_carry_fault_plans(self):
        for name in ("led-outage", "degraded-luminaire"):
            instance = build_scenario(name)
            assert instance.fault_plan is not None
            assert instance.metadata["outage_fraction"] > 0.0


# ----------------------------------------------------------------------
# placement variants
# ----------------------------------------------------------------------


class TestPlacement:
    def test_layout_deterministic_and_bounded(self):
        room = simulation_room()
        a = optimized_led_layout(count=16, room=room, seed=1, iterations=5)
        b = optimized_led_layout(count=16, room=room, seed=1, iterations=5)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (16, 2)
        assert np.all(a[:, 0] >= 0.25) and np.all(a[:, 0] <= room.width - 0.25)
        assert np.all(a[:, 1] >= 0.25) and np.all(a[:, 1] <= room.depth - 0.25)

    def test_layout_validation(self):
        room = simulation_room()
        with pytest.raises(ConfigurationError):
            optimized_led_layout(count=0, room=room, seed=0)
        with pytest.raises(ConfigurationError):
            optimized_led_layout(count=4, room=room, seed=0, resolution=0.0)

    def test_relaxation_spreads_leds(self):
        room = simulation_room()
        raw = optimized_led_layout(count=9, room=room, seed=3, iterations=0)
        relaxed = optimized_led_layout(
            count=9, room=room, seed=3, iterations=25
        )

        def min_pairwise(layout):
            d = np.linalg.norm(
                layout[:, None, :] - layout[None, :, :], axis=2
            )
            return float(np.min(d[np.triu_indices(len(layout), k=1)]))

        assert min_pairwise(relaxed) > min_pairwise(raw)

    def test_nongrid_scene_places_leds(self):
        room = simulation_room()
        layout = optimized_led_layout(count=36, room=room, seed=0)
        scene = nongrid_scene(layout, [(1.0, 1.0), (2.0, 2.0)], room)
        assert scene.num_transmitters == 36
        assert scene.grid is None
        positions = np.array([tx.position[:2] for tx in scene.transmitters])
        np.testing.assert_allclose(positions, layout)
        assert channel_matrix(scene).shape == (36, 2)

    def test_nongrid_scenario_reports_uplift(self):
        instance = build_scenario("nongrid-placement")
        assert instance.scene.grid is None
        assert instance.metadata["worst_rx_gain_optimized"] > 0.0
        assert instance.metadata["worst_rx_gain_grid"] > 0.0


# ----------------------------------------------------------------------
# wall mirrors
# ----------------------------------------------------------------------


class TestWallMirror:
    @pytest.fixture(scope="class")
    def room(self):
        return simulation_room()

    def _mirror(self, room, **overrides):
        kwargs = dict(
            wall="x0",
            center_along=room.depth / 2.0,
            center_height=1.2,
            width=1.5,
            height=1.0,
            reflectivity=0.9,
        )
        kwargs.update(overrides)
        return WallMirror(**kwargs)

    def test_validation(self, room):
        with pytest.raises(GeometryError):
            self._mirror(room, wall="z0")
        with pytest.raises(GeometryError):
            self._mirror(room, width=-1.0)
        with pytest.raises(GeometryError):
            self._mirror(room, reflectivity=0.0)
        with pytest.raises(GeometryError):
            self._mirror(room, center_height=0.2, height=1.0)
        with pytest.raises(GeometryError):
            self._mirror(room, width=100.0).validate_in(room)

    def test_image_reflects_across_wall_plane(self, room):
        mirror = self._mirror(room)
        image = mirror.image_of(np.array([0.7, 1.0, 2.0]), room)
        np.testing.assert_allclose(image, [-0.7, 1.0, 2.0])
        orientation = mirror.image_orientation(
            np.array([0.6, 0.0, -0.8]), room
        )
        np.testing.assert_allclose(orientation, [-0.6, 0.0, -0.8])
        far_wall = self._mirror(room, wall="x1")
        image = far_wall.image_of(np.array([0.7, 1.0, 2.0]), room)
        np.testing.assert_allclose(image, [2.0 * room.width - 0.7, 1.0, 2.0])

    def test_gain_is_scaled_image_los(self, room):
        scene = simulation_scene([(0.5, room.depth / 2.0)])
        mirror = self._mirror(
            room, width=room.depth * 0.8, height=2.0, center_height=1.5
        )
        tx = scene.transmitters[0]
        rx = scene.receivers[0]
        gain = mirror_gain(
            tx.position,
            tx.orientation,
            tx.led.lambertian_order,
            rx.position,
            rx.orientation,
            rx.photodiode,
            mirror,
            room,
        )
        assert gain > 0.0
        direct = los_gain(
            mirror.image_of(tx.position, room),
            mirror.image_orientation(tx.orientation, room),
            tx.led.lambertian_order,
            rx.position,
            rx.orientation,
            rx.photodiode,
        )
        assert gain == pytest.approx(mirror.reflectivity * direct)

    def test_ray_missing_aperture_gains_nothing(self, room):
        scene = simulation_scene([(room.width - 0.5, room.depth / 2.0)])
        tiny = self._mirror(room, width=0.01, height=0.01, center_height=0.1)
        tx = scene.transmitters[-1]
        rx = scene.receivers[0]
        assert (
            mirror_gain(
                tx.position,
                tx.orientation,
                tx.led.lambertian_order,
                rx.position,
                rx.orientation,
                rx.photodiode,
                tiny,
                room,
            )
            == 0.0
        )

    def test_matrix_shapes_and_augmentation(self, room):
        scene = simulation_scene([(0.5, 1.0), (0.6, 2.0)])
        mirror = self._mirror(room, width=room.depth * 0.8, height=2.0,
                              center_height=1.5)
        specular = mirror_channel_matrix(scene, [mirror])
        assert specular.shape == (scene.num_transmitters, 2)
        assert np.all(specular >= 0.0)
        assert specular.sum() > 0.0
        combined = mirror_augmented_channel_matrix(scene, [mirror])
        np.testing.assert_allclose(
            combined, channel_matrix(scene) + specular
        )
        with pytest.raises(ChannelError):
            mirror_channel_matrix(scene, [])

    def test_mirror_scenario_reports_uplift(self):
        instance = build_scenario("mirror-nlos")
        assert instance.metadata["specular_over_los_energy"] > 0.0
        assert (
            instance.metadata["worst_rx_gain_mirrored"]
            >= instance.metadata["worst_rx_gain_los"]
        )


# ----------------------------------------------------------------------
# serving + CLI
# ----------------------------------------------------------------------


class TestScenarioServing:
    def test_benchmark_serves_whole_trace(self):
        report = run_scenario_benchmark("mirror-nlos")
        instance = build_scenario("mirror-nlos")
        assert report.scenario == "mirror-nlos"
        assert report.requests == instance.requests
        assert report.receivers_per_request == 4
        assert report.workload_digest == instance.workload_digest()
        assert report.health_status in ("ok", "degraded")
        assert report.p95_latency_ms >= report.p50_latency_ms >= 0.0
        payload = report.as_dict()
        assert payload["scenario"] == "mirror-nlos"
        assert payload["metadata"]["fleet_size"] == 8

    def test_mobility_scenario_exercises_incremental_path(self):
        report = run_scenario_benchmark("waypoint-fleet")
        assert report.incremental_updates > 0
        assert report.warm_starts > 0

    def test_cluster_workload_handoff(self):
        scene, workload, instance = scenario_cluster_workload("led-outage")
        assert len(workload) == instance.requests
        assert all(
            len(request.rx_positions_xy) == scene.num_receivers
            for request in workload
        )

    def test_cli_lists_scenarios(self, capsys):
        assert cli_main(["bench", "--scenario", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert list(EXPECTED_SCENARIOS) == out
        assert cli_main(["cluster-bench", "--scenario", "list"]) == 0
        assert capsys.readouterr().out.split() == out

    def test_cli_unknown_scenario_fails_cleanly(self, capsys):
        assert cli_main(["bench", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_cli_runs_scenario_bench(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "report.json"
        assert (
            cli_main(
                [
                    "bench",
                    "--scenario",
                    "mirror-nlos",
                    "--json",
                    str(out_path),
                ]
            )
            == 0
        )
        assert "workload digest" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["scenario"] == "mirror-nlos"
        assert payload["requests"] == 30
