"""Scenario catalog benchmark: pinned workloads through the serving stack.

``benchmarks/results/BENCH_scenarios.json`` is *committed*, not
regenerated: it pins each registered scenario's workload digest (scene
fingerprint + every trace entry + compiled fault plan, see
:meth:`repro.scenarios.ScenarioInstance.workload_digest`) together with
its request/receiver counts.  The tests here rebuild every scenario at
its default seed and assert bit-identity against those pins -- any
drift in mobility models, seed derivation, fault compilation or request
construction shows up as a digest mismatch, the same way a solver
regression shows up in BENCH_cluster.json.

The serve benchmarks then replay two contrasting scenarios end to end
and assert the engine behaviors the traces were designed to exercise:
staggered mobility must hit the incremental-channel path,
and an outage scenario must keep answering under its compiled faults.
"""

import json
import pathlib

import pytest

from repro.obs import TraceRecorder, TraceReplayer, replay_service
from repro.scenarios import build_scenario, scenario_names

PINS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_scenarios.json"


def _pins():
    with open(PINS_PATH) as handle:
        return json.load(handle)["scenarios"]


def test_every_registered_scenario_is_pinned():
    assert tuple(sorted(_pins())) == scenario_names()


@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_scenario_digest_matches_committed_pin(name):
    pin = _pins()[name]
    instance = build_scenario(name, seed=pin["seed"])
    assert instance.workload_digest() == pin["workload_digest"], (
        f"scenario {name!r} no longer reproduces its committed workload; "
        "if the change is intentional, regenerate "
        "benchmarks/results/BENCH_scenarios.json"
    )
    assert instance.requests == pin["requests"]
    assert instance.scene.num_receivers == pin["receivers_per_request"]
    assert (instance.fault_plan is not None) == pin["fault_plan"]


@pytest.mark.smoke
def test_scenario_build_is_bit_identical():
    """Same (name, seed) twice in one process -> identical digests."""
    for name in ("waypoint-fleet", "led-outage"):
        assert (
            build_scenario(name).workload_digest()
            == build_scenario(name).workload_digest()
        )


def _replay(name):
    trace = TraceRecorder.record_scenario(name)
    assert trace.requests == _pins()[name]["requests"]
    return replay_service(TraceReplayer(trace))


@pytest.mark.smoke
def test_bench_mobility_scenario(record_rows):
    report = _replay("waypoint-fleet")
    record_rows("scenario_waypoint_fleet", report.lines())
    assert report.served == report.requests
    # The staggered fleet must route down the paths it was built for.
    assert report.counters["service.channel_incremental"] > 0


@pytest.mark.smoke
def test_bench_outage_scenario(record_rows):
    report = _replay("led-outage")
    record_rows("scenario_led_outage", report.lines())
    # Compiled faults are injected, yet every request gets an answer.
    assert build_scenario("led-outage").fault_plan is not None
    assert report.counters["resilience.channel_repairs"] > 0
    assert report.served == report.requests
