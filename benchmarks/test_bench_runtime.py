"""Runtime-engine benchmark: per-pair loops vs the batched/cached engine.

Two comparisons on the Fig. 6-style random-placement sweep:

1. Channel path: the legacy per-pair Python loop (scene rebuild +
   ``node_gain`` per link) against one ``channel_matrix_stack``
   broadcast for 64 placements on the 36-TX grid.  The batched path
   must be at least 5x faster.
2. Serving path: the ``fig6-random`` replay (every request a distinct
   placement, so every lookup misses) against the cached engine on the
   ``fig6-hotmix`` replay (repeat placements hit the caches).  The
   cached replay's report is committed as
   ``benchmarks/results/bench_runtime.json``.
"""

import json
import time

import numpy as np

from repro.channel import node_gain
from repro.experiments.scenarios import fig6_instances
from repro.obs import TraceRecorder, TraceReplayer, replay_service
from repro.runtime import Tracer, channel_matrix_stack
from repro.system import simulation_scene

PLACEMENTS = 64


def _replayer(scenario):
    return TraceReplayer(TraceRecorder.record_scenario(scenario))


def _loop_channel_stack(scene, placements):
    """The pre-runtime path: rebuild the scene, evaluate Eq. 2 per pair."""
    stacks = np.zeros(
        (len(placements), scene.num_transmitters, scene.num_receivers)
    )
    for t, placement in enumerate(placements):
        moved = scene.with_receivers_at(
            [(float(x), float(y)) for x, y in placement]
        )
        for j, tx in enumerate(moved.transmitters):
            for m, rx in enumerate(moved.receivers):
                stacks[t, j, m] = node_gain(tx, rx)
    return stacks


def test_bench_runtime(benchmark, record_rows, results_dir):
    placements = fig6_instances(instances=PLACEMENTS, seed=0)
    scene = simulation_scene([(float(x), float(y)) for x, y in placements[0]])

    # Warm NumPy/code paths before timing.
    channel_matrix_stack(scene, placements[:2])

    start = time.perf_counter()
    loop_stack = _loop_channel_stack(scene, placements)
    loop_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched_stack = benchmark.pedantic(
        lambda: channel_matrix_stack(scene, placements), rounds=1, iterations=1
    )
    batch_seconds = time.perf_counter() - start

    np.testing.assert_allclose(batched_stack, loop_stack, rtol=1e-9, atol=0)
    channel_speedup = loop_seconds / batch_seconds

    # Serving path: every request distinct and solved serially vs the
    # cached engine on a workload with placement locality.
    serial = replay_service(_replayer("fig6-random"))
    cached = replay_service(_replayer("fig6-hotmix"))
    serving_speedup = (
        cached.requests_per_second / serial.requests_per_second
    )
    with open(results_dir / "bench_runtime.json", "w") as handle:
        json.dump(cached.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")

    rows = [
        "# Runtime engine: batched/cached/parallel vs per-pair serial",
        f"channel path, {PLACEMENTS} placements x 36 TX x 4 RX:",
        f"  per-pair loop   {1e3 * loop_seconds:8.2f} ms",
        f"  batched         {1e3 * batch_seconds:8.2f} ms",
        f"  speedup         {channel_speedup:8.1f}x  (required: >= 5x)",
        f"serving path, {serial.scenario} ({serial.requests} requests) vs "
        f"{cached.scenario} ({cached.requests} requests):",
        f"  serial uncached {serial.requests_per_second:8.1f} req/s "
        f"(hit-rate {100 * serial.allocation_hit_rate:.0f}%)",
        f"  cached engine   {cached.requests_per_second:8.1f} req/s "
        f"(hit-rate {100 * cached.allocation_hit_rate:.0f}%)",
        f"  speedup         {serving_speedup:8.2f}x",
        f"  cached p50/p95  {cached.p50_latency_ms:.3f} / "
        f"{cached.p95_latency_ms:.3f} ms",
    ]
    record_rows("runtime_engine", rows)

    benchmark.extra_info["channel_speedup"] = round(channel_speedup, 1)
    benchmark.extra_info["serving_speedup"] = round(serving_speedup, 2)
    benchmark.extra_info["cached_hit_rate"] = round(
        cached.allocation_hit_rate, 3
    )

    # Acceptance: the batched channel path is >= 5x the per-pair loop,
    # and the cached engine actually hits its caches.
    assert channel_speedup >= 5.0
    assert cached.allocation_hit_rate > 0.0
    assert serial.allocation_hit_rate == 0.0


def test_bench_tracing_overhead(record_rows):
    """A disabled tracer must leave the serving path effectively free.

    The service always routes through the tracer facade; this guards the
    "near-free when disabled" contract by benchmarking the same cached
    workload with no tracer argument vs an explicitly disabled tracer.
    Wall-clock on shared CI is noisy, so the tolerance is generous --
    the regression being guarded is an accidental always-on span path,
    which costs far more than 30%.
    """
    replayer = _replayer("fig6-hotmix")
    # Warm code paths, then interleave-measure best-of-3 to damp noise.
    replay_service(_replayer("mirror-nlos"))
    plain_rps, disabled_rps = 0.0, 0.0
    for _ in range(3):
        plain_rps = max(plain_rps, replay_service(replayer).requests_per_second)
        disabled_rps = max(
            disabled_rps,
            replay_service(
                replayer, tracer=Tracer.disabled()
            ).requests_per_second,
        )
    overhead = plain_rps / disabled_rps - 1.0

    tracer = Tracer()
    traced = replay_service(replayer, tracer=tracer)
    traced_spans = len(tracer.finished_spans())

    rows = [
        "# Tracing overhead: disabled tracer vs plain serving path",
        f"  plain           {plain_rps:8.1f} req/s",
        f"  tracer disabled {disabled_rps:8.1f} req/s",
        f"  overhead        {100 * overhead:8.1f}%  (tolerance: <= 30%)",
        f"  tracer enabled  {traced.requests_per_second:8.1f} req/s "
        f"({traced_spans} spans)",
    ]
    record_rows("tracing_overhead", rows)

    assert overhead <= 0.30
    assert traced_spans > 0
