"""Replay recorded traces against the serving stacks.

The replayer half of the load harness: a loaded
:class:`~repro.obs.trace.TraceReplayer` is the *source*; this module
supplies the rate policy and the serving target.

Modes (``replay_service``):

- ``recorded`` -- arrivals paced at the recorded offsets (wall-clock
  faithful);
- ``scaled`` -- recorded offsets divided by *speed* (2.0 = twice as
  fast);
- ``fixed`` -- arrivals spaced ``1/rate`` apart, recorded offsets
  ignored;
- ``closed`` -- the whole trace served back to back, entries sharing an
  arrival instant batched into one ``handle_batch`` (deterministic
  request stream, the mode the CI perf gate replays).

``replay_cluster`` drives the same trace through the sharded front door
(closed-loop, or rate-paced with ``rate > 0``), and
:func:`knee_from_trace` escalates offered rates over a fresh cluster
per step via the generic :func:`repro.cluster.bench.find_knee` -- the
knee finder works on any replayable source.

Replays rebuild the named scenario's *scene* (and fault plan) from the
registry and verify its fingerprint against the trace header, so a
drifted scenario fails loudly instead of replaying a different room.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from ..errors import ConfigurationError
from ..runtime.service import (
    AllocationResult,
    AllocationService,
    ServiceOptions,
    SLOObserver,
)
from ..runtime.tracing import Tracer
from .attribution import attribution_table
from .ledger import PerfReport, environment_fingerprint
from .trace import TraceReplayer

__all__ = [
    "REPLAY_MODES",
    "knee_from_trace",
    "replay_cluster",
    "replay_service",
]

REPLAY_MODES = ("recorded", "scaled", "fixed", "closed")


def _scenario_instance(replayer: TraceReplayer) -> Any:
    """Rebuild the trace's scenario, verifying the scene fingerprint."""
    from ..scenarios import build_scenario, scenario_names

    trace = replayer.trace
    if trace.scenario not in scenario_names():
        raise ConfigurationError(
            f"trace scenario {trace.scenario!r} is not in the registry; "
            "live-captured traces can only be replayed when their "
            "scenario is registered (the scene must be rebuildable)"
        )
    instance = build_scenario(trace.scenario, trace.seed)
    rebuilt = instance.scene.fingerprint()
    if rebuilt != trace.scene_fingerprint:
        raise ConfigurationError(
            f"scene fingerprint mismatch for {trace.scenario!r} seed "
            f"{trace.seed}: trace has {trace.scene_fingerprint}, the "
            f"registry rebuilds {rebuilt}; the scenario drifted since "
            "this trace was recorded"
        )
    return instance


def _validate_mode(mode: str, speed: float, rate: float) -> None:
    if mode not in REPLAY_MODES:
        raise ConfigurationError(
            f"unknown replay mode {mode!r}; choose from {REPLAY_MODES}"
        )
    if mode == "scaled" and speed <= 0:
        raise ConfigurationError(
            f"scaled replay needs speed > 0, got {speed}"
        )
    if mode == "fixed" and rate <= 0:
        raise ConfigurationError(f"fixed replay needs rate > 0, got {rate}")


def _stage_self_times(tracer: Optional[Tracer]) -> Dict[str, float]:
    if tracer is None or not tracer.enabled:
        return {}
    return {
        row["stage"]: row["self_ms"]
        for row in attribution_table(tracer.finished_spans())
    }


def replay_service(
    replayer: TraceReplayer,
    mode: str = "closed",
    speed: float = 1.0,
    rate: float = 0.0,
    cache_capacity: int = 256,
    tracer: Optional[Tracer] = None,
    slo: Optional[SLOObserver] = None,
) -> PerfReport:
    """Replay the trace against one :class:`AllocationService`.

    The service is built over the scenario's rebuilt scene with its
    compiled fault plan (a replayed outage replays its faults).  In
    ``recorded``/``scaled``/``closed`` modes, entries sharing an
    arrival instant are served as one batch -- exactly how the
    scenario bench serves them; ``fixed`` mode serves requests singly
    at ``1/rate`` spacing.  The single service never sheds, so
    ``shed`` is always 0 here (the cluster replay sheds).
    """
    _validate_mode(mode, speed, rate)
    instance = _scenario_instance(replayer)
    service = AllocationService(
        instance.scene,
        options=ServiceOptions(
            channel_cache_capacity=cache_capacity,
            allocation_cache_capacity=4 * cache_capacity,
            faults=instance.fault_plan,
        ),
        tracer=tracer,
    )
    if slo is not None:
        service.attach_slo(slo)
    records = replayer.trace.records
    first_arrival = records[0].arrival_seconds
    degraded = 0
    served = 0
    origin = time.perf_counter()
    if mode == "fixed":
        results: List[AllocationResult] = []
        for n, (_, request) in enumerate(replayer.timed_requests()):
            delay = n / rate - (time.perf_counter() - origin)
            if delay > 0:
                time.sleep(delay)
            results.append(service.handle(request))
        batches = [results]
    else:
        batches = []
        for arrival, batch in replayer.arrival_batches():
            if mode in ("recorded", "scaled"):
                target = (arrival - first_arrival) / (
                    speed if mode == "scaled" else 1.0
                )
                delay = target - (time.perf_counter() - origin)
                if delay > 0:
                    time.sleep(delay)
            batches.append(service.handle_batch(batch))
    duration = time.perf_counter() - origin
    for results in batches:
        for result in results:
            served += 1
            if result.degraded:
                degraded += 1
    latency = service.metrics.histogram("service.latency_seconds")
    has_latency = latency.count > 0
    return PerfReport(
        label=f"service:{replayer.trace.scenario}",
        target="service",
        scenario=replayer.trace.scenario,
        seed=replayer.trace.seed,
        stream_digest=replayer.stream_digest(),
        mode=mode,
        requests=replayer.requests,
        served=served,
        shed=0,
        duration_seconds=duration,
        requests_per_second=(
            served / duration if duration > 0 else float("inf")
        ),
        p50_latency_ms=(
            1e3 * latency.percentile(50.0) if has_latency else 0.0
        ),
        p95_latency_ms=(
            1e3 * latency.percentile(95.0) if has_latency else 0.0
        ),
        p99_latency_ms=(
            1e3 * latency.percentile(99.0) if has_latency else 0.0
        ),
        shed_rate=0.0,
        degraded_rate=degraded / served if served else 0.0,
        channel_hit_rate=service.channel_hit_rate,
        allocation_hit_rate=service.allocation_hit_rate,
        stage_self_ms=_stage_self_times(tracer),
        slo=dict(slo.snapshot()) if slo is not None else {},
        environment=environment_fingerprint(),
    )


def replay_cluster(
    replayer: TraceReplayer,
    shards: int = 4,
    rate: float = 0.0,
    batch_max: int = 16,
    cache_capacity: int = 256,
    tracer: Optional[Tracer] = None,
    slo: Optional[SLOObserver] = None,
) -> PerfReport:
    """Replay the trace through the sharded cluster front door.

    ``rate <= 0`` is closed-loop (the whole trace arrives at once);
    ``rate > 0`` paces arrivals ``1/rate`` apart.  Recorded offsets are
    not replayed here -- the front door's admission control reacts to
    instantaneous pressure, which closed-loop and paced modes probe
    directly.  Shard-level fault plans are not wired through the
    cluster controller, so fault scenarios replay fault-free against
    the cluster (their faults exercise the single-service path).
    """
    from ..cluster.bench import run_cluster_benchmark

    instance = _scenario_instance(replayer)
    workload = [record.request() for record in replayer.trace.records]
    report = run_cluster_benchmark(
        shards=shards,
        rate=rate,
        batch_max=batch_max,
        cache_capacity=cache_capacity,
        seed=replayer.trace.seed,
        baseline=False,
        knee=False,
        tracer=tracer,
        scene=instance.scene,
        workload=workload,
        slo=slo,
    )
    total = report.served + report.shed
    return PerfReport(
        label=f"cluster:{replayer.trace.scenario}",
        target="cluster",
        scenario=replayer.trace.scenario,
        seed=replayer.trace.seed,
        stream_digest=replayer.stream_digest(),
        mode="closed" if rate <= 0 else "fixed",
        requests=replayer.requests,
        served=report.served,
        shed=report.shed,
        duration_seconds=report.duration_seconds,
        requests_per_second=report.requests_per_second,
        p50_latency_ms=report.p50_latency_ms,
        p95_latency_ms=report.p95_latency_ms,
        p99_latency_ms=0.0,
        shed_rate=report.shed / total if total else 0.0,
        degraded_rate=0.0,
        channel_hit_rate=0.0,
        allocation_hit_rate=0.0,
        stage_self_ms=_stage_self_times(tracer),
        slo=dict(report.slo),
        environment=environment_fingerprint(),
    )


def knee_from_trace(
    replayer: TraceReplayer,
    shards: int = 4,
    batch_max: int = 16,
    cache_capacity: int = 256,
    start_rate: float = 100.0,
    growth: float = 2.0,
    max_steps: int = 6,
    shed_budget: float = 0.05,
) -> List[Dict[str, float]]:
    """Escalate offered rates for this trace until the cluster knees.

    Each step replays the identical request stream through a *fresh*
    cluster at the offered rate (no queue state leaks between steps)
    via the generic :func:`repro.cluster.bench.find_knee`.
    """
    from ..cluster.bench import find_knee

    requests = replayer.requests

    def run_at_rate(rate: float) -> Dict[str, float]:
        report = replay_cluster(
            replayer,
            shards=shards,
            rate=rate,
            batch_max=batch_max,
            cache_capacity=cache_capacity,
        )
        return {
            "achieved_rps": report.requests_per_second,
            "shed_fraction": report.shed / requests,
            "p95_latency_ms": report.p95_latency_ms,
        }

    return find_knee(
        run_at_rate,
        start_rate=start_rate,
        growth=growth,
        max_steps=max_steps,
        shed_budget=shed_budget,
    )
