"""Replay recorded traces against the serving stacks: the one runner.

The replayer half of the load harness: a loaded
:class:`~repro.obs.trace.TraceReplayer` is the *source*; this module
supplies the rate policy and the serving target, and every run comes
back as one :class:`~repro.obs.ledger.PerfReport`.

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

Service replays report per-request service time (the service's own
latency histogram).  ``replay_cluster`` drives the same trace through
the sharded front door -- closed-loop (the whole trace arrives at
once), or paced ``1/rate`` apart -- and ``replay_sequential`` serves it
back to back on one service, the baseline the cluster's speedup is
measured against.  Both report *sojourn* latency: time from the common
arrival instant to each request's completion, so queueing delay is
charged equally.  :func:`knee_from_trace` escalates offered rates over
a fresh cluster per step via :func:`find_knee`.

Replays rebuild the named scenario's *scene* (and fault plan) from the
registry and verify its fingerprint against the trace header, so a
drifted scenario fails loudly instead of replaying a different room.
"""

from __future__ import annotations

import asyncio
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..cluster import ClusterController, ClusterOptions
from ..cluster.frontend import ClusterFrontend, FrontendOptions
from ..errors import ConfigurationError, RequestShedError
from ..runtime.metrics import MetricsRegistry
from ..runtime.service import (
    AllocationRequest,
    AllocationResult,
    AllocationService,
    ServiceOptions,
    SLOObserver,
)
from ..runtime.tracing import Tracer
from .attribution import StageTotals, attribution_table, stage_totals
from .ledger import PerfReport, environment_fingerprint
from .trace import TraceReplayer

__all__ = [
    "REPLAY_MODES",
    "cluster_for",
    "find_knee",
    "knee_from_trace",
    "replay_cluster",
    "replay_sequential",
    "replay_service",
    "service_for",
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


def _service_options(instance: Any, cache_capacity: int) -> ServiceOptions:
    return ServiceOptions(
        channel_cache_capacity=cache_capacity,
        allocation_cache_capacity=4 * cache_capacity,
        faults=instance.fault_plan,
    )


def service_for(
    replayer: TraceReplayer,
    cache_capacity: int = 256,
    tracer: Optional[Tracer] = None,
) -> AllocationService:
    """A fresh service over the trace's scene, with its fault plan.

    Build one up front to keep its metrics registry and tracer readable
    after :func:`replay_service` returns (trace and metrics export).
    """
    instance = _scenario_instance(replayer)
    return AllocationService(
        instance.scene,
        options=_service_options(instance, cache_capacity),
        tracer=tracer,
    )


def cluster_for(
    replayer: TraceReplayer,
    shards: int = 4,
    cache_capacity: int = 256,
    tracer: Optional[Tracer] = None,
) -> ClusterController:
    """A fresh cluster over the trace's scene; every shard gets its faults."""
    instance = _scenario_instance(replayer)
    return ClusterController(
        instance.scene,
        options=ClusterOptions(
            shards=shards,
            service=_service_options(instance, cache_capacity),
        ),
        tracer=tracer,
    )


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


def _counters(registries: Iterable[MetricsRegistry]) -> Dict[str, float]:
    """Every counter of *registries*, summed by rendered key."""
    totals: Dict[str, float] = {}
    for registry in registries:
        for key, value in registry.counters_with_prefix("").items():
            totals[key] = totals.get(key, 0.0) + value
    return totals


def _hit_rates(services: Sequence[AllocationService]) -> Tuple[float, float]:
    """Channel and allocation hits over lookups, pooled across *services*."""
    hits = {"channel": 0, "allocation": 0}
    lookups = dict(hits)
    for service in services:
        for cache, stats in service.health()["caches"].items():
            hits[cache] += stats["hits"]
            lookups[cache] += stats["hits"] + stats["misses"]
    channel, allocation = (
        hits[cache] / lookups[cache] if lookups[cache] else 0.0
        for cache in ("channel", "allocation")
    )
    return channel, allocation


#: The latency percentiles every report carries (p50, p95, p99).
_PERCENTILES = (50.0, 95.0, 99.0)


def _sojourn_percentiles_ms(sojourns: Sequence[float]) -> List[float]:
    if not sojourns:
        return [0.0 for _ in _PERCENTILES]
    samples = np.asarray(sojourns, dtype=float)
    return [float(1e3 * np.percentile(samples, q)) for q in _PERCENTILES]


def _report(
    replayer: TraceReplayer,
    target: str,
    label: str,
    mode: str,
    results: Sequence[AllocationResult],
    shed: int,
    duration: float,
    latencies_ms: Sequence[float],
    services: Sequence[AllocationService],
    registries: Sequence[MetricsRegistry],
    stages_before: StageTotals,
    slo: Optional[SLOObserver],
) -> PerfReport:
    """The run as one :class:`PerfReport`.

    Stage self times are the stage-histogram delta since
    *stages_before*, so a reused service reports only this run.
    """
    served = len(results)
    degraded = sum(1 for result in results if result.degraded)
    total = served + shed
    p50, p95, p99 = latencies_ms
    channel_hit_rate, allocation_hit_rate = _hit_rates(services)
    return PerfReport(
        label=f"{label}:{replayer.trace.scenario}",
        target=target,
        scenario=replayer.trace.scenario,
        seed=replayer.trace.seed,
        stream_digest=replayer.stream_digest(),
        mode=mode,
        requests=replayer.requests,
        served=served,
        shed=shed,
        duration_seconds=duration,
        requests_per_second=(
            served / duration if duration > 0 else float("inf")
        ),
        p50_latency_ms=p50,
        p95_latency_ms=p95,
        p99_latency_ms=p99,
        shed_rate=shed / total if total else 0.0,
        degraded_rate=degraded / served if served else 0.0,
        channel_hit_rate=channel_hit_rate,
        allocation_hit_rate=allocation_hit_rate,
        stage_self_ms={
            row["stage"]: row["self_ms"]
            for row in attribution_table(
                stage_totals(registries), stages_before
            )
        },
        slo=dict(slo.snapshot()) if slo is not None else {},
        counters=_counters(registries),
        environment=environment_fingerprint(),
    )


def replay_service(
    replayer: TraceReplayer,
    mode: str = "closed",
    speed: float = 1.0,
    rate: float = 0.0,
    cache_capacity: int = 256,
    tracer: Optional[Tracer] = None,
    slo: Optional[SLOObserver] = None,
    service: Optional[AllocationService] = None,
) -> PerfReport:
    """Replay the trace against one :class:`AllocationService`.

    The service defaults to :func:`service_for` (the scenario's rebuilt
    scene with its compiled fault plan: a replayed outage replays its
    faults); an explicit *service* replaces it, and *tracer* and
    *cache_capacity* then go unused.  In ``recorded``/``scaled``/
    ``closed`` modes, entries sharing an arrival instant are served as
    one batch; ``fixed`` mode serves requests singly at ``1/rate``
    spacing.  Latencies are per-request service times.  The single
    service never sheds, so ``shed`` is always 0 here.
    """
    _validate_mode(mode, speed, rate)
    if service is None:
        service = service_for(replayer, cache_capacity, tracer)
    if slo is not None:
        service.attach_slo(slo)
    stages_before = stage_totals([service.metrics])
    records = replayer.trace.records
    first_arrival = records[0].arrival_seconds
    results: List[AllocationResult] = []
    origin = time.perf_counter()
    if mode == "fixed":
        for n, (_, request) in enumerate(replayer.timed_requests()):
            delay = n / rate - (time.perf_counter() - origin)
            if delay > 0:
                time.sleep(delay)
            results.append(service.handle(request))
    else:
        for arrival, batch in replayer.arrival_batches():
            if mode in ("recorded", "scaled"):
                target = (arrival - first_arrival) / (
                    speed if mode == "scaled" else 1.0
                )
                delay = target - (time.perf_counter() - origin)
                if delay > 0:
                    time.sleep(delay)
            results.extend(service.handle_batch(batch))
    duration = time.perf_counter() - origin
    latency = service.metrics.histogram("service.latency_seconds")
    latencies = [
        1e3 * latency.percentile(q) if latency.count else 0.0
        for q in _PERCENTILES
    ]
    return _report(
        replayer,
        target="service",
        label="service",
        mode=mode,
        results=results,
        shed=0,
        duration=duration,
        latencies_ms=latencies,
        services=[service],
        registries=[service.metrics],
        stages_before=stages_before,
        slo=slo,
    )


def replay_sequential(
    replayer: TraceReplayer, cache_capacity: int = 256
) -> PerfReport:
    """Serve the trace back to back on one service: the cluster baseline.

    Every request counts as arriving at one common instant and is
    handled singly, in order; its latency is its sojourn from that
    instant -- the same meaning :func:`replay_cluster` reports, so the
    two compare directly.
    """
    service = service_for(replayer, cache_capacity)
    stages_before = stage_totals([service.metrics])
    results: List[AllocationResult] = []
    sojourns: List[float] = []
    start = time.perf_counter()
    for _, request in replayer.timed_requests():
        results.append(service.handle(request))
        sojourns.append(time.perf_counter() - start)
    duration = time.perf_counter() - start
    return _report(
        replayer,
        target="service",
        label="sequential",
        mode="sequential",
        results=results,
        shed=0,
        duration=duration,
        latencies_ms=_sojourn_percentiles_ms(sojourns),
        services=[service],
        registries=[service.metrics],
        stages_before=stages_before,
        slo=None,
    )


async def _serve_front_door(
    frontend: ClusterFrontend,
    workload: Sequence[AllocationRequest],
    rate: float,
) -> Tuple[float, List[float], List[AllocationResult], int]:
    """Submit *workload*; sojourns measured from the common start instant.

    ``rate <= 0`` submits everything at once (closed-loop); ``rate > 0``
    spaces submissions ``1/rate`` apart.  Returns ``(duration,
    served_sojourns, served_results, shed_count)``.
    """
    start = time.perf_counter()

    async def timed(
        request: AllocationRequest,
    ) -> Tuple[Optional[float], Optional[AllocationResult]]:
        try:
            result = await frontend.submit(request)
        except RequestShedError:
            return None, None
        return time.perf_counter() - start, result

    if rate > 0:
        tasks = []
        for n, request in enumerate(workload):
            delay = n / rate - (time.perf_counter() - start)
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(timed(request)))
        outcomes = await asyncio.gather(*tasks)
    else:
        outcomes = await asyncio.gather(
            *(timed(request) for request in workload)
        )
    duration = time.perf_counter() - start
    sojourns = [s for s, _ in outcomes if s is not None]
    results = [r for _, r in outcomes if r is not None]
    return duration, sojourns, results, len(outcomes) - len(results)


def replay_cluster(
    replayer: TraceReplayer,
    shards: int = 4,
    rate: float = 0.0,
    batch_max: int = 16,
    cache_capacity: int = 256,
    tracer: Optional[Tracer] = None,
    slo: Optional[SLOObserver] = None,
    controller: Optional[ClusterController] = None,
) -> PerfReport:
    """Replay the trace through the sharded cluster front door.

    ``rate <= 0`` is closed-loop (the whole trace arrives at once);
    ``rate > 0`` paces arrivals ``1/rate`` apart.  Recorded offsets are
    not replayed here -- the front door's admission control reacts to
    instantaneous pressure, which closed-loop and paced modes probe
    directly.  The controller defaults to :func:`cluster_for`, so every
    shard injects the scenario's fault plan; an explicit *controller*
    replaces it (*shards*, *cache_capacity* and *tracer* then go
    unused).  Latencies are sojourns from the common start instant;
    hit rates and counters are pooled over the shards.
    """
    if controller is None:
        controller = cluster_for(replayer, shards, cache_capacity, tracer)
    if slo is not None:
        for shard in controller.shards():
            shard.service.attach_slo(slo)
    workload = [request for _, request in replayer.timed_requests()]
    stages_before = stage_totals(controller.registries().values())

    async def _run() -> Tuple[float, List[float], List[AllocationResult], int]:
        options = FrontendOptions(batch_max=batch_max)
        async with ClusterFrontend(controller, options) as frontend:
            return await _serve_front_door(frontend, workload, rate)

    duration, sojourns, results, shed = asyncio.run(_run())
    services = [shard.service for shard in controller.shards()]
    return _report(
        replayer,
        target="cluster",
        label="cluster",
        mode="closed" if rate <= 0 else "fixed",
        results=results,
        shed=shed,
        duration=duration,
        latencies_ms=_sojourn_percentiles_ms(sojourns),
        services=services,
        registries=list(controller.registries().values()),
        stages_before=stages_before,
        slo=slo,
    )


def find_knee(
    run_at_rate: Callable[[float], Dict[str, float]],
    start_rate: float = 100.0,
    growth: float = 2.0,
    max_steps: int = 6,
    shed_budget: float = 0.05,
    keep_up_fraction: float = 0.9,
) -> List[Dict[str, float]]:
    """Escalate offered rates until a serving source stops keeping up.

    *run_at_rate* serves one fixed workload at the offered rate -- on a
    *fresh* serving stack each step, so queue state never leaks between
    steps -- and returns at least ``{achieved_rps, shed_fraction,
    p95_latency_ms}``.  Each step multiplies the rate by *growth* and
    the sweep stops once achieved throughput drops below
    *keep_up_fraction* of offered or the shed fraction exceeds
    *shed_budget* -- the knee.  Returns one record per step
    (``offered_rps`` added), knee included.
    """
    if start_rate <= 0:
        raise ConfigurationError(
            f"start_rate must be positive, got {start_rate}"
        )
    if growth <= 1.0:
        raise ConfigurationError(f"growth must be > 1, got {growth}")
    points: List[Dict[str, float]] = []
    rate = start_rate
    for _ in range(max_steps):
        point = dict(run_at_rate(rate))
        point["offered_rps"] = rate
        points.append(point)
        if (
            point["achieved_rps"] < keep_up_fraction * rate
            or point["shed_fraction"] > shed_budget
        ):
            break
        rate *= growth
    return points


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
    cluster at the offered rate (no queue state leaks between steps).
    """
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
