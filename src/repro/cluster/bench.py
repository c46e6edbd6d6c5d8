"""Closed-loop and rate-paced benchmarking of the sharded cluster.

The cluster's throughput story is batch amortization plus coalescing,
not thread parallelism: shard workers drain concurrent arrivals into
single ``handle_batch`` calls (one channel broadcast, one pool fan-out
per batch) and identical concurrent requests collapse onto one solve.
The honest comparison is therefore *closed-loop*: the same seeded
mixed-room workload arrives all at once, served either by the cluster
front door or by one unbatched :class:`AllocationService` handling
requests back to back.  Both sides report sojourn latency -- time from
the common arrival instant to each request's completion -- so queueing
delay is charged equally.

:func:`run_cluster_benchmark` also offers a *rate-paced* open-loop mode
(``rate > 0``) where arrivals are spaced ``1/rate`` apart, and
:func:`knee_sweep` escalates offered rates until the cluster stops
keeping up (achieved < 90 % of offered, or shedding exceeds its
budget) -- the req/s knee.

The workload mixes hot rooms (a few placements receiving most of the
traffic: coalescing and cache hits) with a cold tail of distinct
placements (batch amortization of channel stacks), drawn from the same
Fig. 6 placement generator the runtime benchmark uses, fully seeded.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ClusterError, RequestShedError
from ..runtime.service import (
    AllocationRequest,
    AllocationService,
    ServiceOptions,
    SLOObserver,
)
from ..runtime.tracing import Tracer
from ..system import Scene, simulation_scene
from .controller import ClusterController, ClusterOptions
from .frontend import ClusterFrontend, FrontendOptions

__all__ = [
    "ClusterBenchReport",
    "cluster_workload",
    "find_knee",
    "knee_sweep",
    "run_cluster_benchmark",
]


def cluster_workload(
    requests: int,
    distinct_placements: int = 25,
    hot_rooms: int = 4,
    hot_fraction: float = 0.5,
    solver: str = "heuristic",
    power_budget: float = 1.2,
    deadline_seconds: Optional[float] = None,
    seed: int = 0,
) -> Tuple[Scene, List[AllocationRequest]]:
    """A seeded mixed-room workload plus the scene it plays in.

    *hot_fraction* of the requests target the first *hot_rooms*
    placements (repeat traffic: coalescing/cache hits); the rest draw
    uniformly from all *distinct_placements* (the cold tail that batch
    dispatch amortizes).  The same ``(requests, distinct, seed)`` always
    produces the same request list.
    """
    from ..experiments.scenarios import fig6_instances

    if requests < 1:
        raise ClusterError(f"need at least 1 request, got {requests}")
    if not 0.0 <= hot_fraction <= 1.0:
        raise ClusterError(
            f"hot_fraction must be in [0, 1], got {hot_fraction}"
        )
    distinct = max(1, min(distinct_placements, requests))
    hot = max(1, min(hot_rooms, distinct))
    placements = fig6_instances(instances=distinct, seed=seed)
    scene = simulation_scene(
        [(float(x), float(y)) for x, y in placements[0]]
    )
    rng = np.random.default_rng(seed)
    hot_mask = rng.random(size=requests) < hot_fraction
    hot_draw = rng.integers(0, hot, size=requests)
    cold_draw = rng.integers(0, distinct, size=requests)
    order = np.where(hot_mask, hot_draw, cold_draw)
    workload = [
        AllocationRequest(
            rx_positions_xy=tuple(
                (float(x), float(y)) for x, y in placements[int(index)]
            ),
            power_budget=power_budget,
            solver=solver,
            tag=f"cluster-bench-{n}",
            deadline_seconds=deadline_seconds,
        )
        for n, index in enumerate(order)
    ]
    return scene, workload


@dataclass
class ClusterBenchReport:
    """One cluster-vs-baseline benchmark run, CLI- and JSON-friendly."""

    shards: int
    requests: int
    distinct_placements: int
    solver: str
    rate: float
    # Cluster side (closed-loop sojourn from the common arrival instant).
    duration_seconds: float
    served: int
    shed: int
    requests_per_second: float
    p50_latency_ms: float
    p95_latency_ms: float
    coalesced: int
    coalesce_hit_rate: float
    dispatches: int
    mean_batch_size: float
    shed_by_reason: Dict[str, float] = field(default_factory=dict)
    per_shard: Dict[str, Dict[str, float]] = field(default_factory=dict)
    # Baseline side (sequential single-service sojourns).
    baseline_requests_per_second: float = 0.0
    baseline_p50_latency_ms: float = 0.0
    baseline_p95_latency_ms: float = 0.0
    speedup: float = 0.0
    knee: List[Dict[str, float]] = field(default_factory=list)
    slo: Dict[str, Any] = field(default_factory=dict)

    def lines(self) -> List[str]:
        mode = (
            "closed-loop" if self.rate <= 0 else f"paced {self.rate:.0f}/s"
        )
        lines = [
            f"shards              {self.shards}",
            f"requests            {self.requests} ({mode})",
            f"distinct placements {self.distinct_placements}",
            f"solver              {self.solver}",
            f"served / shed       {self.served} / {self.shed}",
            f"throughput          {self.requests_per_second:.1f} req/s",
            f"p50 sojourn         {self.p50_latency_ms:.3f} ms",
            f"p95 sojourn         {self.p95_latency_ms:.3f} ms",
            f"coalesced           {self.coalesced} "
            f"(hit rate {self.coalesce_hit_rate:.2f})",
            f"dispatches          {self.dispatches} "
            f"(mean batch {self.mean_batch_size:.1f})",
        ]
        for reason, count in sorted(self.shed_by_reason.items()):
            lines.append(f"shed[{reason:<9}]     {count:.0f}")
        for shard_id, stats in sorted(self.per_shard.items()):
            lines.append(
                f"{shard_id:<12} {stats['requests']:.0f} req  "
                f"p50 {stats['p50_latency_ms']:.3f} ms  "
                f"p95 {stats['p95_latency_ms']:.3f} ms"
            )
        if self.baseline_requests_per_second > 0:
            lines.extend(
                [
                    "baseline (1 service, sequential):",
                    f"  throughput        "
                    f"{self.baseline_requests_per_second:.1f} req/s",
                    f"  p50 sojourn       "
                    f"{self.baseline_p50_latency_ms:.3f} ms",
                    f"  p95 sojourn       "
                    f"{self.baseline_p95_latency_ms:.3f} ms",
                    f"  speedup           {self.speedup:.2f}x",
                ]
            )
        for point in self.knee:
            lines.append(
                f"knee rate {point['offered_rps']:.0f}/s -> "
                f"{point['achieved_rps']:.1f} req/s  "
                f"shed {point['shed_fraction']:.2f}  "
                f"p95 {point['p95_latency_ms']:.3f} ms"
            )
        for objective in self.slo.get("objectives", []):
            lines.append(
                f"slo {objective['name']:<15} "
                f"{100 * objective['compliance']:.2f}% "
                f"(target {100 * objective['target']:.1f}%, budget "
                f"{100 * objective['budget_remaining']:.1f}% left)"
            )
        return lines

    def as_dict(self) -> dict:
        return {
            "shards": self.shards,
            "requests": self.requests,
            "distinct_placements": self.distinct_placements,
            "solver": self.solver,
            "rate": self.rate,
            "duration_seconds": self.duration_seconds,
            "served": self.served,
            "shed": self.shed,
            "requests_per_second": self.requests_per_second,
            "p50_latency_ms": self.p50_latency_ms,
            "p95_latency_ms": self.p95_latency_ms,
            "coalesced": self.coalesced,
            "coalesce_hit_rate": self.coalesce_hit_rate,
            "dispatches": self.dispatches,
            "mean_batch_size": self.mean_batch_size,
            "shed_by_reason": dict(self.shed_by_reason),
            "per_shard": {k: dict(v) for k, v in self.per_shard.items()},
            "baseline_requests_per_second": (
                self.baseline_requests_per_second
            ),
            "baseline_p50_latency_ms": self.baseline_p50_latency_ms,
            "baseline_p95_latency_ms": self.baseline_p95_latency_ms,
            "speedup": self.speedup,
            "knee": [dict(point) for point in self.knee],
            "slo": dict(self.slo),
        }


def _shard_service_options(cache_capacity: int) -> ServiceOptions:
    return ServiceOptions(
        channel_cache_capacity=cache_capacity,
        allocation_cache_capacity=4 * cache_capacity,
    )


async def _serve_workload(
    frontend: ClusterFrontend,
    workload: Sequence[AllocationRequest],
    rate: float,
) -> Tuple[float, List[float], int, List[bool]]:
    """Serve *workload*; sojourns measured from the common start instant.

    Returns ``(duration, served_sojourns, shed_count, deadline_flags)``.
    """
    start = time.perf_counter()

    async def timed(
        request: AllocationRequest,
    ) -> Tuple[Optional[float], bool]:
        try:
            result = await frontend.submit(request)
        except RequestShedError:
            return None, False
        return time.perf_counter() - start, result.deadline_exceeded

    if rate > 0:
        tasks = []
        for n, request in enumerate(workload):
            target = n / rate
            delay = target - (time.perf_counter() - start)
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
    flags = [flag for s, flag in outcomes if s is not None]
    shed = sum(1 for s, _ in outcomes if s is None)
    return duration, sojourns, shed, flags


def _run_baseline(
    scene: Scene,
    workload: Sequence[AllocationRequest],
    cache_capacity: int,
) -> Tuple[float, List[float]]:
    """Sequential single-service sojourns for the same arrival burst."""
    service = AllocationService(
        scene, options=_shard_service_options(cache_capacity)
    )
    sojourns: List[float] = []
    start = time.perf_counter()
    for request in workload:
        service.handle(request)
        sojourns.append(time.perf_counter() - start)
    duration = time.perf_counter() - start
    return duration, sojourns


def _percentile_ms(samples: Sequence[float], q: float) -> float:
    if not samples:
        return 0.0
    return float(1e3 * np.percentile(np.asarray(samples, dtype=float), q))


def _per_shard_stats(controller: ClusterController) -> Dict[str, Dict[str, float]]:
    stats: Dict[str, Dict[str, float]] = {}
    for shard in controller.shards():
        registry = shard.service.metrics
        sojourn = registry.histogram("frontend.sojourn_seconds")
        # A shard may have served nothing (all its keys shed); its
        # percentiles are undefined then.
        served_any = sojourn.count > 0
        stats[shard.shard_id] = {
            "requests": registry.counter("service.requests").value,
            "p50_latency_ms": 1e3 * sojourn.percentile(50.0) if served_any else 0.0,
            "p95_latency_ms": 1e3 * sojourn.percentile(95.0) if served_any else 0.0,
            "channel_hit_rate": shard.service.channel_hit_rate,
            "allocation_hit_rate": shard.service.allocation_hit_rate,
        }
    return stats


def run_cluster_benchmark(
    requests: int = 200,
    shards: int = 4,
    distinct_placements: int = 25,
    solver: str = "heuristic",
    power_budget: float = 1.2,
    rate: float = 0.0,
    deadline_seconds: Optional[float] = None,
    batch_max: int = 16,
    cache_capacity: int = 256,
    hot_rooms: int = 4,
    hot_fraction: float = 0.5,
    seed: int = 0,
    baseline: bool = True,
    knee: bool = False,
    tracer: Optional[Tracer] = None,
    controller: Optional[ClusterController] = None,
    scene: Optional[Scene] = None,
    workload: Optional[Sequence[AllocationRequest]] = None,
    slo: Optional[SLOObserver] = None,
) -> ClusterBenchReport:
    """Benchmark the cluster on a seeded mixed-room workload.

    ``rate <= 0`` is the closed-loop mode: the whole workload arrives at
    once and sojourn latency includes queueing.  ``rate > 0`` paces
    arrivals ``1/rate`` apart.  With *baseline* (default) the identical
    workload is also served sequentially by a single fresh
    :class:`AllocationService` for the speedup comparison; *knee* adds
    an escalating-rate sweep on a fresh cluster afterwards.

    An explicit ``(scene, workload)`` pair -- e.g. a named
    ``repro.scenarios`` trace handed down by the CLI -- replaces the
    built-in mixed-room generator; both must be given together so the
    requests match the scene's receiver count.

    An *slo* observer (see :class:`repro.runtime.service.SLOObserver`)
    is attached to every shard service, sees each served request
    cluster-wide, and its snapshot lands in ``ClusterBenchReport.slo``.
    """
    if (scene is None) != (workload is None):
        raise ClusterError(
            "scene and workload must be provided together or not at all"
        )
    if scene is None or workload is None:
        scene, generated = cluster_workload(
            requests=requests,
            distinct_placements=distinct_placements,
            hot_rooms=hot_rooms,
            hot_fraction=hot_fraction,
            solver=solver,
            power_budget=power_budget,
            deadline_seconds=deadline_seconds,
            seed=seed,
        )
        workload = generated
    else:
        if not workload:
            raise ClusterError("an injected workload must be non-empty")
        workload = list(workload)
        requests = len(workload)
        # The knee sweep regenerates traffic over this many placements.
        distinct_placements = len(
            {request.rx_positions_xy for request in workload}
        )
        solver = workload[0].solver
    if controller is None:
        controller = ClusterController(
            scene,
            options=ClusterOptions(
                shards=shards,
                service=_shard_service_options(cache_capacity),
            ),
            tracer=tracer,
        )
    if slo is not None:
        for shard in controller.shards():
            shard.service.attach_slo(slo)
    frontend_options = FrontendOptions(batch_max=batch_max)

    async def _run() -> Tuple[float, List[float], int, List[bool]]:
        async with ClusterFrontend(controller, frontend_options) as frontend:
            return await _serve_workload(frontend, workload, rate)

    duration, sojourns, shed, _ = asyncio.run(_run())

    counters = controller.metrics
    coalesced = counters.counter("cluster.coalesced").value
    submitted = counters.counter("cluster.submitted").value
    dispatches = counters.counter("cluster.dispatches").value
    batch_hist = counters.histogram("cluster.batch_size")
    # Rendered counter keys look like `cluster.shed{reason="deadline"}`.
    shed_by_reason = {
        key.split("reason=", 1)[1].strip('}"'): value
        for key, value in counters.counters_with_prefix(
            "cluster.shed"
        ).items()
        if "reason=" in key
    }
    served = len(sojourns)
    report = ClusterBenchReport(
        shards=len(controller.shard_ids),
        requests=requests,
        distinct_placements=len({r.rx_positions_xy for r in workload}),
        solver=solver,
        rate=rate,
        duration_seconds=duration,
        served=served,
        shed=shed,
        requests_per_second=(
            served / duration if duration > 0 else float("inf")
        ),
        p50_latency_ms=_percentile_ms(sojourns, 50.0),
        p95_latency_ms=_percentile_ms(sojourns, 95.0),
        coalesced=int(coalesced),
        coalesce_hit_rate=(
            coalesced / submitted if submitted > 0 else 0.0
        ),
        dispatches=int(dispatches),
        mean_batch_size=batch_hist.mean if batch_hist.count else 0.0,
        shed_by_reason=shed_by_reason,
        per_shard=_per_shard_stats(controller),
        slo=dict(slo.snapshot()) if slo is not None else {},
    )
    if baseline:
        base_duration, base_sojourns = _run_baseline(
            scene, workload, cache_capacity
        )
        report.baseline_requests_per_second = (
            len(base_sojourns) / base_duration
            if base_duration > 0
            else float("inf")
        )
        report.baseline_p50_latency_ms = _percentile_ms(base_sojourns, 50.0)
        report.baseline_p95_latency_ms = _percentile_ms(base_sojourns, 95.0)
        if report.baseline_requests_per_second > 0:
            report.speedup = (
                report.requests_per_second
                / report.baseline_requests_per_second
            )
    if knee:
        report.knee = knee_sweep(
            requests=requests,
            shards=shards,
            distinct_placements=distinct_placements,
            solver=solver,
            power_budget=power_budget,
            deadline_seconds=deadline_seconds,
            batch_max=batch_max,
            cache_capacity=cache_capacity,
            seed=seed,
            start_rate=max(100.0, report.requests_per_second / 4),
        )
    return report


def find_knee(
    run_at_rate: Callable[[float], Dict[str, float]],
    start_rate: float = 100.0,
    growth: float = 2.0,
    max_steps: int = 6,
    shed_budget: float = 0.05,
    keep_up_fraction: float = 0.9,
) -> List[Dict[str, float]]:
    """Escalate offered rates until a serving source stops keeping up.

    The generic knee finder behind :func:`knee_sweep` (and
    ``repro.obs``'s trace replays): *run_at_rate* serves one fixed
    workload at the offered rate -- on a *fresh* serving stack each
    step, so queue state never leaks between steps -- and returns at
    least ``{achieved_rps, shed_fraction, p95_latency_ms}``.  Each step
    multiplies the rate by *growth* and the sweep stops once achieved
    throughput drops below *keep_up_fraction* of offered or the shed
    fraction exceeds *shed_budget* -- the knee.  Returns one record per
    step (``offered_rps`` added), knee included.
    """
    if start_rate <= 0:
        raise ClusterError(f"start_rate must be positive, got {start_rate}")
    if growth <= 1.0:
        raise ClusterError(f"growth must be > 1, got {growth}")
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


def knee_sweep(
    requests: int = 200,
    shards: int = 4,
    distinct_placements: int = 25,
    solver: str = "heuristic",
    power_budget: float = 1.2,
    deadline_seconds: Optional[float] = None,
    batch_max: int = 16,
    cache_capacity: int = 256,
    seed: int = 0,
    start_rate: float = 100.0,
    growth: float = 2.0,
    max_steps: int = 6,
    shed_budget: float = 0.05,
) -> List[Dict[str, float]]:
    """Escalate offered rates until the cluster stops keeping up.

    Each step doubles (``growth``) the offered rate on a *fresh*
    cluster and stops once achieved throughput drops below 90 % of
    offered or the shed fraction exceeds *shed_budget* -- the knee.
    Returns one ``{offered_rps, achieved_rps, shed_fraction,
    p95_latency_ms}`` record per step, knee included.
    """

    def run_at_rate(rate: float) -> Dict[str, float]:
        report = run_cluster_benchmark(
            requests=requests,
            shards=shards,
            distinct_placements=distinct_placements,
            solver=solver,
            power_budget=power_budget,
            rate=rate,
            deadline_seconds=deadline_seconds,
            batch_max=batch_max,
            cache_capacity=cache_capacity,
            seed=seed,
            baseline=False,
            knee=False,
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
