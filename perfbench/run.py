"""Outside-in benchmark of the allocation-serving stack.

Run from the repository root:

    python3 perfbench/run.py --workload mobility-swing --seed 1 --seconds 30 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

- ``mobility-swing``: closed loop, one caller.  Each epoch of a
  240-receiver random-waypoint fleet (the ``waypoint-fleet`` settings)
  goes into one ``AllocationService.handle_batch`` on the ``swing`` tier.
- ``hotspot-cluster``: ``ClusterFrontend.submit`` with one shard per
  CPU.  Hotspot-dwell placements on the ``heuristic`` tier, each carrying
  a deadline (``traffic.DEADLINE_SECONDS``).  An open-loop ladder of
  fixed rates finds the highest rate within the 100 ms ``obs.slo``
  objective; a closed loop of :data:`SATURATION_CALLERS` callers then
  gives the throughput and latencies in the JSON.  Open-loop requests
  are timed from when they were due.
- ``budget-sweep-optimal``: closed loop, one request at a time.  Whole
  passes over a fixed pool of Fig. 6 placements (seeded order, seeded
  jitter of a few cm), each placement swept down a Fig. 9 budget ladder
  on the ``optimal`` tier on a newly built service.

With ``--trace 0`` the last line is a JSON object carrying the
end-to-end metrics.  With ``--trace 1`` the time is split into an
untraced and a traced half over the same traffic, and the JSON carries
the per-layer metrics.  Every served allocation is checked
(``check.py``); a failed check sets ``"correct": false``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
# One BLAS thread: the serving stack brings its own threads, and spinning
# BLAS workers on a small shared box turn neighbours' load into swings of
# several times in SLSQP solve time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import traffic  # noqa: E402
from check import Checker  # noqa: E402
from layers import LayerTrace, attribute  # noqa: E402

#: Set-up (scene, service or cluster, front door) is built at least this
#: many times back to back per measurement.
SETUP_REPEATS = 7
#: Where set-up is also timed throughout the run, the times are pooled
#: into this many interleaved groups (see :func:`spread_setup_s`).
SETUP_GROUPS = 5


@dataclass(frozen=True)
class Spec:
    """Per-workload reporting choices.

    ``tail``: the latency percentile reported as ``latency_tail_ms`` --
    the highest one that both leaves at least ten requests beyond it in
    a run and reads steadily from run to run on a shared 2-CPU box.
    ``sample_every``: one served request in this many is re-solved from
    scratch by the correctness check.
    """

    tail: float
    sample_every: int


SPECS = {
    "mobility-swing": Spec(tail=99.0, sample_every=400),
    "hotspot-cluster": Spec(tail=99.0, sample_every=300),
    "budget-sweep-optimal": Spec(tail=90.0, sample_every=40),
}

#: hotspot-cluster: the warm-up rate [req/s], the open-loop ladder of
#: fixed rates (it stops after two consecutive rates miss the objective,
#: so one stall on a shared box does not end the search), and the caller
#: count of the saturating closed loop that follows it.
WARMUP_RPS = 400.0
LADDER_START_RPS = 600.0
LADDER_GROWTH = 1.10
SATURATION_CALLERS = 4
#: Cluster start-ups timed after every step, for ``setup_s``.
SETUP_PER_STEP = 3
#: Shares of the measured time: warm-up (not counted), each ladder step,
#: and saturation.  Saturation runs last: its callers take requests from
#: the stream as fast as they are served, so a step after it would start
#: at a load-dependent point of the stream.
WARMUP_SHARE = 0.05
STEP_SHARE = 0.05
SATURATION_SHARE = 0.30
#: Within the objective: p99 <= 100 ms, shed + failed <= 1% of attempted,
#: and no backlog growth over the step.
MAX_LOSS_FRAC = 0.01

#: Closed loops report the median of their per-window rates, each window
#: at least this much serving time, so that one slow stretch of a shared
#: box or one hard placement moves one window, not the figure.
RATE_WINDOW_SECONDS = 1.0

#: Upper bounds on request rates, used only to size the pre-generated
#: streams so that a much faster program cannot run dry.
MOBILITY_MAX_RPS = 700.0
BUDGET_MAX_RPS = 60.0
SATURATION_MAX_RPS = 3000.0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile_ms(seconds: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds, dtype=float), q) * 1e3)


def supported(n: int, q: float) -> bool:
    """Whether *n* samples leave at least ten beyond percentile *q*."""
    return n * (1.0 - q / 100.0) >= 10.0 - 1e-9


def highest_supported(n: int) -> Optional[float]:
    return next(
        (q for q in (99.0, 95.0, 90.0, 75.0, 50.0) if supported(n, q)), None
    )


def windowed_percentile_ms(seconds: Sequence[float], q: float) -> Tuple[float, int]:
    """Median over consecutive windows of percentile *q*, and the window count.

    Each window holds enough samples to leave ten beyond *q*, so one
    stall moves one window's figure, not the reported median.
    """
    size = int(np.ceil(10.0 / (1.0 - q / 100.0) - 1e-9))
    windows = max(1, len(seconds) // size)
    chunks = np.array_split(np.asarray(seconds, dtype=float), windows)
    return statistics.median(percentile_ms(c, q) for c in chunks), windows


def spread_setup_s(times: Sequence[float]) -> float:
    """Median of the means of :data:`SETUP_GROUPS` interleaved groups of *times*.

    On a shared box a build takes 1.6 times as long in some sub-second
    stretches as in others.  Builds timed back to back fall in one
    stretch, so their median read one speed or the other from run to
    run.  Each interleaved group spans the whole run, and its mean
    weighs both speeds by how long each lasted.
    """
    groups = [times[k::SETUP_GROUPS] for k in range(SETUP_GROUPS)]
    return statistics.median(statistics.fmean(g) for g in groups if g)


# ----------------------------------------------------------------------
# Phases: a closed-loop run, or one offered rate of the open loop
# ----------------------------------------------------------------------


@dataclass
class Phase:
    label: str
    rate: Optional[float] = None
    attempted: int = 0
    served: int = 0
    degraded: int = 0
    shed: int = 0
    raised: Dict[str, int] = field(default_factory=dict)
    #: Served requests: tag -> latency [s], in completion order.
    latencies: Dict[str, float] = field(default_factory=dict)
    #: Open loop only: tag -> how late the request was sent [s].
    send_lags: Dict[str, float] = field(default_factory=dict)
    elapsed: float = 0.0
    backlog_grew: bool = False
    #: Closed loop only: requests served per second in each rate window.
    window_rates: List[float] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.raised.values())

    @property
    def throughput(self) -> float:
        return self.served / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def reported_throughput(self) -> float:
        """Median window rate where windows were kept, else the mean rate."""
        if self.window_rates:
            return statistics.median(self.window_rates)
        return self.throughput

    def count_error(self, error: BaseException, count: int = 1) -> None:
        from repro.errors import RequestShedError

        if isinstance(error, RequestShedError):
            self.shed += count
        else:
            name = type(error).__name__
            self.raised[name] = self.raised.get(name, 0) + count

    def count_results(self, results: Sequence) -> None:
        self.served += len(results)
        self.degraded += sum(
            1 for r in results if r.degraded or r.deadline_exceeded
        )

    def within_objective(self) -> bool:
        values = list(self.latencies.values())
        q = 99.0 if supported(len(values), 99.0) else highest_supported(len(values))
        return (
            q is not None
            and self.shed + self.failed <= MAX_LOSS_FRAC * self.attempted
            and percentile_ms(values, q) <= traffic.SLO_SECONDS * 1e3
            and not self.backlog_grew
        )

    def line(self) -> str:
        values = list(self.latencies.values())
        text = (
            f"{self.label:>12}: attempted {self.attempted} served {self.served} "
            f"shed {self.shed} failed {self.failed}"
        )
        if self.raised:
            text += f" {self.raised}"
        if not values:
            return text
        text += f" | {self.throughput:.1f} req/s | p50 {percentile_ms(values, 50):.3f} ms"
        q = highest_supported(len(values))
        if q is not None and q > 50:
            text += f" p{q:g} {percentile_ms(values, q):.3f} ms"
        text += f" (n={len(values)})"
        if self.send_lags:
            lags = list(self.send_lags.values())
            text += f" | send lag p99 {percentile_ms(lags, 99):.3f} ms"
        if self.rate is not None:
            text += (
                " | within objective" if self.within_objective()
                else " | misses objective"
            )
        return text


@dataclass
class Measurement:
    """One measured pass over a workload's traffic."""

    setup_s: float
    #: Every phase run, for the report.
    phases: List[Phase]
    #: The phase behind the JSON metrics.
    measured: Phase
    #: Metric snapshots: one per service, plus the cluster's own.
    snapshots: List[dict]
    cluster_snapshot: dict = field(default_factory=dict)
    #: Open-loop ladder only.
    max_rps_within_slo: Optional[float] = None
    send_lag_p99_ms: Optional[float] = None


def timed_setup(build: Callable[[], object]) -> Tuple[float, object]:
    """Median build time over :data:`SETUP_REPEATS`; returns the last build."""
    times = []
    built = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - start)
    return statistics.median(times), built


# ----------------------------------------------------------------------
# Closed loop, one caller
# ----------------------------------------------------------------------


def build_service(first_group):
    from repro.runtime.service import AllocationService
    from repro.system import simulation_scene

    return AllocationService(simulation_scene(first_group))


def serve_closed(service, batches, phase: Phase, checker: Checker, seconds: float, window: float) -> None:
    """Each batch goes in once the previous one returned, for *seconds* of serving.

    The rate over every *window* seconds of serving is kept in *phase*.
    """
    window_served, window_busy = 0, 0.0
    for batch in batches:
        if phase.elapsed >= seconds:
            break
        phase.attempted += len(batch)
        start = time.perf_counter()
        try:
            results = service.handle_batch(batch)
        except Exception as error:  # counted as failed; the run goes on
            phase.count_error(error, len(batch))
            results = []
        latency = time.perf_counter() - start
        phase.elapsed += latency
        window_served += len(results)
        window_busy += latency
        if window_busy >= window:
            phase.window_rates.append(window_served / window_busy)
            window_served, window_busy = 0, 0.0
        phase.count_results(results)
        for result in results:
            phase.latencies[result.request.tag] = latency
        checker.add(service.scene, service.noise, results)


def measure_closed(first_group, batches, seconds: float, checker: Checker) -> Measurement:
    """One service serving *batches* in a closed loop for *seconds*."""
    setup_s, service = timed_setup(lambda: build_service(first_group))
    phase = Phase("closed loop")
    serve_closed(service, batches, phase, checker, seconds, RATE_WINDOW_SECONDS)
    return Measurement(
        setup_s=setup_s, phases=[phase], measured=phase,
        snapshots=[service.metrics_snapshot()],
    )


def measure_passes(first_group, passes, seconds: float, checker: Checker) -> Measurement:
    """Whole passes in a closed loop, each sweep on a newly built service.

    A pass starts only while one more pass of the mean length so far
    still ends within *seconds* of serving, so a run serves whole passes
    only.  Each pass's rate is one window of the reported throughput.
    A service per sweep keeps the warm-start memory to one placement:
    shared across placements, it warm-started each top-rung solve from
    whichever placement the seeded order put before it, and that moved
    single solve times fivefold.  Every build is timed for ``setup_s``.
    """
    builds: List[float] = []

    def build():
        start = time.perf_counter()
        service = build_service(first_group)
        builds.append(time.perf_counter() - start)
        return service

    for _ in range(SETUP_REPEATS):
        build()
    phase = Phase("closed loop")
    snapshots = []
    for done, sweeps in enumerate(passes):
        if done and phase.elapsed * (done + 1) / done > seconds:
            break
        served, busy = phase.served, phase.elapsed
        for batches in sweeps:
            service = build()
            serve_closed(service, batches, phase, checker, float("inf"), float("inf"))
            snapshots.append(service.metrics_snapshot())
        phase.window_rates.append((phase.served - served) / (phase.elapsed - busy))
    return Measurement(
        setup_s=spread_setup_s(builds), phases=[phase], measured=phase,
        snapshots=snapshots,
    )


# ----------------------------------------------------------------------
# The cluster front door: open loop at fixed rates, saturating closed loop
# ----------------------------------------------------------------------


def shard_count() -> int:
    return os.cpu_count() or 1


async def start_cluster(first_group):
    from repro.cluster import ClusterController, ClusterFrontend, ClusterOptions
    from repro.system import simulation_scene

    controller = ClusterController(
        simulation_scene(first_group), ClusterOptions(shards=shard_count())
    )
    frontend = ClusterFrontend(controller)
    await frontend.start()
    return controller, frontend


async def offered_step(frontend, requests, rate: float, label: str) -> Tuple[Phase, list]:
    """Send *requests* at *rate*; time each one from when it was due."""
    phase = Phase(label, rate=rate, attempted=len(requests))
    results: list = []
    by_due: List[Tuple[float, float]] = []

    async def send(request, due: float) -> None:
        phase.send_lags[request.tag] = time.perf_counter() - due
        try:
            result = await frontend.submit(request)
        except Exception as error:  # shed or raised: counted, never fatal
            phase.count_error(error)
            return
        latency = time.perf_counter() - due
        results.append(result)
        phase.latencies[request.tag] = latency
        by_due.append((due, latency))

    begin = time.perf_counter()
    tasks = []
    for index, request in enumerate(requests):
        due = begin + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(send(request, due)))
    await asyncio.gather(*tasks)
    phase.elapsed = time.perf_counter() - begin
    phase.count_results(results)
    # The backlog grew when the last fifth of the step waited far longer
    # than the first fifth did.
    by_due.sort()
    fifth = len(by_due) // 5
    if fifth >= 10:
        first = statistics.median(latency for _, latency in by_due[:fifth])
        last = statistics.median(latency for _, latency in by_due[-fifth:])
        phase.backlog_grew = last > 2.0 * first + 0.005
    return phase, results


async def saturate(frontend, requests, duration: float) -> Tuple[Phase, list]:
    """:data:`SATURATION_CALLERS` callers, each waiting for its reply."""
    phase = Phase(f"{SATURATION_CALLERS} callers")
    results: list = []
    stream = iter(requests)
    stop = time.perf_counter() + duration

    async def caller() -> None:
        while time.perf_counter() < stop:
            request = next(stream, None)
            if request is None:
                return
            phase.attempted += 1
            start = time.perf_counter()
            try:
                result = await frontend.submit(request)
            except Exception as error:  # counted, never fatal
                phase.count_error(error)
                continue
            phase.latencies[request.tag] = time.perf_counter() - start
            results.append(result)

    begin = time.perf_counter()
    await asyncio.gather(*(caller() for _ in range(SATURATION_CALLERS)))
    phase.elapsed = time.perf_counter() - begin
    phase.count_results(results)
    return phase, results


@dataclass(frozen=True)
class Step:
    kind: str  # "warm-up", "ladder" or "saturation"
    rate: Optional[float]  # offered rate; None for the saturating closed loop
    duration: float
    requests: slice

    @property
    def label(self) -> str:
        return f"{self.rate:.0f} req/s" if self.kind == "ladder" else self.kind


def hotspot_plan(seconds: float) -> List[Step]:
    """Every step of a run; the open-loop steps get fixed stream slices."""
    shape = [("warm-up", WARMUP_RPS, WARMUP_SHARE)]
    ladder_share = 1.0 - WARMUP_SHARE - SATURATION_SHARE
    rate = LADDER_START_RPS
    for _ in range(int(round(ladder_share / STEP_SHARE))):
        shape.append(("ladder", rate, STEP_SHARE))
        rate *= LADDER_GROWTH
    shape.append(("saturation", None, SATURATION_SHARE))
    steps = []
    cursor = 0
    for kind, rate, share in shape:
        duration = share * seconds
        count = max(1, int(round((rate or SATURATION_MAX_RPS) * duration)))
        steps.append(Step(kind, rate, duration, slice(cursor, cursor + count)))
        cursor += count
    return steps


def measure_open(first_group, requests, seconds: float, checker: Checker) -> Measurement:
    times: List[float] = []

    async def timed_start():
        start = time.perf_counter()
        started = await start_cluster(first_group)
        times.append(time.perf_counter() - start)
        return started

    async def main():
        # The first start-up also imports the cluster modules: untimed.
        await (await start_cluster(first_group))[1].stop()
        for _ in range(SETUP_REPEATS - 1):
            await (await timed_start())[1].stop()
        controller, frontend = await timed_start()
        service = controller.shards()[0].service
        steps: List[Tuple[Step, Phase]] = []
        cursor = 0
        try:
            for step in hotspot_plan(seconds):
                ladder = [p for s, p in steps if s.kind == "ladder"]
                if step.kind == "ladder" and len(ladder) >= 2 and not any(
                    p.within_objective() for p in ladder[-2:]
                ):
                    continue
                if step.rate is None:
                    phase, results = await saturate(
                        frontend, requests[cursor:], step.duration
                    )
                else:
                    phase, results = await offered_step(
                        frontend, requests[step.requests], step.rate, step.label
                    )
                    cursor = step.requests.stop
                steps.append((step, phase))
                checker.add(service.scene, service.noise, results)
                # Throwaway clusters, so set-up is timed across the run.
                for _ in range(SETUP_PER_STEP):
                    await (await timed_start())[1].stop()
        finally:
            await frontend.stop()
        return controller, steps

    controller, steps = asyncio.run(main())
    setup_s = spread_setup_s(times)

    def of(kind: str) -> List[Phase]:
        return [phase for step, phase in steps if step.kind == kind]

    (saturation,) = of("saturation")
    ladder = of("ladder")
    passing = [phase for phase in ladder if phase.within_objective()]
    lags = [lag for phase in passing or ladder for lag in phase.send_lags.values()]
    return Measurement(
        setup_s=setup_s, phases=[phase for _, phase in steps],
        measured=saturation,
        snapshots=[s.service.metrics_snapshot() for s in controller.shards()],
        cluster_snapshot=controller.metrics.snapshot(),
        max_rps_within_slo=max((p.rate for p in passing), default=0.0),
        send_lag_p99_ms=percentile_ms(lags, 99.0),
    )


# ----------------------------------------------------------------------
# Workloads: seeded traffic plus the loop that serves it
# ----------------------------------------------------------------------


@dataclass
class Workload:
    requests: list
    measure: Callable[[float, Checker], Measurement]


def mobility_swing(seed: int, seconds: float) -> Workload:
    per_epoch = traffic.MOBILITY_FLEET // traffic.GROUP_SIZE
    epochs = int(MOBILITY_MAX_RPS * seconds / per_epoch) + 2
    first_group, batches = traffic.mobility_epochs(seed, epochs)
    return Workload(
        [r for batch in batches for r in batch],
        lambda window, checker: measure_closed(first_group, batches, window, checker),
    )


def hotspot_cluster(seed: int, seconds: float) -> Workload:
    length = hotspot_plan(seconds)[-1].requests.stop
    first_group, requests = traffic.hotspot_requests(seed, length)
    return Workload(
        requests,
        lambda window, checker: measure_open(first_group, requests, window, checker),
    )


def budget_sweep_optimal(seed: int, seconds: float) -> Workload:
    per_pass = traffic.BUDGET_POOL * len(traffic.BUDGET_RUNGS)
    first_group, passes = traffic.budget_sweep_passes(
        seed, int(BUDGET_MAX_RPS * seconds / per_pass) + 2
    )
    # One request per handle_batch call, one service per sweep.
    batched = [
        [[[request] for request in sweep] for sweep in sweeps] for sweeps in passes
    ]
    return Workload(
        [request for sweeps in passes for sweep in sweeps for request in sweep],
        lambda window, checker: measure_passes(first_group, batched, window, checker),
    )


WORKLOADS = {
    "mobility-swing": mobility_swing,
    "hotspot-cluster": hotspot_cluster,
    "budget-sweep-optimal": budget_sweep_optimal,
}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

Metrics = Dict[str, Tuple[float, str]]


def end_to_end(workload: str, m: Measurement, checker: Checker) -> Tuple[Metrics, List[str]]:
    """The JSON metrics, plus report lines for the figures kept out of it.

    The JSON carries only metrics that every workload has and that are
    never zero: the shares of requests that succeeded / were not
    degraded stand in for ``failed_frac`` / ``degraded_frac``, and the
    open-loop figures (``max_rps_within_slo``, ``send_lag_p99_ms``) are
    printed for ``hotspot-cluster`` only.
    """
    phase = m.measured
    lost = phase.shed + phase.failed + checker.failures
    latencies = list(phase.latencies.values())
    q = SPECS[workload].tail
    tail_ms, windows = windowed_percentile_ms(latencies, q)
    n = len(latencies)
    lines = [
        f"measured phase: {phase.label}; latency_tail_ms is p{q:g}, the median "
        f"over {windows} window(s) of n={n} requests, {n * (1 - q / 100):.0f} "
        f"beyond p{q:g}{'' if supported(n, q) else ' (fewer than 10: unsupported)'}",
        f"failed_frac {lost / phase.attempted:.6g} 1 "
        f"({lost} of {phase.attempted} attempted)",
        f"degraded_frac {phase.degraded / phase.attempted:.6g} 1 "
        f"({phase.degraded} of {phase.attempted})",
    ]
    if m.max_rps_within_slo is not None:
        lines += [
            f"max_rps_within_slo {m.max_rps_within_slo:.1f} 1/s",
            f"send_lag_p99_ms {m.send_lag_p99_ms:.4f} ms",
        ]
    metrics = {
        "setup_s": (m.setup_s, "s"),
        "throughput_rps": (phase.reported_throughput, "1/s"),
        "latency_p50_ms": (percentile_ms(latencies, 50.0), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "success_frac": ((phase.attempted - lost) / phase.attempted, "1"),
        "undegraded_frac": (
            (phase.attempted - phase.degraded) / phase.attempted, "1"
        ),
        "utility_mean": (checker.utility_mean, "1"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    return metrics, lines


def _counter(snapshots: Sequence[dict], key: str) -> float:
    return sum(s.get("counters", {}).get(key, 0.0) for s in snapshots)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Degradation edges reported as ``pool.degraded.<requested>-to-<fallback>``.
DEGRADATION_EDGES = (
    ("optimal", "swing"), ("optimal", "binary"), ("optimal", "greedy"),
    ("optimal", "heuristic"), ("swing", "binary"), ("swing", "greedy"),
    ("swing", "heuristic"),
)


def per_layer(untraced: Measurement, traced: Measurement, trace: LayerTrace) -> Tuple[Metrics, List[str]]:
    """Per-request self time by layer, plus the stack's own counters.

    Times are milliseconds of request latency per served request of the
    measured phase; counts marked ``1/req`` are per served request.
    """
    a = attribute(trace, traced.measured.latencies)
    served = max(a.requests, 1)

    def ms(*names: str) -> float:
        return sum(a.self_s.get(name, 0.0) for name in names) / served * 1e3

    def per_req(name: str) -> float:
        return a.calls.get(name, 0) / served

    # The stack's own counters cover the whole traced half, so they are
    # normalized by the requests the services handled in it.
    shards = traced.snapshots
    handled = max(_counter(shards, "service.requests"), 1.0)
    cluster = [traced.cluster_snapshot]
    submitted = _counter(cluster, "cluster.submitted")
    caches = [s["caches"] for s in shards]

    def hit_frac(kind: str) -> float:
        hits = sum(c[kind]["hits"] for c in caches)
        return _ratio(hits, hits + sum(c[kind]["misses"] for c in caches))

    batch_sizes = traced.cluster_snapshot.get("histograms", {}).get(
        "cluster.batch_size", {}
    )
    metrics: Metrics = {
        "cluster.submit_self_ms": (ms("cluster.submit", "cluster.route"), "ms"),
        "cluster.queue_wait_ms_p99": (
            percentile_ms(a.queue_waits_s, 99.0) if a.queue_waits_s else 0.0, "ms"
        ),
        "cluster.batch_size_mean": (batch_sizes.get("mean", 0.0), "count"),
        "cluster.coalesced_frac": (
            _ratio(_counter(cluster, "cluster.coalesced"), submitted), "1"
        ),
    }
    for reason in ("capacity", "deadline", "expired", "late"):
        metrics[f"cluster.shed_frac.{reason}"] = (
            _ratio(_counter(cluster, f'cluster.shed{{reason="{reason}"}}'), submitted),
            "1",
        )
    metrics.update({
        "cluster.dispatch_errors": (
            _ratio(_counter(cluster, "cluster.dispatch_errors"), submitted), "1/req"
        ),
        "service.handle_batch_self_ms": (ms("service.handle_batch"), "ms"),
        "service.requests_per_batch": (_ratio(a.batch_requests, a.batches), "count"),
        "cache.channel_hit_frac": (hit_frac("channel"), "1"),
        "cache.allocation_hit_frac": (hit_frac("allocation"), "1"),
        "cache.lookup_ms": (ms("cache.get", "cache.put", "cache.peek"), "ms"),
        "cache.evictions": (
            sum(c[k]["evictions"] for c in caches for k in ("channel", "allocation"))
            / handled, "1/req",
        ),
        "channel.stack_calls": (per_req("channel.stack"), "1/req"),
        "channel.stack_ms": (ms("channel.stack"), "ms"),
        "channel.update_calls": (per_req("channel.update"), "1/req"),
        "channel.update_ms": (ms("channel.update"), "ms"),
        "channel.throughput_stack_ms": (ms("channel.throughput_stack"), "ms"),
        "pool.dispatch_self_ms": (ms("pool.solve_outcomes"), "ms"),
    })
    for requested, fallback in DEGRADATION_EDGES:
        key = f'pool.degraded{{fallback="{fallback}",requested="{requested}"}}'
        metrics[f"pool.degraded.{requested}-to-{fallback}"] = (
            _counter(shards, key) / handled, "1/req",
        )
    swing_solves = _counter(shards, "optimizer.swing.solves")
    metrics.update({
        "pool.deadline_expirations": (
            _counter(shards, "resilience.deadline_expirations") / handled, "1/req"
        ),
        "pool.failed_attempt_ms": (a.failed_s / served * 1e3, "ms"),
        "core.heuristic_calls": (per_req("core.heuristic"), "1/req"),
        "core.heuristic_ms": (ms("core.heuristic"), "ms"),
        "core.swing_calls": (per_req("core.swing"), "1/req"),
        "core.swing_ms": (ms("core.swing"), "ms"),
        "core.swing_warm_seed_frac": (
            _ratio(_counter(shards, "optimizer.swing.warm_seeds"), swing_solves), "1"
        ),
        "core.optimal_calls": (per_req("core.optimal"), "1/req"),
        "core.optimal_ms": (ms("core.optimal"), "ms"),
        "core.warm_start_frac": (
            _ratio(
                _counter(shards, "service.warm_starts"),
                _counter(shards, "service.allocation_misses"),
            ),
            "1",
        ),
        "core.starts_skipped": (
            _counter(shards, "optimizer.starts_skipped") / handled, "1/req"
        ),
        "bench.trace_overhead_frac": (
            1.0 - _ratio(
                traced.measured.reported_throughput,
                untraced.measured.reported_throughput,
            ),
            "1",
        ),
        "bench.unattributed_frac": (1.0 - _ratio(a.attributed_s, a.latency_s), "1"),
    })
    by_layer = " | ".join(
        f"{layer} {value:.4g}" for layer, value in sorted(a.by_layer_ms().items())
    )
    mean_ms = a.latency_s / served * 1e3
    return metrics, [
        f"per-layer metrics of the traced half ({a.requests} requests, mean "
        f"latency {mean_ms:.4g} ms); self ms per request by layer: {by_layer}"
    ]


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def environment_line() -> str:
    import scipy

    return (
        f"env: nproc {os.cpu_count()} shards {shard_count()} | python "
        f"{platform.python_version()} | numpy {np.__version__} | scipy "
        f"{scipy.__version__} | {platform.machine()}"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (HERE.parent / "src" / "repro").is_dir():
        print(
            f"error: no src/repro next to {HERE.name}/; run from a checkout",
            file=sys.stderr,
        )
        return 2

    print(environment_line())
    start = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    digest = traffic.stream_digest(args.workload, args.seed, workload.requests)
    print(
        f"workload {args.workload} seed {args.seed}: {len(workload.requests)} "
        f"requests generated in {time.perf_counter() - start:.2f} s, "
        f"stream digest {digest}"
    )
    # The generated traffic lives for the whole run: keep the collector
    # from re-scanning it during measurement.
    gc.collect()
    gc.freeze()

    window = args.seconds / 2 if args.trace else args.seconds
    checker = Checker(args.seed, SPECS[args.workload].sample_every)
    untraced = workload.measure(window, checker)
    for phase in untraced.phases:
        print(phase.line())

    metrics, lines = end_to_end(args.workload, untraced, checker)
    if args.trace:
        trace = LayerTrace()
        with trace:
            traced = workload.measure(window, checker)
        for phase in traced.phases:
            print(f"traced {phase.line().strip()}")
        metrics, layer_lines = per_layer(untraced, traced, trace)
        lines += layer_lines
    print(checker.line())
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    measured = untraced.measured
    print(json.dumps({
        "correct": checker.ok,
        "attempted": measured.attempted,
        "failed": measured.shed + measured.failed + checker.failures,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
