"""The allocation-serving facade: cache -> batch -> solve.

:class:`AllocationService` is the front door of the runtime engine.  A
request names receiver positions, a power budget and a solver; the
service quantizes the placement into a cache key, computes LOS channel
matrices for all cache-missing placements in one batched broadcast,
solves each distinct cache-missing allocation once, cold, evaluates
the resulting throughputs as one allocation stack, and reports
everything through the metrics registry.  ``python -m repro replay``
drives it with a recorded scenario trace and prints latency
percentiles.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .. import constants
from ..analysis.lockgraph import monitored_lock
from ..channel import (
    AWGNNoise,
    channel_matrix_stack,
    channel_matrix_update,
    throughput_stack,
)
from ..errors import ChannelError, RuntimeEngineError
from ..system import FINGERPRINT_QUANTUM, Scene
from ..tracecontext import Span, add_span_attributes, stage
from .cache import LRUCache
from .faults import FaultPlan
from .metrics import DEFAULT_TIME_BUCKETS, MetricsRegistry
from .pool import SOLVERS, SolveOutcome, SolverPool, SolveTask
from .resilience import Deadline
from .tracing import Tracer


def placement_fingerprint(
    base: str,
    positions: Sequence[Tuple[float, float]],
    quantum: float = FINGERPRINT_QUANTUM,
) -> str:
    """The quantized placement cache/routing key for one request.

    ``base`` is the scene-level fingerprint (TX grid + hardware); the
    receiver placement is quantized onto the same grid the channel
    cache uses.  The cluster shard router hashes this exact string, so
    routing and caching agree on what "the same scene" means.
    """
    quantized = tuple(
        (int(round(x / quantum)), int(round(y / quantum)))
        for x, y in positions
    )
    return f"{base}:{quantized}"


class SLOObserver(Protocol):
    """What the service needs from an attached SLO tracker.

    The runtime never imports the observability layer (R1 keeps
    ``repro.obs`` above serving); instead an SLO tracker -- in practice
    :class:`repro.obs.slo.SLOTracker` -- is attached via
    :meth:`AllocationService.attach_slo` and duck-typed through this
    protocol.  ``observe`` is called once per served request with its
    latency and whether it met its objective-relevant promises
    (non-degraded, deadline kept); ``snapshot`` renders the rolling
    compliance/error-budget state for :meth:`AllocationService.health`.
    """

    def observe(self, latency_seconds: float, ok: bool) -> None: ...

    def snapshot(self) -> Dict[str, Any]: ...


@dataclass(frozen=True)
class AllocationRequest:
    """One unit of allocation traffic.

    Attributes:
        rx_positions_xy: receiver XY positions [m], one per scene RX.
        power_budget: communication power budget ``P_C,tot`` [W].
        solver: one of :data:`repro.runtime.pool.SOLVERS`.
        kappa: SJR exponent (used by the heuristic solver).
        tag: optional caller-supplied request label.
        deadline_seconds: optional per-request latency budget [s].  The
            budget starts ticking when the batch is admitted and flows
            through the allocation stage into the solver's deadline
            checkpoints; an expiring solve degrades down the solver
            chain instead of blocking.
    """

    rx_positions_xy: Tuple[Tuple[float, float], ...]
    power_budget: float
    solver: str = "heuristic"
    kappa: float = constants.DEFAULT_KAPPA
    tag: str = ""
    deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        positions = tuple(
            (float(x), float(y)) for x, y in self.rx_positions_xy
        )
        object.__setattr__(self, "rx_positions_xy", positions)
        if not positions:
            raise RuntimeEngineError("a request needs at least one receiver")
        if self.power_budget < 0:
            raise RuntimeEngineError(
                f"power budget must be >= 0, got {self.power_budget}"
            )
        if self.solver not in SOLVERS:
            raise RuntimeEngineError(
                f"unknown solver {self.solver!r}; available: {sorted(SOLVERS)}"
            )
        if self.deadline_seconds is not None and (
            not math.isfinite(self.deadline_seconds)
            or self.deadline_seconds <= 0
        ):
            raise RuntimeEngineError(
                f"deadline must be positive and finite, got "
                f"{self.deadline_seconds}"
            )


@dataclass(frozen=True)
class AllocationResult:
    """A served request: the allocation plus its provenance.

    Attributes:
        request: the originating request.
        fingerprint: the quantized placement cache key (hex digest part).
        swings: (N, M) solved swing matrix [A].
        per_rx_throughput: (M,) Shannon throughputs [bit/s].
        system_throughput: total throughput [bit/s].
        channel_cached: whether the channel matrix came from the cache.
        allocation_cached: whether the solve itself was a cache hit.
        latency_seconds: service time for this request (batch-averaged
            when the request was served as part of a batch).
        degraded: the allocation came from a degradation-chain fallback
            (solver timeout, non-convergence or an expired deadline),
            not the requested solver.  Degraded results are never
            cached.
        solver_used: the solver that actually produced ``swings``.
        deadline_exceeded: the request's deadline expired while serving
            it; ``swings`` is the best allocation the remaining budget
            could buy.
    """

    request: AllocationRequest
    fingerprint: str
    swings: np.ndarray
    per_rx_throughput: np.ndarray
    system_throughput: float
    channel_cached: bool
    allocation_cached: bool
    latency_seconds: float
    degraded: bool = False
    solver_used: str = ""
    deadline_exceeded: bool = False


@dataclass(frozen=True)
class ServiceOptions:
    """Knobs for :class:`AllocationService`.

    Attributes:
        channel_cache_capacity / allocation_cache_capacity: LRU
            capacities of the channel-matrix and solved-allocation
            caches.
        quantum: placement quantization step [m] of the cache keys.
        neighborhood_memory: recently served placements remembered for
            incremental-channel neighbor lookups.
        incremental_channel: when a cache-missing placement differs from
            a remembered one in only some receivers, recompute just those
            columns of the channel matrix instead of the full rebuild.
        faults: optional seedable chaos plan
            (:class:`repro.runtime.faults.FaultPlan`) injected into
            channel computation and solver execution -- test-only.
    """

    channel_cache_capacity: int = 256
    allocation_cache_capacity: int = 1024
    quantum: float = FINGERPRINT_QUANTUM
    neighborhood_memory: int = 64
    incremental_channel: bool = True
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.quantum <= 0:
            raise RuntimeEngineError(
                f"quantum must be positive, got {self.quantum}"
            )
        if self.neighborhood_memory < 1:
            raise RuntimeEngineError(
                f"neighborhood memory must be >= 1, got "
                f"{self.neighborhood_memory}"
            )


class AllocationService:
    """High-throughput allocation serving over one deployment scene.

    The scene fixes the TX grid, receiver hardware and receiver count;
    requests vary the receiver placement, budget and solver.  Channel
    matrices and solved allocations are cached under position-quantized
    keys, cache-missing channels are computed in one broadcast, and
    each distinct cache-missing allocation is solved once.  Every solve
    is cold: its answer depends only on the channel, the budget, the
    tier and kappa, never on what the service served before.
    """

    def __init__(
        self,
        scene: Scene,
        noise: Optional[AWGNNoise] = None,
        options: Optional[ServiceOptions] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if scene.num_receivers == 0:
            raise RuntimeEngineError("the service scene needs receivers")
        self.scene = scene
        self.noise = noise if noise is not None else AWGNNoise()
        self.tracer = tracer if tracer is not None else Tracer.disabled()
        if not hasattr(self.noise, "power"):
            raise RuntimeEngineError(
                "noise must expose a .power attribute (see AWGNNoise); "
                f"got {type(self.noise).__name__}"
            )
        self.options = options if options is not None else ServiceOptions()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Register the request-latency histogram with explicit buckets up
        # front so Prometheus exposition gets cumulative `_bucket` series
        # (later bucket-less lookups accept this configuration).
        self.metrics.histogram(
            "service.latency_seconds", buckets=DEFAULT_TIME_BUCKETS
        )
        self._channel_cache = LRUCache(self.options.channel_cache_capacity)
        self._allocation_cache = LRUCache(self.options.allocation_cache_capacity)
        self._pool = SolverPool(self.metrics)
        self._base_fingerprint = scene.fingerprint(self.options.quantum)
        self._slo: Optional[SLOObserver] = None
        self._stages = {
            key: self.metrics.histogram("stage.self_seconds", stage=key)
            for key in (
                "channel[hit]",
                "channel[incremental]",
                "channel[computed]",
                "allocation[hit]",
                "allocation[miss]",
                "cache",
                "throughput",
            )
        }
        # The neighbor memory is shared by every thread serving through
        # this service: it is read as a snapshot taken under this lock,
        # and all numpy work happens outside it.
        self._memory_lock = monitored_lock("service.memory")
        # Recently served placements: key -> (M, 2) positions, used to
        # find incremental-channel neighbors.
        self._placement_memory: "OrderedDict[str, np.ndarray]" = OrderedDict()

    # ------------------------------------------------------------------

    def handle(self, request: AllocationRequest) -> AllocationResult:
        """Serve one request (cache -> batch -> solve)."""
        return self.handle_batch([request])[0]

    def handle_batch(
        self,
        requests: Sequence[AllocationRequest],
        trace_parents: Optional[Sequence[Optional[Span]]] = None,
    ) -> List[AllocationResult]:
        """Serve a batch, amortizing channel computation across it.

        All cache-missing placements become one ``(B, N, M)`` broadcast;
        identical cache-missing solves run once.  Results keep request
        order.

        Every stage (channel, allocation, cache lookup, solve,
        throughput) is timed once by :class:`repro.tracecontext.stage`.
        With a tracer attached, every (sampled) request also gets its
        own trace: a ``request`` root span with ``channel`` /
        ``allocation`` (cache lookup + solve spans) / ``throughput``
        children; a batched stage's one window is bracketed into every
        participating trace.  *trace_parents* (aligned
        with *requests*) grafts each request span under an upstream
        span instead -- the cluster front door passes its per-request
        ingest spans here so ``queue -> route -> request -> solve``
        share one trace.
        """
        requests = list(requests)
        if not requests:
            return []
        if trace_parents is not None and len(trace_parents) != len(requests):
            raise RuntimeEngineError(
                f"trace_parents length {len(trace_parents)} does not match "
                f"batch size {len(requests)}"
            )
        start = time.perf_counter()
        self.metrics.counter("service.requests").increment(len(requests))
        tracer = self.tracer
        roots: List[Optional[Span]] = [None] * len(requests)
        if tracer.enabled:
            for i, request in enumerate(requests):
                roots[i] = tracer.start_trace(
                    "request",
                    parent=trace_parents[i] if trace_parents else None,
                    solver=request.solver,
                    tag=request.tag,
                    batch_size=len(requests),
                )
        parents = roots if any(span is not None for span in roots) else None
        # Admission: each request's latency budget starts ticking now and
        # flows through the allocation stage into the solver.
        deadlines = [Deadline.after(r.deadline_seconds) for r in requests]

        channels, placement_keys, channel_hits = self._channel_stage(
            requests, parents
        )
        swings, allocation_hits, outcomes = self._allocation_stage(
            requests, placement_keys, channels, deadlines, parents
        )

        # One batched Eq.-12 evaluation for the whole response.
        with stage(
            "throughput", self._stages["throughput"], parents=parents,
            tracer=tracer,
        ):
            rates = throughput_stack(
                np.stack(channels),
                np.stack(swings),
                self.scene.led,
                self.scene.receivers[0].photodiode,
                self.noise,
            )
        elapsed = time.perf_counter() - start
        per_request = elapsed / len(requests)
        latency_histogram = self.metrics.histogram("service.latency_seconds")
        self._refresh_gauges()

        results = []
        for i, request in enumerate(requests):
            root = roots[i]
            # The exemplar links this latency observation's bucket back
            # to its trace; with tracing disabled every root is None and
            # the histogram state is bit-identical to the untraced path.
            latency_histogram.observe(
                per_request,
                exemplar=root.trace_id if root is not None else None,
            )
            outcome = outcomes[i]
            result = AllocationResult(
                request=request,
                fingerprint=placement_keys[i],
                swings=swings[i],
                per_rx_throughput=rates[i],
                system_throughput=float(rates[i].sum()),
                channel_cached=channel_hits[i],
                allocation_cached=allocation_hits[i],
                latency_seconds=per_request,
                degraded=outcome.degraded if outcome else False,
                solver_used=outcome.solver if outcome else request.solver,
                deadline_exceeded=(
                    outcome.deadline_exceeded if outcome else False
                ),
            )
            results.append(result)
            if self._slo is not None:
                self._slo.observe(
                    per_request,
                    ok=not result.degraded and not result.deadline_exceeded,
                )
            if root is not None:
                root.set_attribute("fingerprint", result.fingerprint)
                root.set_attribute("solver_used", result.solver_used)
                root.set_attribute("degraded", result.degraded)
                root.set_attribute("channel_cached", result.channel_cached)
                root.set_attribute("allocation_cached", result.allocation_cached)
                root.set_attribute(
                    "system_throughput", result.system_throughput
                )
                tracer.finish(root)
        return results

    def metrics_snapshot(self) -> dict:
        """Operational state: counters, cache stats, latency histograms."""
        self._refresh_gauges()
        snapshot = self.metrics.snapshot()
        snapshot["caches"] = {
            "channel": self._channel_cache.stats.as_dict(),
            "allocation": self._allocation_cache.stats.as_dict(),
        }
        return snapshot

    def health(self) -> dict:
        """Degradation state at a glance: counters, caches, SLO.

        ``status`` is ``"ok"`` unless an attached SLO tracker reports an
        exhausted error budget (then ``"degraded"``).  The
        ``resilience`` block carries the cumulative degraded-solve /
        deadline-expiration / channel-repair counters so an operator
        can tell *how* the service has been coping.

        Every component's block comes from one atomic read: each cache's
        size + stats (including occupancy) under that cache's lock.  The
        cluster controller polls this concurrently from its event loop
        while shard threads are serving, so a field-by-field read here
        would hand the rollup torn hit/miss pairs.
        """
        health: Dict[str, Any] = {
            "status": "ok",
            "resilience": self.metrics.counters_with_prefix("resilience."),
            "caches": {
                "channel": self._channel_cache.snapshot(),
                "allocation": self._allocation_cache.snapshot(),
            },
        }
        if self._slo is not None:
            slo = self._slo.snapshot()
            health["slo"] = slo
            if not slo.get("healthy", True):
                health["status"] = "degraded"
        return health

    def attach_slo(self, observer: Optional[SLOObserver]) -> None:
        """Attach (or with None, detach) a rolling SLO tracker.

        The tracker is fed every served request's latency and promise
        outcome; :meth:`health` then carries its snapshot under
        ``"slo"`` and degrades the overall status when an objective's
        error budget is exhausted.
        """
        self._slo = observer

    @property
    def slo(self) -> Optional[SLOObserver]:
        """The attached SLO tracker, if any."""
        return self._slo

    @property
    def base_fingerprint(self) -> str:
        """The scene-level fingerprint requests' placement keys extend."""
        return self._base_fingerprint

    @property
    def channel_hit_rate(self) -> float:
        return self._channel_cache.stats.hit_rate

    @property
    def allocation_hit_rate(self) -> float:
        return self._allocation_cache.stats.hit_rate

    # ------------------------------------------------------------------

    def _placement_key(self, positions: Tuple[Tuple[float, float], ...]) -> str:
        return placement_fingerprint(
            self._base_fingerprint, positions, self.options.quantum
        )

    def _remember_placement(self, key: str, positions: np.ndarray) -> None:
        memory = self._placement_memory
        with self._memory_lock:
            if key in memory:
                memory.move_to_end(key)
            else:
                memory[key] = positions
                while len(memory) > self.options.neighborhood_memory:
                    memory.popitem(last=False)

    def _incremental_channel(
        self, key: str, positions: np.ndarray
    ) -> Optional[np.ndarray]:
        """Build this placement's matrix from a near neighbor's columns.

        Scans the remembered placements for the one differing in the
        fewest receivers; when some receivers are unchanged (and the
        neighbor's matrix is still cached), only the moved columns are
        recomputed.  Returns None when every neighbor moved wholesale.
        """
        best_key: Optional[str] = None
        best_moved: Optional[np.ndarray] = None
        num_rx = positions.shape[0]
        with self._memory_lock:
            remembered = list(self._placement_memory.items())
        for other_key, other_positions in reversed(remembered):
            if other_key == key:
                continue
            moved = np.nonzero(
                np.any(other_positions != positions, axis=1)
            )[0]
            if moved.size == 0 or moved.size >= num_rx:
                continue
            if best_moved is None or moved.size < best_moved.size:
                if self._channel_cache.peek(other_key) is None:
                    continue
                best_key, best_moved = other_key, moved
                if moved.size == 1:
                    break
        if best_key is None:
            return None
        base = self._channel_cache.peek(best_key)
        if base is None:
            return None
        matrix = channel_matrix_update(
            self.scene, base, positions[best_moved], best_moved
        )
        self.metrics.counter("service.channel_incremental").increment()
        return matrix

    def _screen_channel(
        self, key: str, positions: np.ndarray, matrix: np.ndarray
    ) -> "tuple[np.ndarray, bool]":
        """Detect (and repair) corrupted freshly computed channel matrices.

        The chaos plan's corruption fault is applied first (attempt 0);
        any non-finite matrix -- injected or genuine -- is then caught
        before it can poison the cache, and recomputed from scratch.
        Returns ``(matrix, repaired)``.
        """
        plan = self.options.faults
        if plan is not None:
            matrix = plan.maybe_corrupt_channel(matrix, key, attempt=0)
        if np.isfinite(matrix).all():
            return matrix, False
        self.metrics.counter("resilience.channel_repairs").increment()
        rebuilt = channel_matrix_stack(self.scene, positions[None, :, :])[0]
        if plan is not None:
            rebuilt = plan.maybe_corrupt_channel(rebuilt, key, attempt=1)
        if not np.isfinite(rebuilt).all():
            raise ChannelError(
                f"channel matrix for {key} is non-finite after recompute"
            )
        return rebuilt, True

    def _channel_stage(self, requests, parents=None):
        """Resolve every request's channel matrix, batching the misses.

        Misses first try the incremental path (recompute only the moved
        receivers' columns of a remembered neighbor placement); whatever
        remains becomes one batched broadcast.  The whole window is one
        ``channel`` stage, labelled by the costliest path it took
        (``computed`` > ``incremental`` > ``hit``); each sampled
        request's ``channel`` span carries its own cache outcome and
        repair flag.
        """
        with stage(
            "channel", self._stages["channel[hit]"], parents=parents,
            tracer=self.tracer,
        ) as window:
            placement_keys = [
                self._placement_key(r.rx_positions_xy) for r in requests
            ]
            channels: List[Optional[np.ndarray]] = [None] * len(requests)
            channel_hits = [False] * len(requests)
            channel_meta: List[dict] = [
                {"outcome": "hit", "repaired": False} for _ in requests
            ]
            miss_keys: Dict[str, List[int]] = {}
            for i, key in enumerate(placement_keys):
                cached = self._channel_cache.get(key)
                if cached is not None:
                    channels[i] = cached
                    channel_hits[i] = True
                    self.metrics.counter("service.channel_hits").increment()
                else:
                    miss_keys.setdefault(key, []).append(i)
            batched: Dict[str, List[int]] = {}
            if miss_keys:
                self.metrics.counter("service.channel_misses").increment(
                    len(miss_keys)
                )
                window.histogram = self._stages["channel[incremental]"]
                for key, slots in miss_keys.items():
                    positions = np.array(
                        requests[slots[0]].rx_positions_xy, dtype=float
                    )
                    matrix = (
                        self._incremental_channel(key, positions)
                        if self.options.incremental_channel
                        else None
                    )
                    if matrix is None:
                        batched[key] = slots
                        continue
                    matrix, repaired = self._screen_channel(
                        key, positions, matrix
                    )
                    self._channel_cache.put(key, matrix)
                    self._remember_placement(key, positions)
                    for i in slots:
                        channels[i] = matrix
                        channel_meta[i] = {
                            "outcome": "incremental", "repaired": repaired,
                        }
            if batched:
                window.histogram = self._stages["channel[computed]"]
                indices = [slots[0] for slots in batched.values()]
                placements = np.array(
                    [requests[i].rx_positions_xy for i in indices], dtype=float
                )
                stack = channel_matrix_stack(self.scene, placements)
                for matrix, (key, slots) in zip(stack, batched.items()):
                    positions = np.array(
                        requests[slots[0]].rx_positions_xy, dtype=float
                    )
                    matrix, repaired = self._screen_channel(
                        key, positions, matrix
                    )
                    self._channel_cache.put(key, matrix)
                    self._remember_placement(key, positions)
                    for i in slots:
                        channels[i] = matrix
                        channel_meta[i] = {
                            "outcome": "computed", "repaired": repaired,
                        }
            for i, key in enumerate(placement_keys):
                if channel_hits[i]:
                    self._remember_placement(
                        key, np.array(requests[i].rx_positions_xy, dtype=float)
                    )
            for meta in channel_meta:
                self.metrics.counter(
                    "service.channel_outcomes", outcome=meta["outcome"]
                ).increment()
            for span, meta in zip(window.spans, channel_meta):
                if span is not None:
                    span.attributes.update(meta)
        return channels, placement_keys, channel_hits

    def _allocation_stage(
        self, requests, placement_keys, channels, deadlines, parents=None
    ):
        """Resolve every request's allocation, solving the misses.

        Each miss group's solve carries the tightest deadline of its
        requests into the pool; degraded outcomes (fallback solver,
        expired deadline) are flagged on the results and kept out of the
        caches so a healthy retry is never served a degraded allocation.

        The window is one ``allocation`` stage (labelled ``miss`` when
        anything was solved) with a ``cache`` stage per lookup and the
        pool's ``solve`` stages nested in it.  A sampled request's
        ``allocation`` span parents its own lookup and the attempts of
        the solve that serves it.
        """
        with stage(
            "allocation", self._stages["allocation[hit]"], parents=parents,
            tracer=self.tracer,
        ) as window:
            alloc_spans = window.spans
            cache_stage = self._stages["cache"]
            swings: List[Optional[np.ndarray]] = [None] * len(requests)
            allocation_hits = [False] * len(requests)
            outcomes: List[Optional[SolveOutcome]] = [None] * len(requests)
            miss_slots: Dict[Tuple, List[int]] = {}
            for i, request in enumerate(requests):
                key = (
                    placement_keys[i],
                    float(request.power_budget),
                    request.solver,
                    float(request.kappa),
                )
                with stage(
                    "cache", cache_stage,
                    parents=(alloc_spans[i],) if alloc_spans else None,
                    kind="allocation",
                ):
                    cached = self._allocation_cache.get(key)
                    outcome_label = "hit" if cached is not None else "miss"
                    add_span_attributes(outcome=outcome_label)
                if alloc_spans and alloc_spans[i] is not None:
                    alloc_spans[i].set_attribute("cache_outcome", outcome_label)
                if cached is not None:
                    swings[i] = cached
                    allocation_hits[i] = True
                    self.metrics.counter("service.allocation_hits").increment()
                else:
                    miss_slots.setdefault(key, []).append(i)
                self.metrics.counter(
                    "service.allocation_outcomes", outcome=outcome_label
                ).increment()
            if miss_slots:
                window.histogram = self._stages["allocation[miss]"]
                self._solve_misses(
                    requests, channels, deadlines, miss_slots, swings,
                    outcomes, alloc_spans,
                )
        return swings, allocation_hits, outcomes

    def _solve_misses(
        self, requests, channels, deadlines, miss_slots, swings, outcomes,
        alloc_spans,
    ):
        """Solve each miss group once and fan the result out to its slots."""
        self.metrics.counter("service.allocation_misses").increment(
            len(miss_slots)
        )
        tasks = []
        for key, slots in miss_slots.items():
            request = requests[slots[0]]
            group_deadline = min(
                (deadlines[i] for i in slots),
                key=lambda d: d.expires_at,
            )
            tasks.append(
                SolveTask(
                    channel=channels[slots[0]],
                    power_budget=request.power_budget,
                    solver=request.solver,
                    kappa=request.kappa,
                    led=self.scene.led,
                    photodiode=self.scene.receivers[0].photodiode,
                    noise=self.noise,
                    deadline=(
                        group_deadline.expires_at
                        if group_deadline.bounded
                        else None
                    ),
                    faults=self.options.faults,
                    fault_key=key,
                )
            )
        solved = self._pool.solve_outcomes(
            tasks,
            trace_parents=(
                [[alloc_spans[i] for i in slots] for slots in miss_slots.values()]
                if alloc_spans
                else None
            ),
        )
        for outcome, task, (key, slots) in zip(solved, tasks, miss_slots.items()):
            matrix = outcome.swings
            if not outcome.degraded:
                # Degraded results stay out of the caches: a later
                # healthy solve under the same key must not inherit
                # a timed-out fallback allocation.
                self._allocation_cache.put(key, matrix)
            for i in slots:
                swings[i] = matrix
                outcomes[i] = outcome
                span = alloc_spans[i] if alloc_spans else None
                if span is not None:
                    span.attributes.update(
                        solver_used=outcome.solver,
                        degraded=outcome.degraded,
                        deadline_exceeded=outcome.deadline_exceeded,
                        reduce=task.reduce,
                    )

    def _refresh_gauges(self) -> None:
        self.metrics.gauge("service.channel_cache_size").set(
            len(self._channel_cache)
        )
        self.metrics.gauge("service.allocation_cache_size").set(
            len(self._allocation_cache)
        )
        self.metrics.gauge("service.channel_hit_rate").set(
            self._channel_cache.stats.hit_rate
        )
        self.metrics.gauge("service.allocation_hit_rate").set(
            self._allocation_cache.stats.hit_rate
        )
