"""The asyncio ingestion front door for the sharded cluster.

:class:`ClusterFrontend` sits between callers and the
:class:`~repro.cluster.controller.ClusterController`'s shards:

- **routing**: each request's scene fingerprint picks its shard off the
  consistent-hash ring;
- **batching**: every shard has its own asyncio queue and worker; the
  worker drains whatever is queued (up to ``batch_max``) into a single
  :meth:`~repro.runtime.service.AllocationService.handle_batch` call,
  so concurrent arrivals amortize the channel broadcast and solves
  exactly like the offline benchmark batches do;
- **coalescing**: concurrent requests with an identical coalescing key
  (fingerprint, budget, solver, kappa) collapse onto one in-flight
  future -- one solve, N identical results;
- **shedding**: admission control estimates each request's sojourn from
  the target shard's queue depth and an EMA of its per-request service
  time; a request whose deadline cannot plausibly be met is rejected
  *immediately* with :class:`~repro.errors.RequestShedError` instead of
  being served late, and a request found already expired at dispatch
  time is late-shed rather than burning a solve it cannot use.

Tracing: with a tracer attached, every admitted request gets a
``frontdoor`` root span with ``route`` and ``queue`` children, and the
shard's own ``request``/``solve`` spans graft under it (via the
``trace_parents`` hook on ``handle_batch``) so one trace id covers
queue -> route -> shard -> solve.

Threading model: all queue/coalescing/EMA state is touched only from
the event-loop thread; the only work leaving the loop is the blocking
``handle_batch`` call, dispatched to a small thread pool.  Shard
engines are internally locked, so one frontend may serve many
concurrent client coroutines.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ClusterError, RequestShedError
from ..runtime.resilience import Deadline
from ..runtime.service import AllocationRequest, AllocationResult
from ..tracecontext import Span
from .controller import ClusterController, Shard

__all__ = ["FrontendOptions", "ClusterFrontend"]

#: Coalescing key: everything that determines an allocation's bits.
CoalesceKey = Tuple[str, float, str, float]


@dataclass(frozen=True)
class FrontendOptions:
    """Knobs for :class:`ClusterFrontend`.

    Attributes:
        batch_max: max requests drained into one shard dispatch.
        coalesce: collapse concurrent identical requests onto one
            in-flight solve.
        shed: enable deadline-aware admission control.
        shed_safety: multiplier on the estimated sojourn before a
            deadline is declared unmeetable (>1 sheds earlier).
        max_queue_depth: per-shard queue bound; arrivals beyond it are
            shed with reason ``capacity``.
        initial_service_seconds: EMA seed for per-request service time
            before the first batch completes.
        ema_alpha: EMA smoothing factor (weight of the newest sample).
    """

    batch_max: int = 16
    coalesce: bool = True
    shed: bool = True
    shed_safety: float = 2.0
    max_queue_depth: int = 256
    initial_service_seconds: float = 0.005
    ema_alpha: float = 0.2

    def __post_init__(self) -> None:
        if self.batch_max < 1:
            raise ClusterError(f"batch_max must be >= 1, got {self.batch_max}")
        if self.max_queue_depth < 1:
            raise ClusterError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if not 0.0 < self.ema_alpha <= 1.0:
            raise ClusterError(
                f"ema_alpha must be in (0, 1], got {self.ema_alpha}"
            )
        if self.shed_safety <= 0:
            raise ClusterError(
                f"shed_safety must be > 0, got {self.shed_safety}"
            )
        if self.initial_service_seconds <= 0:
            raise ClusterError(
                "initial_service_seconds must be > 0, got "
                f"{self.initial_service_seconds}"
            )


@dataclass
class _Pending:
    """One admitted request waiting in a shard queue."""

    request: AllocationRequest
    future: "asyncio.Future[AllocationResult]"
    deadline: Deadline
    enqueued: float
    root: Optional[Span] = None
    key: Optional[CoalesceKey] = None


# Queue items are pending requests or the shutdown sentinel (None).
_QueueItem = Optional[_Pending]


class ClusterFrontend:
    """Async front door: admit -> route -> queue -> batch -> dispatch."""

    def __init__(
        self,
        controller: ClusterController,
        options: Optional[FrontendOptions] = None,
    ) -> None:
        self.controller = controller
        self.options = options if options is not None else FrontendOptions()
        self.metrics = controller.metrics
        self.tracer = controller.tracer
        self._queues: Dict[str, "asyncio.Queue[_QueueItem]"] = {}
        self._workers: Dict[str, "asyncio.Task[None]"] = {}
        self._inflight: Dict[CoalesceKey, "asyncio.Future[AllocationResult]"]
        self._inflight = {}
        self._ema: Dict[str, float] = {}
        self._executor: Optional[ThreadPoolExecutor] = None
        self._started = False

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind to the controller's current shard set and spin workers."""
        if self._started:
            raise ClusterError("frontend is already started")
        loop = asyncio.get_running_loop()
        shards = self.controller.shards()
        if not shards:
            raise ClusterError("cannot start a frontend with no shards")
        self._executor = ThreadPoolExecutor(
            max_workers=len(shards), thread_name_prefix="cluster-frontend"
        )
        for shard in shards:
            queue: "asyncio.Queue[_QueueItem]" = asyncio.Queue()
            self._queues[shard.shard_id] = queue
            # A fresh start always seeds a fresh estimate: carrying an
            # EMA across stop()/start() would let a re-added shard ID
            # inherit another incarnation's service times.
            self._ema[shard.shard_id] = self.options.initial_service_seconds
            self._workers[shard.shard_id] = loop.create_task(
                self._worker(shard, queue),
                name=f"cluster-frontend:{shard.shard_id}",
            )
        self._started = True

    async def stop(self) -> None:
        """Drain queues, stop workers and release the dispatch pool."""
        if not self._started:
            return
        for queue in self._queues.values():
            queue.put_nowait(None)
        await asyncio.gather(*self._workers.values())
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self._queues.clear()
        self._workers.clear()
        self._inflight.clear()
        self._ema.clear()
        self._executor = None
        self._started = False

    async def remove_shard(self, shard_id: str) -> None:
        """Drain one shard and drop every piece of its frontend state.

        The shard is retired from the controller's ring first (so new
        submissions route elsewhere), its worker then finishes whatever
        is already queued against it, and finally the per-shard queue,
        worker and EMA entries are discarded -- a shard later re-added
        under the same ID starts from a fresh service-time estimate
        instead of inheriting the old incarnation's.

        Raises :class:`ClusterError` for an unknown shard or when this
        is the controller's last shard.
        """
        if not self._started:
            raise ClusterError("frontend is not started")
        self.controller.remove_shard(shard_id)
        queue = self._queues.pop(shard_id, None)
        worker = self._workers.pop(shard_id, None)
        self._ema.pop(shard_id, None)
        if queue is not None:
            queue.put_nowait(None)
        if worker is not None:
            await worker

    async def __aenter__(self) -> "ClusterFrontend":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- introspection --------------------------------------------------

    def queue_depth(self, shard_id: str) -> int:
        """Requests currently waiting for *shard_id* (0 if unknown)."""
        queue = self._queues.get(shard_id)
        return queue.qsize() if queue is not None else 0

    def service_time_estimate(self, shard_id: str) -> float:
        """The EMA of per-request service time on *shard_id* [s]."""
        return self._ema.get(shard_id, self.options.initial_service_seconds)

    # -- submission -----------------------------------------------------

    def coalesce_key(self, request: AllocationRequest) -> CoalesceKey:
        """Everything that determines the allocation's bits."""
        return (
            self.controller.fingerprint_for(request),
            float(request.power_budget),
            request.solver,
            float(request.kappa),
        )

    async def submit(self, request: AllocationRequest) -> AllocationResult:
        """Serve one request through the cluster.

        Raises :class:`RequestShedError` when admission control rejects
        the request (its deadline cannot be met, the target queue is
        full, or it expired while queued).  Cancelling the awaiting
        coroutine never cancels an in-flight shard dispatch that other
        coalesced callers may be sharing.
        """
        if not self._started:
            raise ClusterError("frontend is not started")
        self.metrics.counter("cluster.submitted").increment()
        key = self.coalesce_key(request)
        fingerprint = key[0]
        if self.options.coalesce:
            inflight = self._inflight.get(key)
            if inflight is not None:
                self.metrics.counter("cluster.coalesced").increment()
                return await asyncio.shield(inflight)

        route_start = time.perf_counter()
        # Routing is a pure consistent-hash shard pick and takes no
        # budget by design: admission control right below consumes the
        # deadline against the routed shard's queue estimate.
        shard = self.controller.route(fingerprint)  # repro: allow[R7]
        route_end = time.perf_counter()
        queue = self._queues.get(shard.shard_id)
        if queue is None:
            raise ClusterError(
                f"shard {shard.shard_id!r} joined after the frontend "
                "started; restart the frontend to serve it"
            )

        depth = queue.qsize()
        root: Optional[Span] = None
        if self.tracer.enabled:
            root = self.tracer.start_trace(
                "frontdoor",
                shard=shard.shard_id,
                fingerprint=fingerprint,
            )
            if root is not None:
                self.tracer.record_span(
                    "route",
                    parent=root,
                    start=route_start,
                    end=route_end,
                    depth=depth,
                )

        if depth >= self.options.max_queue_depth:
            self._count_shed("capacity")
            self._finish_shed_span(root, "capacity")
            raise RequestShedError(
                f"shard {shard.shard_id} queue is full "
                f"({depth}/{self.options.max_queue_depth})"
            )
        if self.options.shed and request.deadline_seconds is not None:
            estimate = (
                (depth + 1)
                * self._ema[shard.shard_id]
                * self.options.shed_safety
            )
            if estimate > request.deadline_seconds:
                self._count_shed("deadline")
                self._finish_shed_span(root, "deadline")
                raise RequestShedError(
                    f"deadline {request.deadline_seconds * 1e3:.2f} ms "
                    f"unmeetable on {shard.shard_id}: estimated sojourn "
                    f"{estimate * 1e3:.2f} ms at depth {depth}"
                )

        deadline = (
            Deadline.after(request.deadline_seconds)
            if request.deadline_seconds is not None
            else Deadline()
        )
        if deadline.expired:
            # A budget so small it is spent by admission time must never
            # enter the queue only to be late-shed after a pointless wait.
            self._count_shed("expired")
            self._finish_shed_span(root, "expired")
            raise RequestShedError(
                f"deadline {request.deadline_seconds}s already spent "
                "at admission"
            )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[AllocationResult]" = loop.create_future()
        pending = _Pending(
            request=request,
            future=future,
            deadline=deadline,
            enqueued=time.perf_counter(),
            root=root,
        )
        if self.options.coalesce:
            pending.key = key
            self._inflight[key] = future
            future.add_done_callback(
                lambda fut, key=key: self._release_inflight(key, fut)
            )
        queue.put_nowait(pending)
        return await asyncio.shield(future)

    async def submit_many(
        self,
        requests: Sequence[AllocationRequest],
        return_exceptions: bool = False,
    ) -> List[Union[AllocationResult, BaseException]]:
        """Submit a batch concurrently; order matches *requests*.

        With ``return_exceptions`` (the bench's mode) shed requests come
        back as :class:`RequestShedError` instances in-place instead of
        aborting the gather.
        """
        return await asyncio.gather(
            *(self.submit(request) for request in requests),
            return_exceptions=return_exceptions,
        )

    def _release_inflight(
        self, key: CoalesceKey, future: "asyncio.Future[AllocationResult]"
    ) -> None:
        if self._inflight.get(key) is future:
            del self._inflight[key]

    def _count_shed(self, reason: str) -> None:
        self.metrics.counter("cluster.shed", reason=reason).increment()

    def _finish_shed_span(self, root: Optional[Span], reason: str) -> None:
        if root is not None:
            root.set_attribute("shed", reason)
            self.tracer.finish(root)

    # -- dispatch -------------------------------------------------------

    async def _worker(
        self, shard: Shard, queue: "asyncio.Queue[_QueueItem]"
    ) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await queue.get()
            if item is None:
                queue.task_done()
                return
            batch = [item]
            while len(batch) < self.options.batch_max:
                try:
                    extra = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    # Shutdown sentinel: serve this batch, exit next loop.
                    queue.put_nowait(None)
                    queue.task_done()
                    break
                batch.append(extra)
            try:
                await self._dispatch(loop, shard, batch)
            finally:
                for _ in batch:
                    queue.task_done()

    async def _dispatch(
        self,
        loop: asyncio.AbstractEventLoop,
        shard: Shard,
        batch: List[_Pending],
    ) -> None:
        dequeued = time.perf_counter()
        live: List[_Pending] = []
        for pending in batch:
            if pending.root is not None:
                self.tracer.record_span(
                    "queue",
                    parent=pending.root,
                    start=pending.enqueued,
                    end=dequeued,
                    batch_size=len(batch),
                )
            if pending.deadline.expired:
                self._count_shed("late")
                self._finish_shed_span(pending.root, "late")
                if not pending.future.done():
                    pending.future.set_exception(
                        RequestShedError(
                            "deadline expired while queued on "
                            f"{shard.shard_id}"
                        )
                    )
                continue
            live.append(pending)
        if not live:
            return

        # Remaining (not original) budgets flow into the shard so queue
        # time spends the same clock the solver pool enforces.
        requests: List[AllocationRequest] = []
        for pending in live:
            remaining = pending.deadline.remaining()
            if remaining == float("inf"):
                requests.append(pending.request)
            else:
                requests.append(
                    dataclasses.replace(
                        pending.request, deadline_seconds=remaining
                    )
                )
        parents = [pending.root for pending in live]
        self.metrics.counter("cluster.dispatches").increment()
        self.metrics.histogram("cluster.batch_size").observe(len(live))

        start = time.perf_counter()
        try:
            results = await loop.run_in_executor(
                self._executor,
                lambda: shard.service.handle_batch(
                    requests, trace_parents=parents
                ),
            )
        except Exception as exc:
            # The exception reaches the awaiting submitters through
            # their futures, but nothing aggregate would show a shard
            # failing every batch -- count it so dashboards and the
            # bench report see the failure rate.
            self.metrics.counter("cluster.dispatch_errors").increment(
                len(live)
            )
            for pending in live:
                if pending.root is not None:
                    pending.root.set_attribute("error", type(exc).__name__)
                    self.tracer.finish(pending.root)
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        elapsed = time.perf_counter() - start

        alpha = self.options.ema_alpha
        per_request = elapsed / len(live)
        self._ema[shard.shard_id] = (
            alpha * per_request + (1.0 - alpha) * self._ema[shard.shard_id]
        )
        sojourn = shard.service.metrics.histogram("frontend.sojourn_seconds")
        done = time.perf_counter()
        for pending, result in zip(live, results):
            sojourn.observe(done - pending.enqueued)
            if pending.root is not None:
                pending.root.set_attribute("solver_used", result.solver_used)
                pending.root.set_attribute("degraded", result.degraded)
                self.tracer.finish(pending.root)
            if not pending.future.done():
                pending.future.set_result(result)
