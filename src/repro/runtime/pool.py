"""In-process execution of allocation solves.

Every task is a pure function of ``(channel, budget, solver,
parameters)``.  :class:`SolverPool` solves :class:`SolveTask` batches
one after another in the calling thread and returns the results in
submission order.

A task that carries a deadline runs on a helper thread bounded by the
remaining budget (and the pool's ``task_timeout``).  With a
:class:`~repro.runtime.resilience.ResiliencePolicy` attached, a solve
that times out or fails to converge falls down the solver degradation
chain (``optimal -> swing -> binary -> greedy -> heuristic``): callers
get the best cheaper allocation, flagged as degraded, instead of an
exception.

Solvers are looked up by name in :data:`SOLVERS` (``"heuristic"``,
``"greedy"``, ``"optimal"``, ``"swing"``, ``"binary"``).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor, TimeoutError as FutureTimeout
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Hashable, List, Optional, Sequence

import numpy as np

from .. import constants
from ..channel import AWGNNoise
from ..core import (
    Allocation,
    AllocationProblem,
    GreedyMarginalHeuristic,
    OptimizerOptions,
    RankingHeuristic,
    SwingSearchOptions,
    binary_projection,
    solve_optimal,
    solve_swing,
)
from ..errors import DeadlineExceeded, OptimizationError, RuntimeEngineError
from ..optics import LEDModel, Photodiode, cree_xte_paper_power, s5971
from .faults import FaultPlan
from .metrics import MetricsRegistry
from .resilience import Deadline, ResiliencePolicy, degradation_fallbacks
from .tracing import SpanRecorder, shift_payload


@dataclass(frozen=True)
class SolveTask:
    """One allocation solve: a problem instance plus solver selection.

    ``warm_start`` is an optional (N, M) swing matrix that seeds SLSQP
    for the ``optimal``/``binary`` solvers and the combinatorial
    ``swing`` search (where its binary projection competes with the
    ranked seed) -- the serving layer fills it with the nearest cached
    allocation so mobility-style traffic skips most of the solver
    iterations.  ``reduce`` enables the SJR-pruned reduced-variable
    program / candidate-pair pruning (with automatic full-dimension
    fallback).

    ``deadline`` is an absolute :func:`time.monotonic` timestamp (the
    request's remaining budget, set by the service).  ``faults``/
    ``fault_key`` hook the seedable chaos harness (:class:`FaultPlan`)
    into the solve.

    ``traced`` asks for a span payload: the solve runs inside a
    :class:`~repro.runtime.tracing.SpanRecorder` span, and
    :class:`SolveOutcome.spans` carries the captured spans back so the
    service can attach them to every request trace the solve serves.
    Untraced tasks take exactly the pre-tracing code path.
    """

    channel: np.ndarray
    power_budget: float
    solver: str = "heuristic"
    kappa: float = constants.DEFAULT_KAPPA
    seed: int = 0
    led: LEDModel = field(default_factory=cree_xte_paper_power)
    photodiode: Photodiode = field(default_factory=s5971)
    noise: AWGNNoise = field(default_factory=AWGNNoise)
    warm_start: Optional[np.ndarray] = None
    reduce: bool = True
    deadline: Optional[float] = None
    faults: Optional[FaultPlan] = None
    fault_key: Hashable = 0
    traced: bool = False

    def problem(self) -> AllocationProblem:
        return AllocationProblem(
            channel=self.channel,
            power_budget=self.power_budget,
            led=self.led,
            photodiode=self.photodiode,
            noise=self.noise,
        )

    def optimizer_options(self) -> OptimizerOptions:
        return OptimizerOptions(
            restarts=0,
            seed=self.seed,
            reduce=self.reduce,
            warm_start=self.warm_start,
        )

    def swing_options(self) -> SwingSearchOptions:
        return SwingSearchOptions(
            kappa=self.kappa,
            seed=self.seed,
            reduce=self.reduce,
            warm_start=self.warm_start,
        )

    def deadline_object(self) -> Deadline:
        return Deadline() if self.deadline is None else Deadline(self.deadline)


@dataclass(frozen=True)
class SolveOutcome:
    """One solved task plus its resilience provenance.

    Attributes:
        swings: the solved (N, M) swing matrix [A].
        solver: the solver that actually produced *swings*.
        requested_solver: the solver the task asked for.
        degraded: True when *solver* is a degradation-chain fallback.
        deadline_exceeded: the task's deadline expired along the way
            (the result is the best allocation the remaining budget
            could buy).
        spans: span payload dicts captured around every solve attempt
            (only for ``traced`` tasks; times are on the
            ``perf_counter`` clock).
    """

    swings: np.ndarray
    solver: str
    requested_solver: str
    degraded: bool = False
    deadline_exceeded: bool = False
    spans: "tuple[dict, ...]" = ()


def _solve_heuristic(task: SolveTask, metrics=None) -> Allocation:
    return RankingHeuristic(kappa=task.kappa).solve(task.problem())


def _solve_greedy(task: SolveTask, metrics=None) -> Allocation:
    return GreedyMarginalHeuristic().solve(task.problem())


def _solve_optimal(task: SolveTask, metrics=None) -> Allocation:
    return solve_optimal(task.problem(), task.optimizer_options(), metrics=metrics)


def _solve_binary(task: SolveTask, metrics=None) -> Allocation:
    return binary_projection(
        solve_optimal(task.problem(), task.optimizer_options(), metrics=metrics)
    )


def _solve_swing(task: SolveTask, metrics=None) -> Allocation:
    return solve_swing(task.problem(), task.swing_options(), metrics=metrics)


#: Solver name -> callable; tasks reference solvers by name.
SOLVERS: Dict[str, Callable[..., Allocation]] = {
    "heuristic": _solve_heuristic,
    "greedy": _solve_greedy,
    "optimal": _solve_optimal,
    "swing": _solve_swing,
    "binary": _solve_binary,
}


def solve_task(
    task: SolveTask,
    metrics: Optional[MetricsRegistry] = None,
    attempt: int = 0,
) -> np.ndarray:
    """Execute one task, returning the solved swing matrix.

    The optional *metrics* registry receives the optimizer's per-stage
    timings.  *attempt* numbers executions of the same task (the first
    solve, then each degradation fallback) so the fault plan can fire
    on first attempts and clear afterwards.
    """
    try:
        solver = SOLVERS[task.solver]
    except KeyError:
        raise RuntimeEngineError(
            f"unknown solver {task.solver!r}; available: {sorted(SOLVERS)}"
        ) from None
    if task.faults is not None:
        task.faults.maybe_slow_solve(task.fault_key, attempt)
    return solver(task, metrics=metrics).swings


def solve_task_traced(
    task: SolveTask,
    metrics: Optional[MetricsRegistry] = None,
    attempt: int = 0,
) -> "tuple[np.ndarray, list]":
    """Execute one task inside a recorded span; returns (swings, payload).

    The payload is a list of plain span dicts with times relative to
    this call (see :class:`~repro.runtime.tracing.SpanRecorder`); the
    caller shifts them onto its own clock.  Running inside the
    recorder's span also routes optimizer introspection
    (:func:`repro.tracecontext.add_span_attributes`) into the payload.
    """
    recorder = SpanRecorder()
    with recorder.span(
        "solve", solver=task.solver, attempt=attempt, reduce=task.reduce,
        warm_started=task.warm_start is not None,
    ):
        swings = solve_task(task, metrics=metrics, attempt=attempt)
    return swings, recorder.payload()


@dataclass(frozen=True)
class PoolOptions:
    """Knobs for :class:`SolverPool`.

    Attributes:
        task_timeout: wall-clock limit [s] on one solve attempt of a
            task that carries a deadline, and on every degradation
            fallback.  Tasks without a deadline run unbounded on the
            calling thread.
    """

    task_timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.task_timeout <= 0:
            raise RuntimeEngineError(
                f"task timeout must be positive, got {self.task_timeout}"
            )


class SolverPool:
    """Deterministic in-process execution of :class:`SolveTask` batches.

    Tasks run one at a time in submission order; every solver is a
    pure function of its task, so the same batch always returns the
    same swing matrices.
    """

    def __init__(
        self,
        options: Optional[PoolOptions] = None,
        metrics: Optional[MetricsRegistry] = None,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> None:
        self.options = options if options is not None else PoolOptions()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.resilience = resilience

    def solve_many(self, tasks: Sequence[SolveTask]) -> List[np.ndarray]:
        """Solve every task, preserving submission order."""
        return [outcome.swings for outcome in self.solve_outcomes(tasks)]

    def solve_outcomes(self, tasks: Sequence[SolveTask]) -> List[SolveOutcome]:
        """Solve every task, returning swings plus resilience provenance."""
        tasks = list(tasks)
        self.metrics.counter("pool.tasks").increment(len(tasks))
        for task in tasks:
            self.metrics.counter("pool.solves", solver=task.solver).increment()
        return [self._solve_outcome(task) for task in tasks]

    # ------------------------------------------------------------------

    def _call_bounded(
        self,
        task: SolveTask,
        timeout: Optional[float],
        attempt: int,
        spans: Optional[List[dict]] = None,
    ) -> np.ndarray:
        """Run one solve, bounded by *timeout* seconds when finite.

        The bounded path runs the solve on a helper thread and abandons
        it on expiry (raising :class:`DeadlineExceeded`); a genuinely
        wedged solve leaks its thread -- the price of preemption-free
        Python -- but the batch keeps making progress.

        For traced tasks each attempt's span payload is shifted onto
        this process's clock and collected into *spans*; a timed-out
        attempt contributes a synthetic span flagged ``timed_out``
        (the real one is stranded on the abandoned thread).
        """
        traced = task.traced and spans is not None
        call_start = time.perf_counter()

        def _run() -> np.ndarray:
            if traced:
                swings, payload = solve_task_traced(
                    task, metrics=self.metrics, attempt=attempt
                )
                spans.extend(shift_payload(payload, call_start))
                return swings
            return solve_task(task, metrics=self.metrics, attempt=attempt)

        if timeout is None or timeout == float("inf"):
            with self.metrics.timer("pool.solve_seconds"):
                return _run()
        if timeout <= 0:
            raise DeadlineExceeded(
                f"no time left for solver {task.solver!r} (attempt {attempt})"
            )
        executor = ThreadPoolExecutor(max_workers=1)
        future = executor.submit(_run)
        try:
            with self.metrics.timer("pool.solve_seconds"):
                return future.result(timeout=timeout)
        except FutureTimeout:
            if traced:
                spans.append(
                    {
                        "name": "solve",
                        "span_id": "",
                        "parent_id": None,
                        "start": call_start,
                        "end": call_start + timeout,
                        "attributes": {
                            "solver": task.solver,
                            "attempt": attempt,
                            "timed_out": True,
                        },
                    }
                )
            raise DeadlineExceeded(
                f"solver {task.solver!r} exceeded {timeout:.3f}s "
                f"(attempt {attempt})"
            ) from None
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    def _degraded_outcome(
        self,
        task: SolveTask,
        deadline: Deadline,
        timed_out: bool,
        first_attempt: int,
        cause: Exception,
        spans: Optional[List[dict]] = None,
    ) -> SolveOutcome:
        """Fall down the degradation chain and return the best cheaper solve."""
        policy = self.resilience
        if policy is None or not policy.options.degrade:
            raise cause
        attempt = first_attempt
        deadline_hit = timed_out and deadline.expired
        fallbacks = degradation_fallbacks(task.solver, timed_out=timed_out)
        for position, fallback in enumerate(fallbacks):
            degraded_task = replace(task, solver=fallback, warm_start=None)
            last = position == len(fallbacks) - 1
            timeout = deadline.cap(self.options.task_timeout)
            if timeout is not None and timeout <= 0 and not last:
                attempt += 1
                continue
            if last and deadline.bounded:
                # Last resort: the caller must get an answer even when
                # the budget is spent (or nearly so) -- run the cheapest
                # solver bounded by the task timeout alone and flag the
                # overrun instead of enforcing it.
                if timeout is not None and timeout <= 0:
                    deadline_hit = True
                timeout = self.options.task_timeout
            try:
                swings = self._call_bounded(
                    degraded_task, timeout, attempt, spans=spans
                )
            except (DeadlineExceeded, OptimizationError):
                deadline_hit = deadline_hit or deadline.expired
                attempt += 1
                continue
            policy.count("degraded_solves")
            self.metrics.counter(
                "pool.degraded", requested=task.solver, fallback=fallback
            ).increment()
            if deadline_hit or deadline.expired:
                policy.count("deadline_expirations")
            return SolveOutcome(
                swings=swings,
                solver=fallback,
                requested_solver=task.solver,
                degraded=True,
                deadline_exceeded=deadline_hit or deadline.expired,
                spans=tuple(spans) if spans else (),
            )
        policy.count("deadline_expirations")
        raise DeadlineExceeded(
            f"every fallback for solver {task.solver!r} failed within the "
            f"deadline: {cause}"
        ) from cause

    def _solve_outcome(self, task: SolveTask) -> SolveOutcome:
        deadline = task.deadline_object()
        spans: Optional[List[dict]] = [] if task.traced else None
        if deadline.expired:
            # The budget was spent before the solve started: skip
            # straight to the cheapest fallback so the caller still
            # gets an allocation.
            return self._degraded_outcome(
                task,
                deadline,
                timed_out=True,
                first_attempt=0,
                cause=DeadlineExceeded("deadline expired before solve"),
                spans=spans,
            )
        # A task with a deadline is bounded by its remaining budget and
        # the task timeout; one without runs unbounded on this thread,
        # with no helper thread to pay for.
        timeout = (
            deadline.cap(self.options.task_timeout) if deadline.bounded else None
        )
        try:
            swings = self._call_bounded(task, timeout, attempt=0, spans=spans)
        except DeadlineExceeded as error:
            return self._degraded_outcome(
                task, deadline, timed_out=True,
                first_attempt=1, cause=error, spans=spans,
            )
        except OptimizationError as error:
            return self._degraded_outcome(
                task, deadline, timed_out=False,
                first_attempt=1, cause=error, spans=spans,
            )
        return SolveOutcome(
            swings=swings, solver=task.solver, requested_solver=task.solver,
            spans=tuple(spans) if spans else (),
        )
