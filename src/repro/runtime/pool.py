"""In-process execution of allocation solves.

Every task is a pure function of ``(channel, budget, solver,
parameters)``: no solve is seeded from an earlier answer.
:class:`SolverPool` solves :class:`SolveTask` batches one after another
in the calling thread and returns the results in submission order.

A task's deadline reaches the solver itself: each evaluation of the
``optimal`` tier's objective, each swing-search round and each greedy
step check it and raise
:class:`~repro.errors.DeadlineExceeded` once it has passed, so no solve
runs on a helper thread.  A solve that misses its deadline or fails to
converge falls down the degradation chain (``optimal -> swing ->
heuristic``, see :mod:`repro.runtime.resilience`): callers get the best
cheaper allocation, flagged as degraded, instead of an exception.

Solvers are looked up by name in :data:`SOLVERS` (``"heuristic"``,
``"greedy"``, ``"optimal"``, ``"swing"``).
"""

from __future__ import annotations

# Not used here: perfbench/layers.py patches ``pool.ThreadPoolExecutor``,
# so the name stays importable from this module.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
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
    solve_optimal,
    solve_swing,
)
from ..errors import DeadlineExceeded, OptimizationError, RuntimeEngineError
from ..optics import LEDModel, Photodiode, cree_xte, s5971
from ..tracecontext import Span, add_span_attributes, stage
from .faults import FaultPlan
from .metrics import MetricsRegistry
from .resilience import Deadline, degradation_fallbacks

#: The sampled spans one solve's attempts are bracketed under.
TraceParents = Sequence[Optional[Span]]


@dataclass(frozen=True)
class SolveTask:
    """One allocation solve: a problem instance plus solver selection.

    ``reduce`` enables the SJR-pruned reduced-variable program /
    candidate-pair pruning (with automatic full-dimension fallback).
    ``led`` defaults to the scenes' LED (:func:`~repro.optics.cree_xte`,
    54.1 mW at full swing), so a task built from a scene's channel
    solves that scene's Eq. 7 program.

    ``deadline`` is an absolute :func:`time.monotonic` timestamp (the
    request's remaining budget, set by the service).  It reaches the
    solver through its options, and the solver raises
    :class:`~repro.errors.DeadlineExceeded` at its first checkpoint past
    it.  ``faults``/``fault_key`` hook the seedable chaos harness
    (:class:`FaultPlan`) into the solve.
    """

    channel: np.ndarray
    power_budget: float
    solver: str = "heuristic"
    kappa: float = constants.DEFAULT_KAPPA
    seed: int = 0
    led: LEDModel = field(default_factory=cree_xte)
    photodiode: Photodiode = field(default_factory=s5971)
    noise: AWGNNoise = field(default_factory=AWGNNoise)
    reduce: bool = True
    deadline: Optional[float] = None
    faults: Optional[FaultPlan] = None
    fault_key: Hashable = 0

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
            deadline=self.deadline,
        )

    def swing_options(self) -> SwingSearchOptions:
        return SwingSearchOptions(
            kappa=self.kappa,
            seed=self.seed,
            reduce=self.reduce,
            deadline=self.deadline,
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
    """

    swings: np.ndarray
    solver: str
    requested_solver: str
    degraded: bool = False
    deadline_exceeded: bool = False


def _solve_heuristic(task: SolveTask, metrics=None) -> Allocation:
    return RankingHeuristic(kappa=task.kappa).solve(task.problem())


def _solve_greedy(task: SolveTask, metrics=None) -> Allocation:
    return GreedyMarginalHeuristic(deadline=task.deadline).solve(task.problem())


def _solve_optimal(task: SolveTask, metrics=None) -> Allocation:
    return solve_optimal(task.problem(), task.optimizer_options(), metrics=metrics)


def _solve_swing(task: SolveTask, metrics=None) -> Allocation:
    return solve_swing(task.problem(), task.swing_options(), metrics=metrics)


#: Solver name -> callable; tasks reference solvers by name.
SOLVERS: Dict[str, Callable[..., Allocation]] = {
    "heuristic": _solve_heuristic,
    "greedy": _solve_greedy,
    "optimal": _solve_optimal,
    "swing": _solve_swing,
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
        task.faults.maybe_slow_solve(task.fault_key, attempt, task.deadline)
    return solver(task, metrics=metrics).swings


class SolverPool:
    """Deterministic in-process execution of :class:`SolveTask` batches.

    Tasks run one at a time in submission order; every solver is a
    pure function of its task, so the same batch always returns the
    same swing matrices.  Degraded solves are counted under
    ``resilience.*`` and ``pool.degraded`` in *metrics*.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._solve_stage = {
            solver: self.metrics.histogram(
                "stage.self_seconds", stage=f"solve[{solver}]"
            )
            for solver in SOLVERS
        }

    def solve_many(self, tasks: Sequence[SolveTask]) -> List[np.ndarray]:
        """Solve every task, preserving submission order."""
        return [outcome.swings for outcome in self.solve_outcomes(tasks)]

    def solve_outcomes(
        self,
        tasks: Sequence[SolveTask],
        trace_parents: Optional[Sequence[TraceParents]] = None,
    ) -> List[SolveOutcome]:
        """Solve every task, returning swings plus resilience provenance.

        *trace_parents* (aligned with *tasks*) names the sampled spans
        each task's attempts are recorded under -- the service passes
        the ``allocation`` spans of the requests a solve serves.
        Without it every attempt inherits the enclosing stage's spans.
        """
        tasks = list(tasks)
        self.metrics.counter("pool.tasks").increment(len(tasks))
        for task in tasks:
            self.metrics.counter("pool.solves", solver=task.solver).increment()
        if trace_parents is None:
            return [self._solve_outcome(task, None) for task in tasks]
        return [
            self._solve_outcome(task, parents)
            for task, parents in zip(tasks, trace_parents)
        ]

    # ------------------------------------------------------------------

    def _attempt(
        self, task: SolveTask, attempt: int, parents: Optional[TraceParents]
    ) -> np.ndarray:
        """Run one solve attempt on the calling thread, as a ``solve`` stage.

        The stage's histogram is labelled by the attempt's tier; for
        sampled requests the attempt is also a ``solve`` span, flagged
        ``timed_out`` when its deadline stopped it, and the optimizer's
        introspection (:func:`repro.tracecontext.add_span_attributes`)
        lands on it.
        """
        with stage(
            "solve", self._solve_stage.get(task.solver), parents=parents,
            solver=task.solver, attempt=attempt, reduce=task.reduce,
        ):
            try:
                return solve_task(task, metrics=self.metrics, attempt=attempt)
            except DeadlineExceeded:
                add_span_attributes(timed_out=True)
                raise

    def _solve_outcome(
        self, task: SolveTask, parents: Optional[TraceParents]
    ) -> SolveOutcome:
        try:
            # A budget spent before the solve starts counts as a missed
            # first attempt: go straight to the fallbacks.
            task.deadline_object().require("solve")
            swings = self._attempt(task, 0, parents)
        except (DeadlineExceeded, OptimizationError) as error:
            return self._degraded_outcome(task, error, parents)
        return SolveOutcome(
            swings=swings, solver=task.solver, requested_solver=task.solver
        )

    def _degraded_outcome(
        self,
        task: SolveTask,
        cause: Exception,
        parents: Optional[TraceParents],
    ) -> SolveOutcome:
        """Fall down the degradation chain and return the best cheaper solve.

        Fallbacks keep the task's deadline, and one that would start
        past it is skipped.  A fallback that leaves a reachable RX (a
        nonzero channel column) at zero swing also counts under
        ``pool.degraded_starving``.  The last resort (always the heuristic)
        runs without the deadline: the caller must get an answer even
        when the budget is spent, flagged ``deadline_exceeded``.
        """
        deadline = task.deadline_object()
        fallbacks = degradation_fallbacks(task.solver)
        for attempt, fallback in enumerate(fallbacks, start=1):
            last = attempt == len(fallbacks)
            if not last and deadline.expired:
                continue
            degraded_task = replace(
                task,
                solver=fallback,
                deadline=None if last else task.deadline,
            )
            try:
                swings = self._attempt(degraded_task, attempt, parents)
            except (DeadlineExceeded, OptimizationError):
                continue
            expired = deadline.expired
            self.metrics.counter("resilience.degraded_solves").increment()
            self.metrics.counter(
                "pool.degraded", requested=task.solver, fallback=fallback
            ).increment()
            # A cheaper tier can light fewer RXs than the budget could
            # serve (the binary tiers below M full-swing TXs): count the
            # fallbacks that leave a reachable RX at zero swing.
            reachable = np.any(task.channel > 0.0, axis=0)
            if np.any(reachable & ~np.any(swings > 0.0, axis=0)):
                self.metrics.counter(
                    "pool.degraded_starving",
                    requested=task.solver,
                    fallback=fallback,
                ).increment()
            if expired:
                self.metrics.counter("resilience.deadline_expirations").increment()
            return SolveOutcome(
                swings=swings,
                solver=fallback,
                requested_solver=task.solver,
                degraded=True,
                deadline_exceeded=expired,
            )
        self.metrics.counter("resilience.deadline_expirations").increment()
        raise DeadlineExceeded(
            f"every fallback for solver {task.solver!r} failed within the "
            f"deadline: {cause}"
        ) from cause
