"""Combinatorial binary-swing solver for the Eq. 5-7 program.

The paper's key structural result (Insight 2 / contribution ii) is that
the continuous optimum is near-binary: each TX ends at either zero
swing (illumination only) or full swing serving exactly one RX.  The
SLSQP tiers still pay a continuous relaxation for every uncached solve;
this module exploits the binary structure directly and searches the
discrete space of *assignments* ``a[j] in {off, 0..M-1}``:

1. **Seed** -- Algorithm 1's SJR ranking (:func:`rank_transmitters`)
   truncated to the power budget, exactly the ranking heuristic's
   allocation.  A warm-start swing matrix (the serving layer's nearest
   cached allocation) is projected onto the assignment space and used
   instead when it scores better.
2. **Steepest-ascent local search** -- every round evaluates all
   single moves (switch a TX off, switch one on toward an RX, reassign
   a TX to a different RX) plus off+on *swap* pairs, applies the best
   improving move, and stops when no move improves the Eq. 5 sum-log
   utility.  Under the binary structure the per-TX swing bound (Eq. 6)
   is satisfied by construction and the power budget (Eq. 7) collapses
   to a cardinality constraint -- at most
   ``floor(P_budget / full_swing_power)`` active TXs.
3. **Incremental delta evaluation** -- the search maintains the per-RX
   signal/total amplitude components; a move only adds or subtracts one
   TX's (scaled) channel row, so whole candidate stacks are evaluated
   in one broadcast through the same Eq.-12 arithmetic the runtime's
   vectorized stacks use
   (:func:`repro.channel.stacks.utility_from_amplitude_components`).
4. **Repair** -- an over-budget state (an aggressive warm start, a
   budget shrink) is repaired by repeatedly switching off the active TX
   whose removal costs the least utility until the budget holds.

The candidate space is pruned the same way the SLSQP tier is
(:func:`~repro.core.reduction.plan_reduction`): only the SJR-ranked
pairs the budget can plausibly afford are considered, with seed and
warm-start pairs always kept so the search can never be walled off
from its own starting point.  Ties between equally good moves break by
blake2b digest of the move coordinates -- fully deterministic, never
dependent on ``PYTHONHASHSEED`` or iteration order of a set.

The result is flagged ``solver="swing-search"`` and is guaranteed never
worse (in Eq. 5 utility) than the ranking-heuristic seed.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, ContextManager, List, Optional, Tuple

import numpy as np

from .. import constants
from ..channel.stacks import utility_from_amplitude_components
from ..errors import DeadlineExceeded, OptimizationError
from ..tracecontext import add_span_attributes, current_span
from .allocation import Allocation, Assignment, binary_allocation
from .heuristic import RankingHeuristic
from .problem import UTILITY_FLOOR, AllocationProblem
from .reduction import plan_reduction

#: Assignment value for a TX that only illuminates.
OFF: int = -1

#: Move-kind codes used in the blake2b tie-break digest.
_MOVE_OFF, _MOVE_ON, _MOVE_REASSIGN, _MOVE_SWAP = 0, 1, 2, 3


@dataclass(frozen=True)
class SwingSearchOptions:
    """Knobs for :class:`SwingSearchSolver`.

    Attributes:
        kappa: SJR exponent for the seeding ranking (Algorithm 1).
        max_iterations: cap on accepted moves (search rounds).
        tolerance: minimum utility gain for a move to count as improving.
        seed: tie-break seed (feeds the blake2b move digest only; the
            search itself is deterministic and RNG-free).
        utility_floor: throughput floor [bit/s] inside the log utility.
        reduce: prune the candidate (TX, RX) pairs to the SJR-ranked
            prefix the budget can afford (:func:`plan_reduction`), as
            the SLSQP tier does; seed and warm-start pairs are always
            kept.
        reduction_margin / reduction_min_extra: forwarded to
            :func:`plan_reduction`.
        warm_start: optional (N, M) swing matrix [A]; its binary
            projection replaces the ranking seed when it scores better.
        deadline: optional absolute :func:`time.monotonic` timestamp;
            the search raises :class:`~repro.errors.DeadlineExceeded`
            at the first round that starts past it.
    """

    kappa: float = constants.DEFAULT_KAPPA
    max_iterations: int = 128
    tolerance: float = 1e-10
    seed: int = 0
    utility_floor: float = UTILITY_FLOOR
    reduce: bool = True
    reduction_margin: float = 0.5
    reduction_min_extra: int = 2
    warm_start: Optional[np.ndarray] = None
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise OptimizationError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.tolerance < 0:
            raise OptimizationError(
                f"tolerance must be >= 0, got {self.tolerance}"
            )
        if self.utility_floor <= 0:
            raise OptimizationError(
                f"utility floor must be positive, got {self.utility_floor}"
            )
        if self.warm_start is not None:
            warm = np.asarray(self.warm_start, dtype=float)
            if warm.ndim != 2:
                raise OptimizationError(
                    f"warm start must be an (N, M) swing matrix, got shape "
                    f"{warm.shape}"
                )
            object.__setattr__(self, "warm_start", warm)


class _SearchState:
    """One binary assignment plus its incremental Eq.-12 components.

    ``assignment[j]`` is the RX served by TX ``j`` (or :data:`OFF`).
    ``signal[i]`` / ``total[i]`` are RX ``i``'s own-beamspot and
    all-beamspot received amplitudes; both are linear in the active TXs'
    scaled channel rows, so every move is an O(M) update.
    """

    def __init__(self, gains: np.ndarray) -> None:
        self.gains = gains  # (N, M) amplitude contribution per (TX, RX)
        num_tx, num_rx = gains.shape
        self.assignment = np.full(num_tx, OFF, dtype=int)
        self.signal = np.zeros(num_rx)
        self.total = np.zeros(num_rx)

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self.assignment != OFF))

    def switch_on(self, tx: int, rx: int) -> None:
        self.assignment[tx] = rx
        self.total += self.gains[tx]
        self.signal[rx] += self.gains[tx, rx]

    def switch_off(self, tx: int) -> None:
        rx = int(self.assignment[tx])
        self.assignment[tx] = OFF
        self.total -= self.gains[tx]
        self.signal[rx] -= self.gains[tx, rx]

    def reassign(self, tx: int, rx: int) -> None:
        old = int(self.assignment[tx])
        self.assignment[tx] = rx
        self.signal[old] -= self.gains[tx, old]
        self.signal[rx] += self.gains[tx, rx]


def _tie_digest(seed: int, iteration: int, move: Tuple[int, int, int, int]) -> bytes:
    """Deterministic tie-break key for one candidate move (blake2b)."""
    kind, tx_out, tx_in, rx = move
    payload = f"{seed}:{iteration}:{kind}:{tx_out}:{tx_in}:{rx}".encode()
    return hashlib.blake2b(payload, digest_size=8).digest()


class SwingSearchSolver:
    """Seeded steepest-ascent search over binary swing assignments.

    *metrics* is an optional
    :class:`repro.runtime.metrics.MetricsRegistry`-compatible object;
    per-stage timings land under ``optimizer.swing.*_seconds`` and the
    accepted-move/iteration counters under ``optimizer.swing.*``.  When
    a trace span is active the solve annotates it with iteration/flip
    counts and a downsampled objective trajectory, mirroring the SLSQP
    tier's solve-span attributes.
    """

    def __init__(
        self,
        options: Optional[SwingSearchOptions] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self.options = options if options is not None else SwingSearchOptions()
        self.metrics = metrics
        self._noise_power: float = 0.0
        self._bandwidth: float = 0.0

    def _timer(self, name: str) -> ContextManager[None]:
        return self.metrics.timer(name) if self.metrics is not None else nullcontext()

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).increment(amount)

    # ------------------------------------------------------------------

    def solve(self, problem: AllocationProblem) -> Allocation:
        """The best binary allocation the seeded local search reaches."""
        options = self.options
        self._count("optimizer.swing.solves")
        self._noise_power = problem.noise.power
        self._bandwidth = problem.noise.bandwidth
        capacity = problem.max_affordable_transmitters
        if capacity <= 0 or not np.any(problem.channel > 0.0):
            # No budget or no usable link: the only sensible binary
            # allocation is the empty one (burning swing on zero-gain
            # links costs power for floored rates).
            empty = binary_allocation(problem, (), solver="swing-search")
            return self._finish(problem, empty, empty, 0, 0, 0, [])
        with self._timer("optimizer.swing.seed_seconds"):
            seed_allocation = RankingHeuristic(kappa=options.kappa).solve(problem)

        gains = self._amplitude_gains(problem)
        allowed = self._allowed_pairs(problem, seed_allocation)
        state = _SearchState(gains)
        for tx, rx in seed_allocation.assignments:
            state.switch_on(int(tx), int(rx))

        warm_pairs = self._warm_projection(problem)
        if warm_pairs is not None:
            warm_state = _SearchState(gains)
            for tx, rx in warm_pairs:
                warm_state.switch_on(tx, rx)
                allowed[tx, rx] = True
            with self._timer("optimizer.swing.repair_seconds"):
                self._repair(warm_state, capacity)
            if self._utility(problem, warm_state) > self._utility(problem, state):
                self._count("optimizer.swing.warm_seeds")
                state = warm_state

        with self._timer("optimizer.swing.search_seconds"):
            iterations, flips, swaps, trajectory = self._ascend(
                problem, state, allowed, capacity
            )
        candidate = binary_allocation(
            problem, self._ordered_assignments(state), solver="swing-search"
        )
        return self._finish(
            problem, candidate, seed_allocation, iterations, flips, swaps, trajectory
        )

    # ------------------------------------------------------------------
    # Seeding and candidate-space construction
    # ------------------------------------------------------------------

    def _amplitude_gains(self, problem: AllocationProblem) -> np.ndarray:
        """(N, M) per-pair amplitude contribution at full swing.

        ``gains[j, i]`` is the amplitude RX ``i`` receives when TX ``j``
        runs at full swing -- the unit every incremental move adds or
        removes from the signal/total components.
        """
        led = problem.led
        scale = (
            problem.photodiode.responsivity
            * led.wall_plug_efficiency
            * led.dynamic_resistance
        )
        return scale * (led.max_swing / 2.0) ** 2 * problem.channel

    def _allowed_pairs(
        self, problem: AllocationProblem, seed: Allocation
    ) -> np.ndarray:
        """(N, M) mask of candidate (TX, RX) pairs the search may use.

        With ``reduce`` the mask is the SJR-ranked reduction plan's pair
        set (plus the seed's pairs, which the ranked prefix contains by
        construction but are unioned defensively); without it, every
        pair with a usable channel gain.  Pairs with zero gain are never
        candidates -- granting them swing burns budget for nothing.
        """
        usable = problem.channel > 0.0
        if self.options.reduce:
            plan = plan_reduction(
                problem,
                kappa=self.options.kappa,
                margin=self.options.reduction_margin,
                min_extra=self.options.reduction_min_extra,
            )
            if plan is not None:
                mask = np.zeros_like(usable)
                mask[plan.tx_indices, plan.rx_indices] = True
                mask &= usable
                for tx, rx in seed.assignments:
                    if usable[tx, rx]:
                        mask[tx, rx] = True
                if self.metrics is not None:
                    self.metrics.gauge("optimizer.swing.candidate_pairs").set(
                        float(np.count_nonzero(mask))
                    )
                return mask
        return usable.copy()

    def _warm_projection(
        self, problem: AllocationProblem
    ) -> Optional[List[Assignment]]:
        """The warm-start matrix projected onto the assignment space.

        Each TX with positive total swing maps to its argmax RX; TXs are
        kept in decreasing order of total swing (the repair step trims
        any budget overshoot afterwards).
        """
        warm = self.options.warm_start
        if warm is None:
            return None
        if warm.shape != problem.channel.shape:
            raise OptimizationError(
                f"warm start shape {warm.shape} does not match problem "
                f"shape {problem.channel.shape}"
            )
        per_tx = np.asarray(warm, dtype=float).sum(axis=1)
        active = np.nonzero(per_tx > 0.0)[0]
        if active.size == 0:
            return None
        order = active[np.argsort(-per_tx[active], kind="stable")]
        pairs: List[Assignment] = []
        for tx in order:
            rx = int(np.argmax(warm[tx]))
            if problem.channel[tx, rx] > 0.0:
                pairs.append((int(tx), rx))
        return pairs or None

    # ------------------------------------------------------------------
    # Local search
    # ------------------------------------------------------------------

    def _utility(self, problem: AllocationProblem, state: _SearchState) -> float:
        return float(
            utility_from_amplitude_components(
                state.signal,
                state.total,
                problem.noise.power,
                problem.noise.bandwidth,
                self.options.utility_floor,
            )
        )

    def _repair(self, state: _SearchState, capacity: int) -> None:
        """Switch off least-valuable TXs until the budget holds (Eq. 7).

        Each round evaluates every active TX's removal through the same
        stacked objective the search uses and drops the one whose
        removal costs the least utility (ties break by blake2b digest).
        """
        iteration = 0
        while state.active_count > capacity:
            active = np.nonzero(state.assignment != OFF)[0]
            served = state.assignment[active]
            totals = state.total[None, :] - state.gains[active]
            signals = np.repeat(state.signal[None, :], active.size, axis=0)
            signals[np.arange(active.size), served] -= state.gains[active, served]
            utilities = self._stack_utility(signals, totals)
            moves = [
                (_MOVE_OFF, int(tx), -1, int(rx))
                for tx, rx in zip(active, served)
            ]
            best = self._pick_best(utilities, moves, iteration)
            state.switch_off(moves[best][1])
            self._count("optimizer.swing.repairs")
            iteration += 1

    def _stack_utility(self, signals: np.ndarray, totals: np.ndarray) -> np.ndarray:
        return np.asarray(
            utility_from_amplitude_components(
                signals,
                totals,
                self._noise_power,
                self._bandwidth,
                self.options.utility_floor,
            ),
            dtype=float,
        )

    def _pick_best(
        self,
        utilities: np.ndarray,
        moves: List[Tuple[int, int, int, int]],
        iteration: int,
    ) -> int:
        """Index of the best candidate; exact ties break by blake2b."""
        best_utility = float(np.max(utilities))
        tied = np.nonzero(utilities == best_utility)[0]
        if tied.size == 1:
            return int(tied[0])
        seed = self.options.seed
        return int(
            min(tied, key=lambda c: _tie_digest(seed, iteration, moves[int(c)]))
        )

    def _candidate_moves(
        self,
        state: _SearchState,
        allowed: np.ndarray,
        capacity: int,
    ) -> Tuple[np.ndarray, np.ndarray, List[Tuple[int, int, int, int]]]:
        """Stack every legal move's (signal, total) components.

        Returns ``(signals, totals, moves)`` where row ``c`` holds the
        post-move amplitude components of candidate ``c``.  Move tuples
        are ``(kind, tx_out, tx_in, rx)`` with ``-1`` for unused slots.
        """
        gains = state.gains
        signal, total = state.signal, state.total
        active = np.nonzero(state.assignment != OFF)[0]
        served = state.assignment[active]
        signal_rows: List[np.ndarray] = []
        total_rows: List[np.ndarray] = []
        moves: List[Tuple[int, int, int, int]] = []

        # OFF: each active TX stops serving (frees budget, cuts its own
        # signal but also its interference at every other RX).
        if active.size:
            totals = total[None, :] - gains[active]
            signals = np.repeat(signal[None, :], active.size, axis=0)
            signals[np.arange(active.size), served] -= gains[active, served]
            total_rows.append(totals)
            signal_rows.append(signals)
            moves.extend(
                (_MOVE_OFF, int(tx), -1, int(rx))
                for tx, rx in zip(active, served)
            )

        # ON: any allowed inactive (TX, RX) pair, budget permitting.
        on_tx, on_rx = np.nonzero(allowed & (state.assignment == OFF)[:, None])
        if on_tx.size and state.active_count < capacity:
            totals = total[None, :] + gains[on_tx]
            signals = np.repeat(signal[None, :], on_tx.size, axis=0)
            signals[np.arange(on_tx.size), on_rx] += gains[on_tx, on_rx]
            total_rows.append(totals)
            signal_rows.append(signals)
            moves.extend(
                (_MOVE_ON, -1, int(tx), int(rx))
                for tx, rx in zip(on_tx, on_rx)
            )

        # REASSIGN: an active TX redirects its beamspot to another RX
        # it is allowed to serve (total interference stays put).
        if active.size:
            re_mask = allowed[active].copy()
            re_mask[np.arange(active.size), served] = False
            re_local, re_rx = np.nonzero(re_mask)
            if re_local.size:
                re_tx = active[re_local]
                old_rx = served[re_local]
                totals = np.repeat(total[None, :], re_tx.size, axis=0)
                signals = np.repeat(signal[None, :], re_tx.size, axis=0)
                rows = np.arange(re_tx.size)
                signals[rows, old_rx] -= gains[re_tx, old_rx]
                signals[rows, re_rx] += gains[re_tx, re_rx]
                total_rows.append(totals)
                signal_rows.append(signals)
                moves.extend(
                    (_MOVE_REASSIGN, int(tx), int(tx), int(rx))
                    for tx, rx in zip(re_tx, re_rx)
                )

        # SWAP: switch one active TX off and an inactive one on, as one
        # atomic move -- the escape hatch when the budget is saturated
        # and no single move improves.
        if active.size and on_tx.size:
            out_totals = total[None, :] - gains[active]  # (A, M)
            out_signals = np.repeat(signal[None, :], active.size, axis=0)
            out_signals[np.arange(active.size), served] -= gains[active, served]
            totals = out_totals[:, None, :] + gains[on_tx][None, :, :]
            signals = np.repeat(out_signals[:, None, :], on_tx.size, axis=1)
            signals[:, np.arange(on_tx.size), on_rx] += gains[on_tx, on_rx]
            total_rows.append(totals.reshape(-1, total.size))
            signal_rows.append(signals.reshape(-1, signal.size))
            moves.extend(
                (_MOVE_SWAP, int(tx_out), int(tx_in), int(rx))
                for tx_out in active
                for tx_in, rx in zip(on_tx, on_rx)
            )

        if not moves:
            empty = np.empty((0, signal.size))
            return empty, empty, moves
        return np.concatenate(signal_rows), np.concatenate(total_rows), moves

    def _apply(self, state: _SearchState, move: Tuple[int, int, int, int]) -> None:
        kind, tx_out, tx_in, rx = move
        if kind == _MOVE_OFF:
            state.switch_off(tx_out)
        elif kind == _MOVE_ON:
            state.switch_on(tx_in, rx)
        elif kind == _MOVE_REASSIGN:
            state.reassign(tx_in, rx)
        else:
            state.switch_off(tx_out)
            state.switch_on(tx_in, rx)

    def _ascend(
        self,
        problem: AllocationProblem,
        state: _SearchState,
        allowed: np.ndarray,
        capacity: int,
    ) -> Tuple[int, int, int, List[float]]:
        """Steepest-ascent rounds until no move improves the objective."""
        current = self._utility(problem, state)
        trajectory = [current]
        iterations = flips = swaps = 0
        deadline = self.options.deadline
        for _ in range(self.options.max_iterations):
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceeded("swing search passed its deadline")
            signals, totals, moves = self._candidate_moves(state, allowed, capacity)
            if not moves:
                break
            utilities = self._stack_utility(signals, totals)
            best = self._pick_best(utilities, moves, iterations)
            if utilities[best] - current <= self.options.tolerance:
                break
            move = moves[best]
            self._apply(state, move)
            current = float(utilities[best])
            trajectory.append(current)
            iterations += 1
            if move[0] == _MOVE_SWAP:
                swaps += 1
            else:
                flips += 1
        return iterations, flips, swaps, trajectory

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------

    def _ordered_assignments(self, state: _SearchState) -> Tuple[Assignment, ...]:
        active = np.nonzero(state.assignment != OFF)[0]
        return tuple(
            (int(tx), int(state.assignment[tx])) for tx in active
        )

    def _finish(
        self,
        problem: AllocationProblem,
        candidate: Allocation,
        seed: Allocation,
        iterations: int,
        flips: int,
        swaps: int,
        trajectory: List[float],
    ) -> Allocation:
        """Guard the seed floor, record metrics and span annotations."""
        final = candidate
        if candidate is not seed and candidate.utility < seed.utility:
            # The incremental components agree with problem.utility() to
            # float precision, so this only fires on pathological
            # round-off -- but the "never worse than the seed" contract
            # is absolute.
            self._count("optimizer.swing.seed_floors")
            final = Allocation(
                problem=problem,
                swings=seed.swings,
                assignments=seed.assignments,
                solver="swing-search",
            )
        if self.metrics is not None:
            self.metrics.histogram("optimizer.swing.iterations").observe(
                float(iterations)
            )
            if flips:
                self.metrics.counter("optimizer.swing.flips_accepted").increment(
                    flips
                )
            if swaps:
                self.metrics.counter("optimizer.swing.swaps_accepted").increment(
                    swaps
                )
        if current_span() is not None:
            step = max(1, -(-len(trajectory) // 32))
            add_span_attributes(
                swing_iterations=iterations,
                swing_flips_accepted=flips,
                swing_swaps_accepted=swaps,
                swing_active_txs=len(final.assignments),
                objective_trajectory=[
                    round(v, 6) for v in trajectory[::step]
                ][-32:],
            )
        return final


def solve_swing(
    problem: AllocationProblem,
    options: Optional[SwingSearchOptions] = None,
    metrics: Optional[Any] = None,
) -> Allocation:
    """One-call convenience wrapper around :class:`SwingSearchSolver`."""
    return SwingSearchSolver(options, metrics=metrics).solve(problem)
