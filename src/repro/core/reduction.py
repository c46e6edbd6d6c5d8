"""SJR-guided variable pruning for the Eq. 5-7 program (Insight 1).

The paper's Insight 1 says the optimal allocation is near-binary: most of
the N x M swing variables end at exactly zero, and the transmitters that
do serve are the ones Algorithm 1 ranks highest.  LED-selection work
(Yang et al., Eroglu et al.) exploits the same structure: once inactive
LEDs are excluded, the nonlinear program shrinks from N*M variables to
roughly the number of transmitters the power budget can afford.

:func:`plan_reduction` turns that insight into a variable-selection rule:

1. rank every TX with its intended RX by descending SJR (Algorithm 1);
2. keep the ranked prefix that exhausts the power budget, plus a safety
   margin (``K`` adapts to the budget);
3. guarantee coverage -- every receiver with a non-zero channel column
   keeps at least one candidate pair;
4. expose the kept (TX, RX) pairs as a :class:`ReductionPlan` that maps
   between the reduced ~K-variable vector and the full (N, M) matrix.

The optimizer solves the reduced program, expands the solution back to
full shape, and falls back to the full-dimension solve whenever the
reduced optimum fails its utility check (see
:class:`~repro.core.optimizer.ContinuousOptimizer`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .. import constants
from ..errors import OptimizationError
from .allocation import Assignment
from .heuristic import rank_transmitters, sjr_matrix
from .problem import AllocationProblem


@dataclass(frozen=True)
class ReductionPlan:
    """A pruned variable set for one :class:`AllocationProblem`.

    Variables are (TX, RX) pairs kept in TX-major order, so consecutive
    variables of one TX form a contiguous segment (which the optimizer's
    structured constraint Jacobians rely on).  A TX that keeps a single
    pair gets no Eq. 6 row in the optimizer: its box bound is the same
    inequality.

    Attributes:
        tx_indices: (P,) original TX index of each reduced variable.
        rx_indices: (P,) RX index of each reduced variable.
        active_txs: sorted unique TX indices that kept any variable.
        num_transmitters: N of the full problem.
        num_receivers: M of the full problem.
    """

    tx_indices: np.ndarray
    rx_indices: np.ndarray
    active_txs: np.ndarray
    num_transmitters: int
    num_receivers: int

    def __post_init__(self) -> None:
        tx = np.asarray(self.tx_indices, dtype=int)
        rx = np.asarray(self.rx_indices, dtype=int)
        if tx.ndim != 1 or tx.shape != rx.shape or tx.size == 0:
            raise OptimizationError("reduction plan needs 1-D, non-empty pairs")
        order = np.lexsort((rx, tx))
        tx, rx = tx[order], rx[order]
        if np.any((tx[1:] == tx[:-1]) & (rx[1:] == rx[:-1])):
            raise OptimizationError("reduction plan has duplicate pairs")
        if tx.min() < 0 or tx.max() >= self.num_transmitters:
            raise OptimizationError("reduction plan TX index out of range")
        if rx.min() < 0 or rx.max() >= self.num_receivers:
            raise OptimizationError("reduction plan RX index out of range")
        object.__setattr__(self, "tx_indices", tx)
        object.__setattr__(self, "rx_indices", rx)
        object.__setattr__(self, "active_txs", np.unique(tx))

    # ------------------------------------------------------------------

    @property
    def num_pairs(self) -> int:
        """P: the reduced variable count."""
        return int(self.tx_indices.size)

    @property
    def num_active(self) -> int:
        """K: transmitters that kept at least one variable."""
        return int(self.active_txs.size)

    @property
    def pairs(self) -> List[Assignment]:
        """The kept (TX, RX) pairs in variable order."""
        return [
            (int(j), int(k))
            for j, k in zip(self.tx_indices, self.rx_indices)
        ]

    def covers_receiver(self, rx: int) -> bool:
        return bool(np.any(self.rx_indices == rx))

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        """Scatter a (P,) reduced vector back to the full (N, M) matrix."""
        values = np.asarray(reduced, dtype=float)
        if values.shape != self.tx_indices.shape:
            raise OptimizationError(
                f"expected {self.num_pairs} reduced values, got {values.shape}"
            )
        full = np.zeros((self.num_transmitters, self.num_receivers))
        full[self.tx_indices, self.rx_indices] = values
        return full

    def restrict(self, matrix: np.ndarray) -> np.ndarray:
        """Gather the (P,) reduced vector out of a full (N, M) matrix."""
        full = np.asarray(matrix, dtype=float)
        if full.shape != (self.num_transmitters, self.num_receivers):
            raise OptimizationError(
                f"expected a {(self.num_transmitters, self.num_receivers)} "
                f"matrix, got {full.shape}"
            )
        return full[self.tx_indices, self.rx_indices]


def plan_reduction(
    problem: AllocationProblem,
    kappa: float = constants.DEFAULT_KAPPA,
    margin: float = 0.5,
    min_extra: int = 2,
) -> Optional[ReductionPlan]:
    """The SJR-pruned variable set for *problem*, or None if not worth it.

    ``K = min(N, max(ceil(affordable * (1 + margin)), affordable +
    min_extra, M))`` transmitters survive: the ranked prefix the power
    budget can pay for at full swing, widened by a safety margin so the
    continuous optimum can trade swing between marginal candidates.
    Every receiver with a usable channel column keeps its best-SJR pair
    even when its TX ranks below the prefix, so pruning can never strand
    a reachable receiver.

    Once the budget affords every TX the prefix is the whole ranking:
    each TX keeps only its ranked RX, N (+ coverage) pairs instead of
    N*M.  Returns ``None`` only when the kept pairs are all N*M (e.g.
    M = 1), where the reduced program is the full program.
    """
    if margin < 0:
        raise OptimizationError(f"margin must be >= 0, got {margin}")
    if min_extra < 0:
        raise OptimizationError(f"min_extra must be >= 0, got {min_extra}")
    num_tx = problem.num_transmitters
    num_rx = problem.num_receivers
    affordable = problem.max_affordable_transmitters
    k = max(
        int(math.ceil(affordable * (1.0 + margin))),
        affordable + min_extra,
        num_rx,
    )
    ranked = rank_transmitters(problem.channel, kappa)
    pairs = list(ranked[:k])

    # Coverage guarantee: a reachable RX whose every candidate TX ranked
    # below the prefix keeps its single best pair.
    covered = {rx for _, rx in pairs}
    sjr = sjr_matrix(problem.channel, kappa)
    for rx in range(num_rx):
        if rx in covered:
            continue
        column = problem.channel[:, rx]
        if not np.any(column > 0.0):
            continue  # physically unreachable; no variable can help
        pairs.append((int(np.argmax(sjr[:, rx])), rx))
    if len(pairs) >= num_tx * num_rx:
        return None
    tx_idx = np.array([j for j, _ in pairs], dtype=int)
    rx_idx = np.array([r for _, r in pairs], dtype=int)
    return ReductionPlan(
        tx_indices=tx_idx,
        rx_indices=rx_idx,
        active_txs=np.unique(tx_idx),
        num_transmitters=num_tx,
        num_receivers=num_rx,
    )
