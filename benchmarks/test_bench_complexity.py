"""Sec. 5 benchmark: optimal-vs-heuristic allocation latency.

Paper numbers: 165 s (Matlab fmincon) vs 0.07 s (Algorithm 1) on the
36-TX / 4-RX instance -- a 99.96% complexity reduction at a 1.8%
throughput cost.  Absolute times are machine/solver dependent; the
reduction factor is the reproducible quantity.

Also times the two solvers as separate pytest benchmarks so the timing
tables show both directly.
"""

import statistics
import time

import pytest

from repro.channel import channel_matrix
from repro.core import (
    AllocationProblem,
    ContinuousOptimizer,
    OptimizerOptions,
    RankingHeuristic,
)
from repro.experiments import complexity, default_config, fig7_instance


@pytest.fixture(scope="module")
def problem():
    cfg = default_config()
    scene = cfg.simulation_scene_at(fig7_instance())
    return AllocationProblem(
        channel=channel_matrix(scene),
        power_budget=1.2,
        led=cfg.led,
        photodiode=cfg.photodiode,
        noise=cfg.noise,
    )


def test_bench_heuristic_latency(benchmark, problem):
    heuristic = RankingHeuristic(kappa=1.3)
    allocation = benchmark(heuristic.solve, problem)
    assert allocation.is_feasible
    # Timed here, not read from benchmark.stats: the stats are absent
    # under --benchmark-disable.
    seconds = []
    for _ in range(5):
        start = time.perf_counter()
        heuristic.solve(problem)
        seconds.append(time.perf_counter() - start)
    # Sub-millisecond on any modern machine (paper: 0.07 s in Matlab).
    assert statistics.mean(seconds) < 0.05


def test_bench_optimal_latency(benchmark, problem):
    optimizer = ContinuousOptimizer(OptimizerOptions(restarts=0))
    allocation = benchmark.pedantic(
        optimizer.solve, args=(problem,), rounds=1, iterations=1
    )
    assert allocation.is_feasible


def test_bench_complexity_reduction(benchmark, record_rows):
    result = benchmark.pedantic(complexity.run, rounds=1, iterations=1)

    rows = [
        "# Sec. 5: allocation latency",
        f"optimal    {result.optimal_seconds:9.3f} s   (paper: 165 s, fmincon)",
        f"heuristic  {result.heuristic_seconds:9.6f} s   (paper: 0.07 s)",
        f"reduction  {100 * result.reduction:8.2f}%   (paper: 99.96%)",
        f"throughput loss of heuristic: {100 * result.heuristic_loss:.1f}% "
        "(paper: 1.8%)",
    ]
    record_rows("complexity", rows)

    benchmark.extra_info["reduction_pct"] = round(100 * result.reduction, 2)
    benchmark.extra_info["loss_pct"] = round(100 * result.heuristic_loss, 2)

    assert result.reduction > 0.98
    assert result.heuristic_loss < 0.10
