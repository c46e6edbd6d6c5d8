"""Deadline checkpoints: how far past its deadline a solve answers.

Each solver checks the task deadline itself (the SLSQP objective, each
swing-search round, each greedy step) and the pool degrades a missed
solve down ``optimal -> swing -> heuristic``.  Two measurements on
seeded Fig. 6 placements (seed 11) across the Fig. 9 budget ladder
(0.6/1.2/2.4/4.8 W), through ``SolverPool.solve_outcomes``:

1. **Overrun** -- for each requested tier under a 5 ms and a 20 ms
   deadline, how long after the deadline the (possibly degraded)
   answer came back, p50/p99/max over every instance (0 when the
   answer beat the deadline).
2. **Deadline cost** -- per-solve time with a 1 s deadline vs none,
   alternating per instance, so the checkpoint overhead shows.

Rows go to ``results/deadline_overrun.txt``.  The gate: every tier
answers within 0.2 s of either deadline.
"""

import time

import numpy as np

from repro.channel import channel_matrix_stack
from repro.experiments.scenarios import fig6_instances
from repro.runtime import SolverPool, SolveTask
from repro.system import simulation_scene

BUDGETS = (0.6, 1.2, 2.4, 4.8)
PLACEMENTS = 30
DEADLINES = (0.005, 0.020)
OVERRUN_CEILING = 0.2

#: Instances (placement x budget pairs) and repeats of the cost
#: comparison per tier, sized so the slow tiers stay in seconds.
COST_PLAN = {
    "heuristic": (120, 5),
    "swing": (120, 2),
    "greedy": (20, 1),
    "optimal": (8, 1),
}


def _instances():
    placements = fig6_instances(instances=PLACEMENTS, seed=11)
    scene = simulation_scene([(float(x), float(y)) for x, y in placements[0]])
    stack = channel_matrix_stack(scene, placements)
    return [(channel, budget) for channel in stack for budget in BUDGETS]


def _overruns(pool, solver, instances, budget_s):
    """Seconds past the deadline per instance, plus the degraded count."""
    overruns, degraded = [], 0
    for channel, budget in instances:
        deadline = time.monotonic() + budget_s
        task = SolveTask(
            channel=channel, power_budget=budget, solver=solver, deadline=deadline
        )
        [outcome] = pool.solve_outcomes([task])
        overruns.append(max(0.0, time.monotonic() - deadline))
        degraded += outcome.degraded
    return np.array(overruns), degraded


def _solve_seconds(pool, solver, channel, budget, deadline_s):
    deadline = None if deadline_s is None else time.monotonic() + deadline_s
    task = SolveTask(
        channel=channel, power_budget=budget, solver=solver, deadline=deadline
    )
    start = time.perf_counter()
    pool.solve_outcomes([task])
    return time.perf_counter() - start


def _costs(pool, solver, instances, repeats):
    """Per-solve seconds without a deadline and with a 1 s one."""
    plain, bounded = [], []
    for _ in range(repeats):
        for index, (channel, budget) in enumerate(instances):
            # Alternate which side runs first so drift hits both.
            order = (None, 1.0) if index % 2 == 0 else (1.0, None)
            for deadline_s in order:
                seconds = _solve_seconds(pool, solver, channel, budget, deadline_s)
                (plain if deadline_s is None else bounded).append(seconds)
    return np.array(plain), np.array(bounded)


def test_bench_deadline_overrun(benchmark, record_rows):
    instances = _instances()
    pool = SolverPool()
    rows = [
        "# Deadline overrun per requested tier: time from the deadline to "
        "the answer [ms]",
        f"# {PLACEMENTS} Fig. 6 placements (seed 11) x budgets "
        f"{'/'.join(str(b) for b in BUDGETS)} W = {len(instances)} solves "
        "per row, SolverPool in process",
        f"{'tier':<10} {'deadline':>8} {'p50':>7} {'p99':>7} {'max':>7} "
        f"{'degraded':>9}",
    ]
    worst = 0.0
    for solver in COST_PLAN:
        for budget_s in DEADLINES:
            overruns, degraded = _overruns(pool, solver, instances, budget_s)
            worst = max(worst, float(overruns.max()))
            p50, p99, peak = np.percentile(overruns, [50, 99, 100]) * 1e3
            rows.append(
                f"{solver:<10} {budget_s * 1e3:>6.0f}ms {p50:>7.2f} "
                f"{p99:>7.2f} {peak:>7.2f} {degraded:>5}/{len(instances)}"
            )

    rows += [
        "",
        "# Per-solve cost with a 1 s deadline vs none [ms], alternating "
        "per instance",
        f"{'tier':<10} {'solves':>6} {'none p50':>9} {'1 s p50':>8} "
        f"{'ratio':>6}",
    ]
    for solver, (count, repeats) in COST_PLAN.items():
        plain, bounded = _costs(pool, solver, instances[:count], repeats)
        none_ms = float(np.median(plain)) * 1e3
        bounded_ms = float(np.median(bounded)) * 1e3
        rows.append(
            f"{solver:<10} {plain.size:>6} {none_ms:>9.3f} {bounded_ms:>8.3f} "
            f"{bounded_ms / none_ms:>6.2f}"
        )
    record_rows("deadline_overrun", rows)

    channel, budget = instances[0]
    benchmark.pedantic(
        _solve_seconds,
        args=(pool, "heuristic", channel, budget, 1.0),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["worst_overrun_ms"] = round(worst * 1e3, 2)
    assert worst < OVERRUN_CEILING, (
        f"a solve answered {worst * 1e3:.1f} ms past its deadline "
        f"(ceiling {OVERRUN_CEILING * 1e3:.0f} ms)"
    )
