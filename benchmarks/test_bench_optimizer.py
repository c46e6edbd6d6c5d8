"""Solver-acceleration benchmark: pruned solves, swing search, channels.

Three comparisons on the paper's 36-TX / 4-RX Fig. 7 setup:

1. Optimal solve: the full 144-variable SLSQP program against the
   SJR-pruned reduced program at 1.2 W and at 1.946 W, the top Fig. 9
   rung, where the budget affords every TX and the plan keeps each
   TX's ranked pair.  At each budget the pruned solve must be >= 5x
   faster while landing within 1% of the full program's sum-log
   utility.  The rows also record each pruned solve's descents: the
   mean projected Newton iterations (``optimizer.newton_iterations``),
   the descents handed to SLSQP (``optimizer.newton_handoffs``) and the
   mean SLSQP iterations of the descents SLSQP ran
   (``optimizer.slsqp_iterations``; none when every descent is Newton's).
2. Combinatorial swing search: the binary-swing local search
   (``repro.core.swingsearch``) against the SJR-pruned SLSQP tier --
   i.e. against the *accelerated* hot path, not the full program --
   across pinned scenes (Fig. 7 placement at two budgets plus a seeded
   placement).  The search must be >= 10x faster in aggregate while the
   mean utility gap stays <= 1.8%; per-scene numbers are committed to
   ``results/BENCH_optimizer.json``.
3. Channel maintenance: the full rebuild path a mobility step used to
   take (``Scene.with_receivers_at`` + ``channel_matrix``) against
   ``channel_matrix_update`` recomputing only the moved receiver's
   column.  The advantage scales with the number of *unmoved* receivers
   (a single column is recomputed either way), so the >= 5x requirement
   is asserted on a 24-receiver serving scene with one mover; the 4-RX
   paper instance is reported alongside for reference.  The updated
   matrix must match the rebuild to 1e-12.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from repro.channel import channel_matrix, channel_matrix_update
from repro.core import (
    AllocationProblem,
    OptimizerOptions,
    SwingSearchOptions,
    solve_optimal,
    solve_swing,
)
from repro.experiments.config import default_config
from repro.experiments.scenarios import fig7_instance
from repro.runtime import MetricsRegistry
from repro.system import simulation_scene

BUDGET = 1.2
#: The top rung of the coarse Fig. 9 grid (``coarse_budgets(12)``).
TOP_BUDGET = 1.946
MOBILITY_STEPS = 64

SWING_SPEEDUP_FLOOR = 10.0
SWING_GAP_CEILING = 0.018


def _paper_problem():
    cfg = default_config()
    scene = cfg.simulation_scene_at(fig7_instance())
    problem = AllocationProblem(
        channel=channel_matrix(scene),
        power_budget=BUDGET,
        led=cfg.led,
        photodiode=cfg.photodiode,
        noise=cfg.noise,
    )
    return scene, problem


def _pinned_scenes():
    """The fixed (name, problem) instances the swing gate is judged on."""
    cfg = default_config()
    fig7_scene = cfg.simulation_scene_at(fig7_instance())
    fig7_channel = channel_matrix(fig7_scene)
    rng = np.random.default_rng(7)
    shifted_scene = cfg.simulation_scene_at(
        [(float(x), float(y)) for x, y in rng.uniform(0.4, 2.6, size=(4, 2))]
    )

    def _problem(channel, budget):
        return AllocationProblem(
            channel=channel,
            power_budget=budget,
            led=cfg.led,
            photodiode=cfg.photodiode,
            noise=cfg.noise,
        )

    return [
        ("fig7_1.2W", _problem(fig7_channel, 1.2)),
        ("fig7_0.8W", _problem(fig7_channel, 0.8)),
        ("seeded_1.2W", _problem(channel_matrix(shifted_scene), 1.2)),
    ]


@pytest.mark.smoke
def test_bench_swing_solver(benchmark, record_rows, results_dir):
    scenes = _pinned_scenes()

    # Warm both code paths on a cheap instance before timing.
    small = AllocationProblem(
        channel=scenes[0][1].channel[:8],
        power_budget=0.2,
        led=scenes[0][1].led,
        photodiode=scenes[0][1].photodiode,
        noise=scenes[0][1].noise,
    )
    solve_optimal(small, OptimizerOptions(restarts=0, reduce=True))
    solve_swing(small)

    def _time(fn, repetitions=3):
        best = float("inf")
        result = None
        for _ in range(repetitions):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        return best, result

    entries = []
    for name, problem in scenes:
        slsqp_seconds, slsqp = _time(
            lambda p=problem: solve_optimal(
                p, OptimizerOptions(restarts=0, seed=0, reduce=True)
            )
        )
        swing_seconds, swing = _time(
            lambda p=problem: solve_swing(p, SwingSearchOptions(seed=0))
        )
        assert swing.is_feasible
        gap = (slsqp.utility - swing.utility) / abs(slsqp.utility)
        entries.append(
            {
                "scene": name,
                "transmitters": problem.num_transmitters,
                "receivers": problem.num_receivers,
                "power_budget_w": problem.power_budget,
                "slsqp_ms": round(1e3 * slsqp_seconds, 3),
                "swing_ms": round(1e3 * swing_seconds, 3),
                "speedup": round(slsqp_seconds / swing_seconds, 2),
                "slsqp_utility": round(slsqp.utility, 6),
                "swing_utility": round(swing.utility, 6),
                "utility_gap": round(gap, 6),
            }
        )

    # One representative timed round for pytest-benchmark's tables.
    benchmark.pedantic(
        lambda: solve_swing(scenes[0][1], SwingSearchOptions(seed=0)),
        rounds=1,
        iterations=1,
    )

    total_slsqp = sum(e["slsqp_ms"] for e in entries)
    total_swing = sum(e["swing_ms"] for e in entries)
    aggregate_speedup = total_slsqp / total_swing
    mean_gap = sum(e["utility_gap"] for e in entries) / len(entries)

    payload = {
        "benchmark": "swing_vs_slsqp",
        "baseline": "slsqp-reduced (optimal tier, SJR-pruned, restarts=0)",
        "requirements": {
            "aggregate_speedup_min": SWING_SPEEDUP_FLOOR,
            "mean_utility_gap_max": SWING_GAP_CEILING,
        },
        "aggregate_speedup": round(aggregate_speedup, 2),
        "mean_utility_gap": round(mean_gap, 6),
        "scenes": entries,
    }
    with open(results_dir / "BENCH_optimizer.json", "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    rows = ["# Swing search vs SLSQP optimal tier (pinned scenes)"]
    for e in entries:
        rows.append(
            f"  {e['scene']:<12} slsqp {e['slsqp_ms']:8.2f} ms / swing "
            f"{e['swing_ms']:8.2f} ms = {e['speedup']:6.1f}x  gap "
            f"{100 * e['utility_gap']:7.4f}%"
        )
    rows.append(
        f"  aggregate speedup {aggregate_speedup:6.1f}x "
        f"(required: >= {SWING_SPEEDUP_FLOOR:.0f}x)"
    )
    rows.append(
        f"  mean utility gap  {100 * mean_gap:7.4f}% "
        f"(required: <= {100 * SWING_GAP_CEILING:.1f}%)"
    )
    record_rows("swing_search", rows)

    benchmark.extra_info["aggregate_speedup"] = round(aggregate_speedup, 2)
    benchmark.extra_info["mean_utility_gap_percent"] = round(
        100 * mean_gap, 4
    )

    assert all(e["swing_utility"] > 0 for e in entries)
    assert aggregate_speedup >= SWING_SPEEDUP_FLOOR
    assert mean_gap <= SWING_GAP_CEILING
    assert max(e["utility_gap"] for e in entries) <= SWING_GAP_CEILING


@pytest.mark.smoke
def test_bench_optimizer(benchmark, record_rows):
    scene, problem = _paper_problem()

    # Warm scipy/NumPy code paths on a cheap instance before timing.
    small = AllocationProblem(
        channel=problem.channel[:8],
        power_budget=0.2,
        led=problem.led,
        photodiode=problem.photodiode,
        noise=problem.noise,
    )
    solve_optimal(small, OptimizerOptions(restarts=0))
    solve_optimal(small, OptimizerOptions(restarts=0, reduce=True))

    def _solver_pair(budget_problem, timed=lambda fn: fn()):
        start = time.perf_counter()
        full = solve_optimal(budget_problem, OptimizerOptions(restarts=0))
        full_seconds = time.perf_counter() - start

        metrics = MetricsRegistry()
        start = time.perf_counter()
        reduced = timed(
            lambda: solve_optimal(
                budget_problem,
                OptimizerOptions(restarts=0, reduce=True),
                metrics=metrics,
            )
        )
        reduced_seconds = time.perf_counter() - start
        snapshot = metrics.snapshot()

        def _mean(name):
            return snapshot["histograms"].get(name, {}).get("mean")

        return {
            # One descent per pruned solve (restarts=0, no fallback).
            "newton": _mean("optimizer.newton_iterations"),
            "handoffs": snapshot["counters"].get("optimizer.newton_handoffs", 0),
            "slsqp": _mean("optimizer.slsqp_iterations"),
            "budget": budget_problem.power_budget,
            "full_seconds": full_seconds,
            "reduced_seconds": reduced_seconds,
            "full": full,
            "reduced": reduced,
            "speedup": full_seconds / reduced_seconds,
            "gap": (full.utility - reduced.utility) / abs(full.utility),
        }

    solves = [
        _solver_pair(
            problem,
            lambda fn: benchmark.pedantic(fn, rounds=1, iterations=1),
        ),
        _solver_pair(problem.with_budget(TOP_BUDGET)),
    ]
    num_vars = problem.num_transmitters * problem.num_receivers

    # Channel maintenance: one receiver walks, the rest stay put -- the
    # pre-acceleration path rebuilt the Scene and the whole (N, M)
    # matrix per step.
    def _mobility_pass(mobility_scene, repetitions=3):
        base = channel_matrix(mobility_scene)
        static = [
            (rx.position[0], rx.position[1])
            for rx in mobility_scene.receivers[1:]
        ]
        xs = np.linspace(0.5, 2.5, MOBILITY_STEPS)
        # Warm both code paths before timing.
        channel_matrix(
            mobility_scene.with_receivers_at([(0.5, 0.9)] + static)
        )
        channel_matrix_update(mobility_scene, base, [(0.5, 0.9)], [0])

        # Min-of-repetitions per path: robust against transient load on
        # shared CI hosts.
        rebuild = update = float("inf")
        for _ in range(repetitions):
            start = time.perf_counter()
            rebuilt = [
                channel_matrix(
                    mobility_scene.with_receivers_at(
                        [(float(x), 0.9)] + static
                    )
                )
                for x in xs
            ]
            rebuild = min(rebuild, time.perf_counter() - start)

            start = time.perf_counter()
            updated = [
                channel_matrix_update(
                    mobility_scene, base, [(float(x), 0.9)], [0]
                )
                for x in xs
            ]
            update = min(update, time.perf_counter() - start)
        error = max(
            float(np.max(np.abs(a - b))) for a, b in zip(rebuilt, updated)
        )
        return rebuild, update, error

    paper_rebuild, paper_update, paper_error = _mobility_pass(scene)

    rng = np.random.default_rng(0)
    dense_positions = [
        (float(x), float(y)) for x, y in rng.uniform(0.3, 2.7, size=(24, 2))
    ]
    dense_scene = simulation_scene(dense_positions)
    rebuild_seconds, update_seconds, channel_error = _mobility_pass(
        dense_scene
    )
    channel_speedup = rebuild_seconds / update_seconds
    channel_error = max(channel_error, paper_error)

    def _iterations(mean):
        return "    none" if mean is None else f"{mean:8.1f}"

    rows = ["# Solver acceleration: SJR pruning + incremental channels"]
    for solve in solves:
        rows += [
            f"optimal solve, 36 TX x 4 RX at {solve['budget']} W:",
            f"  full SLSQP      {1e3 * solve['full_seconds']:8.2f} ms "
            f"({num_vars} variables)",
            f"  SJR-pruned      {1e3 * solve['reduced_seconds']:8.2f} ms "
            f"(solver={solve['reduced'].solver})",
            f"  Newton iters    {_iterations(solve['newton'])}  "
            f"(mean per pruned solve; {solve['handoffs']:.0f} handed to SLSQP)",
            f"  SLSQP iters     {_iterations(solve['slsqp'])}  "
            "(mean per SLSQP descent)",
            f"  speedup         {solve['speedup']:8.2f}x  (required: >= 5x)",
            f"  utility         {solve['full'].utility:.6f} full / "
            f"{solve['reduced'].utility:.6f} reduced",
            f"  utility gap     {100 * solve['gap']:8.4f}%  "
            "(required: <= 1%)",
        ]
    rows += [
        f"channel maintenance, {MOBILITY_STEPS} mobility steps x 36 TX, "
        f"one mover:",
        f"  24 RX: rebuild  {1e3 * rebuild_seconds:8.2f} ms / update "
        f"{1e3 * update_seconds:8.2f} ms = {channel_speedup:.2f}x "
        f"(required: >= 5x)",
        f"   4 RX: rebuild  {1e3 * paper_rebuild:8.2f} ms / update "
        f"{1e3 * paper_update:8.2f} ms = "
        f"{paper_rebuild / paper_update:.2f}x (reference)",
        f"  max |delta|     {channel_error:8.2e}  (required: <= 1e-12)",
    ]
    record_rows("solver_acceleration", rows)

    benchmark.extra_info["solver_speedup"] = round(solves[0]["speedup"], 2)
    benchmark.extra_info["utility_gap_percent"] = round(
        100 * solves[0]["gap"], 4
    )
    benchmark.extra_info["channel_speedup"] = round(channel_speedup, 2)

    for solve in solves:
        assert solve["reduced"].solver == "slsqp-reduced"
        assert solve["speedup"] >= 5.0
        assert solve["gap"] <= 0.01
    assert channel_speedup >= 5.0
    assert channel_error <= 1e-12
