"""Seeded request streams for the three workloads.

Each stream is a pure function of ``(workload, seed, length)``: the
same seed always yields the same requests, pinned by
:func:`stream_digest` (blake2b-16 over every entry, in the style of
``ScenarioInstance.workload_digest``).  The serving stack receives only
these requests.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

#: Fig. 9 budget ladder [W]: budget-grid rungs k = 1, 10, 19, 30, 36
#: (k x the full-swing power of one TX), spanning 0.05-1.95 W and
#: including the 1.62 W rung where warm-started SLSQP has failed before.
BUDGET_RUNGS: Tuple[int, ...] = (1, 10, 19, 30, 36)

#: budget-sweep-optimal serves passes over one fixed pool of Fig. 6
#: placements.  Solve time varies a hundredfold between placements, so
#: over placements drawn afresh from each seed a run measured which
#: placements its seed drew: throughput spread 30% between seeds.  Over
#: a fixed pool every run does the same work; the seed orders each pass
#: and moves every receiver by up to BUDGET_JITTER_M [m], so no two
#: passes or seeds send the same placements.
BUDGET_POOL = 8
BUDGET_POOL_SEED = 0
BUDGET_JITTER_M = 0.02

#: The ``obs.slo`` latency objective the open-loop ladder is judged by.
SLO_SECONDS = 0.100
#: The deadline every hotspot-cluster request carries, so the frontend's
#: admission control and the deadline-bounded pool path are always on.
#: It is ten times the objective: with 100 ms deadlines, one scheduler
#: stall of a shared box inflates the frontend's service-time estimate
#: and sheds hundreds of a closed loop's requests, so the failure count
#: measured the neighbours, not the program.
DEADLINE_SECONDS = 10 * SLO_SECONDS

MOBILITY_FLEET = 240      # waypoint-fleet: 240 receivers in groups of 4
HOTSPOT_FLEET = 320       # hotspot-fleet: 320 receivers in groups of 4
GROUP_SIZE = 4


def _tagged(prefix: str, seed: int) -> str:
    return f"{prefix}-s{seed}"


def mobility_epochs(seed: int, epochs: int) -> Tuple[list, List[list]]:
    """``waypoint-fleet`` with *epochs* epochs: (first group, epoch batches)."""
    from repro.geometry import RandomWaypointModel
    from repro.geometry.room import simulation_room
    from repro.scenarios import derive_seed, streaming_fleet

    room = simulation_room()
    name = _tagged("mobility-swing", seed)

    def model(i: int):
        return RandomWaypointModel(
            room=room,
            speed=1.2,
            seed=derive_seed(seed, "waypoint-fleet", "rx", i),
            margin=0.3,
        )

    factory, first_group, _ = streaming_fleet(
        name, model, fleet=MOBILITY_FLEET, epochs=epochs, dt=0.5,
        group_size=GROUP_SIZE, solver="swing",
    )
    per_epoch = MOBILITY_FLEET // GROUP_SIZE
    batches: List[list] = []
    for index, timed in enumerate(factory()):
        if index % per_epoch == 0:
            batches.append([])
        batches[-1].append(timed.request)
    return first_group, batches


def hotspot_requests(seed: int, count: int) -> Tuple[list, list]:
    """``hotspot-fleet`` dwell placements: (first group, *count* requests)."""
    from repro.geometry import HotspotModel
    from repro.geometry.room import simulation_room
    from repro.scenarios import derive_seed, streaming_fleet

    room = simulation_room()
    hotspots = (
        (room.width * 0.25, room.depth * 0.3),
        (room.width * 0.7, room.depth * 0.25),
        (room.width * 0.5, room.depth * 0.75),
    )
    name = _tagged("hotspot-cluster", seed)

    def model(i: int):
        return HotspotModel(
            room=room,
            hotspots=hotspots,
            sigma=0.25,
            dwell_seconds=6.0,
            speed=0.8,
            seed=derive_seed(seed, "hotspot-fleet", "rx", i),
            margin=0.3,
        )

    per_epoch = HOTSPOT_FLEET // GROUP_SIZE
    epochs = -(-count // per_epoch)
    factory, first_group, _ = streaming_fleet(
        name, model, fleet=HOTSPOT_FLEET, epochs=epochs, dt=0.4,
        group_size=GROUP_SIZE, solver="heuristic",
        deadline_seconds=DEADLINE_SECONDS,
    )
    requests = [timed.request for _, timed in zip(range(count), factory())]
    return first_group, requests


def budget_ladder() -> Tuple[float, ...]:
    from repro.experiments.config import default_config

    grid = default_config().budget_grid
    return tuple(grid[k - 1] for k in BUDGET_RUNGS)


def budget_sweep_passes(seed: int, passes: int) -> Tuple[list, List[List[list]]]:
    """Passes over :data:`BUDGET_POOL`, each placement swept down :func:`budget_ladder`.

    Returns (first group, passes), each pass a list of sweeps and each
    sweep the ``optimal`` requests of one placement, top rung first.
    Every pass visits the pool in a seeded order, with every receiver
    moved by a seeded offset of at most :data:`BUDGET_JITTER_M`.
    """
    import numpy as np
    from repro.experiments.scenarios import fig6_instances
    from repro.geometry.room import simulation_room
    from repro.runtime.service import AllocationRequest
    from repro.scenarios import derive_seed

    pool = fig6_instances(instances=BUDGET_POOL, seed=BUDGET_POOL_SEED)
    room = simulation_room()
    ladder = list(enumerate(budget_ladder()))
    name = _tagged("budget-sweep-optimal", seed)
    result: List[List[list]] = []
    for n in range(passes):
        rng = np.random.default_rng(derive_seed(seed, "budget-sweep-optimal", n))
        radius = BUDGET_JITTER_M * np.sqrt(rng.uniform(size=pool.shape[:2]))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=pool.shape[:2])
        moved = pool + np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
        sweeps = []
        for p in rng.permutation(BUDGET_POOL):
            positions = tuple(room.clamp_xy(float(x), float(y)) for x, y in moved[p])
            # Top rung first: the top rung is solved cold, and each lower
            # rung is warm-started from the same placement's next-higher
            # budget.
            sweeps.append([
                AllocationRequest(
                    rx_positions_xy=positions,
                    power_budget=budget,
                    solver="optimal",
                    tag=f"{name}-n{n}-p{p}-b{b}",
                )
                for b, budget in reversed(ladder)
            ])
        result.append(sweeps)
    return [(float(x), float(y)) for x, y in pool[0]], result


def stream_digest(workload: str, seed: int, requests: Sequence) -> str:
    """blake2b-16 over the workload name, seed and every request."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(("workload", workload, seed)).encode("utf-8"))
    for request in requests:
        entry = (
            request.rx_positions_xy,
            float(request.power_budget),
            request.solver,
            float(request.kappa),
            request.tag,
            request.deadline_seconds,
        )
        digest.update(repr(entry).encode("utf-8"))
    return digest.hexdigest()
