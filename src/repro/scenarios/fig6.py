"""Fig. 6 random-placement scenarios: the paper's evaluation workload.

The paper evaluates the allocator on random Fig. 6 placements (four
receivers scattered around anchor transmitters).  Two scenarios serve
that draw through the stack:

- ``fig6-random`` -- 100 distinct placements, each requested once: the
  fully cold workload (every request misses every cache), the serial
  reference the runtime benchmark compares the caches against;
- ``fig6-hotmix`` -- 384 requests, a quarter of them aimed at four hot
  placements (repeat traffic: coalescing and cache hits) and the rest
  drawn uniformly from 384 placements (the cold tail that batched
  dispatch amortizes): the cluster acceptance workload.

Every request gets its own logical arrival, ``ARRIVAL_SPACING`` apart,
so a service replay serves them one at a time.  The placement draw and
the hot/cold mix seed their RNGs with the root seed directly (not
:func:`derive_seed`), so a scenario's placements are exactly
``fig6_instances(seed=seed)``, the draw the paper-figure experiments
use.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..runtime.service import AllocationRequest
from ..system import simulation_scene
from .base import ScenarioInstance, TimedRequest, register_scenario

__all__ = ["build_fig6_random", "build_fig6_hotmix"]

#: Logical seconds between consecutive requests.
ARRIVAL_SPACING = 0.01

POWER_BUDGET = 1.2


def _fig6_instance(
    name: str,
    seed: int,
    distinct: int,
    order: np.ndarray,
    metadata: dict,
) -> ScenarioInstance:
    from ..experiments.scenarios import fig6_instances

    placements = fig6_instances(instances=distinct, seed=seed)
    groups = [
        tuple((float(x), float(y)) for x, y in placement)
        for placement in placements
    ]
    trace: Tuple[TimedRequest, ...] = tuple(
        TimedRequest(
            arrival_seconds=round(n * ARRIVAL_SPACING, 9),
            request=AllocationRequest(
                rx_positions_xy=groups[int(index)],
                power_budget=POWER_BUDGET,
                solver="heuristic",
                tag=f"{name}-{n}",
            ),
        )
        for n, index in enumerate(order)
    )
    return ScenarioInstance(
        name=name,
        seed=seed,
        scene=simulation_scene(list(groups[0])),
        trace=trace,
        metadata={
            "distinct_placements": len({groups[int(i)] for i in order}),
            "solver": "heuristic",
            **metadata,
        },
    )


@register_scenario(
    "fig6-random",
    "100 distinct Fig. 6 placements, each requested once (cold)",
    seed=0,
)
def build_fig6_random(seed: int) -> ScenarioInstance:
    requests = 100
    return _fig6_instance(
        "fig6-random", seed, requests, np.arange(requests), {}
    )


@register_scenario(
    "fig6-hotmix",
    "384 Fig. 6 requests, 25% on 4 hot placements (cluster acceptance)",
    seed=0,
)
def build_fig6_hotmix(seed: int) -> ScenarioInstance:
    requests = distinct = 384
    hot_rooms = 4
    hot_fraction = 0.25
    rng = np.random.default_rng(seed)
    hot_mask = rng.random(size=requests) < hot_fraction
    hot_draw = rng.integers(0, hot_rooms, size=requests)
    cold_draw = rng.integers(0, distinct, size=requests)
    order = np.where(hot_mask, hot_draw, cold_draw)
    return _fig6_instance(
        "fig6-hotmix",
        seed,
        distinct,
        order,
        {"hot_rooms": hot_rooms, "hot_fraction": hot_fraction},
    )
