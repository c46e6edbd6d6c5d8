"""Mobility-fleet scenarios: tens of receivers streaming through the room.

A *fleet* is many independently moving receivers, chunked into fixed-size
groups -- one :class:`~repro.runtime.service.AllocationRequest` per group
per epoch, because a scene (and therefore a service) has a fixed receiver
count.  Receivers move in staggered phases: at each epoch only the
receivers whose turn it is advance along their trajectory, the rest hold
position.  That is deliberate -- a request whose placement differs from
the previous epoch's in only *some* receivers is exactly what the
runtime's incremental channel update (``channel_matrix_update``) was
built for, so these traces exercise it at fleet scale.  Every solve is
cold: the allocation depends only on the placement's channel, the
budget and the tier.

Two scenarios register here:

- ``waypoint-fleet`` -- 24 receivers on seeded random-waypoint paths,
  solved with the ``swing`` tier (milliseconds per solve);
- ``hotspot-fleet`` -- 32 receivers dwelling around three attraction
  points (:class:`~repro.geometry.HotspotModel`); dwells produce repeat
  placements, the cache/coalescing end of the spectrum.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..geometry import HotspotModel, MobilityModel, RandomWaypointModel
from ..geometry.room import simulation_room
from ..runtime.service import AllocationRequest
from ..system import simulation_scene
from .base import (
    ScenarioInstance,
    TimedRequest,
    derive_seed,
    register_scenario,
)

__all__ = [
    "fleet_trace",
    "iter_fleet_trace",
    "streaming_fleet",
    "build_waypoint_fleet",
    "build_hotspot_fleet",
]

#: Staggering: a receiver advances only on epochs where
#: ``epoch % MOVE_PHASES == receiver_index % MOVE_PHASES``.
MOVE_PHASES = 3


def iter_fleet_trace(
    name: str,
    models: Sequence[MobilityModel],
    epochs: int,
    dt: float,
    group_size: int,
    power_budget: float = 1.2,
    solver: str = "heuristic",
    kappa: Optional[float] = None,
    deadline_seconds: Optional[float] = None,
) -> Iterator[TimedRequest]:
    """Yield a fleet's timestamped trace lazily, one request at a time.

    The streaming core behind :func:`fleet_trace`: only the fleet's
    *current* positions (one pair per receiver) are held in memory, so
    a fleet of hundreds of receivers over many epochs never
    materializes its full request list.  Receiver ``i`` advances its
    model clock only on its phase epochs (``i % MOVE_PHASES``), so
    consecutive epochs differ in roughly ``1/MOVE_PHASES`` of each
    group's receivers.
    """
    if group_size < 1 or len(models) % group_size != 0:
        raise ConfigurationError(
            f"fleet size {len(models)} is not divisible by group size "
            f"{group_size}"
        )
    if epochs < 1 or dt <= 0:
        raise ConfigurationError("need epochs >= 1 and dt > 0")
    groups = len(models) // group_size
    # Per-receiver model time: advanced only on that receiver's phase.
    clocks = [0.0 for _ in models]
    positions = [model.position_at(0.0) for model in models]
    for epoch in range(epochs):
        arrival = epoch * dt
        if epoch > 0:
            for i, model in enumerate(models):
                if epoch % MOVE_PHASES == i % MOVE_PHASES:
                    clocks[i] += dt * MOVE_PHASES
                    positions[i] = model.position_at(clocks[i])
        for g in range(groups):
            group = [
                (round(float(x), 6), round(float(y), 6))
                for x, y in positions[g * group_size : (g + 1) * group_size]
            ]
            extra = {} if kappa is None else {"kappa": kappa}
            yield TimedRequest(
                arrival_seconds=arrival,
                request=AllocationRequest(
                    rx_positions_xy=tuple(group),
                    power_budget=power_budget,
                    solver=solver,
                    tag=f"{name}-e{epoch}-g{g}",
                    deadline_seconds=deadline_seconds,
                    **extra,
                ),
            )


def fleet_trace(
    name: str,
    models: Sequence[MobilityModel],
    epochs: int,
    dt: float,
    group_size: int,
    power_budget: float = 1.2,
    solver: str = "heuristic",
    kappa: Optional[float] = None,
    deadline_seconds: Optional[float] = None,
) -> Tuple[Tuple[TimedRequest, ...], List[List[Tuple[float, float]]]]:
    """Compile a fleet of mobility models into a materialized trace.

    Returns the trace plus the epoch-0 group placements (the first
    group seeds the scenario's scene).  Kept for small fleets and
    tests; fleet-scale scenarios stream :func:`iter_fleet_trace`
    through :func:`streaming_fleet` instead.
    """
    trace = tuple(
        iter_fleet_trace(
            name,
            models,
            epochs=epochs,
            dt=dt,
            group_size=group_size,
            power_budget=power_budget,
            solver=solver,
            kappa=kappa,
            deadline_seconds=deadline_seconds,
        )
    )
    groups = len(models) // group_size
    first_epoch = [
        [
            (float(x), float(y))
            for x, y in trace[g].request.rx_positions_xy
        ]
        for g in range(groups)
    ]
    return trace, first_epoch


def streaming_fleet(
    name: str,
    model_factory: Callable[[int], MobilityModel],
    fleet: int,
    epochs: int,
    dt: float,
    group_size: int,
    power_budget: float = 1.2,
    solver: str = "heuristic",
    kappa: Optional[float] = None,
    deadline_seconds: Optional[float] = None,
) -> Tuple[
    Callable[[], Iterator[TimedRequest]], List[Tuple[float, float]], int
]:
    """A lazy fleet trace: ``(trace_factory, first_group, request_count)``.

    *model_factory(i)* builds receiver *i*'s (seeded) mobility model;
    the returned factory recreates the whole fleet on every call, so
    each invocation replays the identical deterministic stream -- the
    contract :attr:`ScenarioInstance.trace_factory` requires.  The
    epoch-0 positions of the first group are computed eagerly (they
    seed the scenario's scene) without instantiating the rest of the
    fleet's trajectories.
    """
    if group_size < 1 or fleet % group_size != 0:
        raise ConfigurationError(
            f"fleet size {fleet} is not divisible by group size {group_size}"
        )
    if epochs < 1 or dt <= 0:
        raise ConfigurationError("need epochs >= 1 and dt > 0")
    first_group = [
        (round(float(x), 6), round(float(y), 6))
        for x, y in (
            model_factory(i).position_at(0.0) for i in range(group_size)
        )
    ]

    def factory() -> Iterator[TimedRequest]:
        models = [model_factory(i) for i in range(fleet)]
        return iter_fleet_trace(
            name,
            models,
            epochs=epochs,
            dt=dt,
            group_size=group_size,
            power_budget=power_budget,
            solver=solver,
            kappa=kappa,
            deadline_seconds=deadline_seconds,
        )

    return factory, first_group, (fleet // group_size) * epochs


@register_scenario(
    "waypoint-fleet",
    "240 random-waypoint receivers, swing solver, streamed lazily",
    seed=0,
)
def build_waypoint_fleet(seed: int) -> ScenarioInstance:
    room = simulation_room()
    fleet = 240
    group_size = 4
    epochs = 5
    dt = 0.5

    def model_factory(i: int) -> MobilityModel:
        return RandomWaypointModel(
            room=room,
            speed=1.2,
            seed=derive_seed(seed, "waypoint-fleet", "rx", i),
            margin=0.3,
        )

    factory, first_group, request_count = streaming_fleet(
        "waypoint-fleet",
        model_factory,
        fleet=fleet,
        epochs=epochs,
        dt=dt,
        group_size=group_size,
        solver="swing",
    )
    scene = simulation_scene(first_group)
    return ScenarioInstance(
        name="waypoint-fleet",
        seed=seed,
        scene=scene,
        trace_factory=factory,
        request_count=request_count,
        metadata={
            "fleet_size": fleet,
            "group_size": group_size,
            "epochs": epochs,
            "dt_seconds": dt,
            "model": "random-waypoint",
            "solver": "swing",
            "streaming": True,
        },
    )


@register_scenario(
    "hotspot-fleet",
    "320 receivers dwelling around 3 hotspots, heavy cache locality",
    seed=0,
)
def build_hotspot_fleet(seed: int) -> ScenarioInstance:
    room = simulation_room()
    fleet = 320
    group_size = 4
    epochs = 6
    dt = 0.4
    hotspots = (
        (room.width * 0.25, room.depth * 0.3),
        (room.width * 0.7, room.depth * 0.25),
        (room.width * 0.5, room.depth * 0.75),
    )

    def model_factory(i: int) -> MobilityModel:
        return HotspotModel(
            room=room,
            hotspots=hotspots,
            sigma=0.25,
            dwell_seconds=6.0,
            speed=0.8,
            seed=derive_seed(seed, "hotspot-fleet", "rx", i),
            margin=0.3,
        )

    factory, first_group, request_count = streaming_fleet(
        "hotspot-fleet",
        model_factory,
        fleet=fleet,
        epochs=epochs,
        dt=dt,
        group_size=group_size,
        solver="heuristic",
    )
    scene = simulation_scene(first_group)
    return ScenarioInstance(
        name="hotspot-fleet",
        seed=seed,
        scene=scene,
        trace_factory=factory,
        request_count=request_count,
        metadata={
            "fleet_size": fleet,
            "group_size": group_size,
            "epochs": epochs,
            "dt_seconds": dt,
            "hotspots": [[float(x), float(y)] for x, y in hotspots],
            "model": "hotspot",
            "solver": "heuristic",
            "streaming": True,
        },
    )
