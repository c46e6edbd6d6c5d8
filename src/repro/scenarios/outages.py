"""Fault scenarios: LED-outage and degraded-luminaire timelines.

A physical fault timeline -- which LEDs are dark or dim, when -- is
compiled down to the serving stack's existing chaos machinery
(:class:`~repro.runtime.faults.FaultPlan`), so the degradation chain and
channel-repair paths get exercised by *physically meaningful* events
rather than synthetic probabilities:

- a **dark** LED (severity 1.0) means channel estimates involving it are
  garbage until re-measured -> ``corrupt_channel_probability`` scales
  with the fraction of LED-time lost;
- a **dim** luminaire (severity < 1, thermal derating or dust) mostly
  slows convergence -- SLSQP grinds on a badly scaled column ->
  ``slow_solve_probability`` scales with the degraded fraction.

The mapping is deliberately coarse (the runtime injects faults by
hash, not by timestamp), but it is *derived* from the timeline: more
LED-seconds lost -> more injected faults, deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..geometry import RandomWalkModel
from ..geometry.room import simulation_room
from ..runtime.faults import FaultPlan
from ..system import simulation_scene
from .base import (
    ScenarioInstance,
    derive_seed,
    register_scenario,
)
from .mobility import fleet_trace

__all__ = [
    "OutageEvent",
    "OutageTimeline",
    "sample_timeline",
    "compile_fault_plan",
    "build_led_outage",
    "build_degraded_luminaire",
]


@dataclass(frozen=True)
class OutageEvent:
    """One LED fault interval: which LED, when, how bad.

    ``severity`` is the lost output fraction: 1.0 is a dark LED, 0.4 a
    luminaire running at 60 %.
    """

    tx_index: int
    start_seconds: float
    end_seconds: float
    severity: float = 1.0

    def __post_init__(self) -> None:
        if self.tx_index < 0:
            raise ConfigurationError(
                f"tx_index must be >= 0, got {self.tx_index}"
            )
        if not 0.0 <= self.start_seconds < self.end_seconds:
            raise ConfigurationError(
                f"need 0 <= start < end, got "
                f"[{self.start_seconds}, {self.end_seconds}]"
            )
        if not 0.0 < self.severity <= 1.0:
            raise ConfigurationError(
                f"severity must be in (0, 1], got {self.severity}"
            )

    @property
    def duration(self) -> float:
        return self.end_seconds - self.start_seconds


@dataclass(frozen=True)
class OutageTimeline:
    """A set of outage events over a horizon, for *num_leds* LEDs."""

    num_leds: int
    horizon_seconds: float
    events: Tuple[OutageEvent, ...]

    def __post_init__(self) -> None:
        if self.num_leds < 1:
            raise ConfigurationError(
                f"num_leds must be >= 1, got {self.num_leds}"
            )
        if self.horizon_seconds <= 0:
            raise ConfigurationError(
                f"horizon must be positive, got {self.horizon_seconds}"
            )
        for event in self.events:
            if event.tx_index >= self.num_leds:
                raise ConfigurationError(
                    f"event LED {event.tx_index} outside 0..{self.num_leds - 1}"
                )
            if event.end_seconds > self.horizon_seconds:
                raise ConfigurationError(
                    f"event ends at {event.end_seconds}s, past the "
                    f"{self.horizon_seconds}s horizon"
                )

    def active(self, t: float) -> Tuple[OutageEvent, ...]:
        """Events in force at time *t* (start inclusive, end exclusive)."""
        return tuple(
            e for e in self.events if e.start_seconds <= t < e.end_seconds
        )

    def outage_fraction(self) -> float:
        """Severity-weighted LED-seconds lost over total LED-seconds."""
        lost = sum(e.duration * e.severity for e in self.events)
        return lost / (self.num_leds * self.horizon_seconds)


def sample_timeline(
    seed: int,
    num_leds: int,
    horizon_seconds: float,
    events: int,
    mean_duration_seconds: float,
    severity: float = 1.0,
) -> OutageTimeline:
    """A seeded random timeline: *events* outages over the horizon.

    Start times are uniform, durations exponential (clamped into the
    horizon), LEDs drawn with replacement -- all from one derived RNG,
    so the same seed yields the same timeline.
    """
    if events < 1:
        raise ConfigurationError(f"need at least 1 event, got {events}")
    if mean_duration_seconds <= 0:
        raise ConfigurationError(
            f"mean duration must be positive, got {mean_duration_seconds}"
        )
    rng = np.random.default_rng(derive_seed(seed, "outage-timeline"))
    sampled: List[OutageEvent] = []
    for _ in range(events):
        tx = int(rng.integers(0, num_leds))
        duration = float(
            np.clip(
                rng.exponential(mean_duration_seconds),
                0.1,
                horizon_seconds / 2.0,
            )
        )
        start = float(rng.uniform(0.0, horizon_seconds - duration))
        sampled.append(
            OutageEvent(
                tx_index=tx,
                start_seconds=round(start, 6),
                end_seconds=round(start + duration, 6),
                severity=severity,
            )
        )
    sampled.sort(key=lambda e: (e.start_seconds, e.tx_index))
    return OutageTimeline(
        num_leds=num_leds,
        horizon_seconds=horizon_seconds,
        events=tuple(sampled),
    )


def compile_fault_plan(timeline: OutageTimeline, seed: int) -> FaultPlan:
    """Compile a physical outage timeline into runtime fault pressure.

    The probabilities scale linearly with the severity-weighted outage
    fraction and are capped well below 1 so every scenario still
    terminates promptly.  Dark-LED time (severity ~1) drives channel
    corruption; dim time (severity < 1) drives slow solves instead.
    """
    fraction = timeline.outage_fraction()
    dark = sum(
        e.duration for e in timeline.events if e.severity >= 0.99
    ) / (timeline.num_leds * timeline.horizon_seconds)
    dim = fraction - dark * 1.0
    return FaultPlan(
        seed=derive_seed(seed, "fault-plan"),
        corrupt_channel_probability=round(min(0.4, 6.0 * dark), 6),
        slow_solve_probability=round(min(0.4, 6.0 * max(dim, 0.0)), 6),
        slow_solve_seconds=0.02,
        fault_attempts=1,
    )


def _outage_instance(
    name: str,
    seed: int,
    severity: float,
    solver: str,
) -> ScenarioInstance:
    room = simulation_room()
    fleet = 12
    group_size = 4
    epochs = 20
    dt = 0.5
    models = [
        RandomWalkModel(
            room=room,
            speed=0.4,
            step_interval=0.5,
            seed=derive_seed(seed, name, "rx", i),
            margin=0.3,
        )
        for i in range(fleet)
    ]
    trace, first_epoch = fleet_trace(
        name,
        models,
        epochs=epochs,
        dt=dt,
        group_size=group_size,
        solver=solver,
    )
    scene = simulation_scene(first_epoch[0])
    timeline = sample_timeline(
        seed=derive_seed(seed, name, "timeline"),
        num_leds=scene.num_transmitters,
        horizon_seconds=epochs * dt,
        events=6,
        mean_duration_seconds=3.0,
        severity=severity,
    )
    plan = compile_fault_plan(timeline, seed)
    return ScenarioInstance(
        name=name,
        seed=seed,
        scene=scene,
        trace=trace,
        fault_plan=plan,
        metadata={
            "fleet_size": fleet,
            "group_size": group_size,
            "epochs": epochs,
            "dt_seconds": dt,
            "outage_events": len(timeline.events),
            "outage_fraction": round(timeline.outage_fraction(), 6),
            "severity": severity,
            "corrupt_channel_probability": plan.corrupt_channel_probability,
            "slow_solve_probability": plan.slow_solve_probability,
            "solver": solver,
        },
    )


@register_scenario(
    "led-outage",
    "dark-LED timeline compiled to channel-corruption faults",
    seed=0,
)
def build_led_outage(seed: int) -> ScenarioInstance:
    return _outage_instance("led-outage", seed, severity=1.0, solver="heuristic")


@register_scenario(
    "degraded-luminaire",
    "dimmed-luminaire timeline compiled to slow-solve faults",
    seed=0,
)
def build_degraded_luminaire(seed: int) -> ScenarioInstance:
    return _outage_instance(
        "degraded-luminaire", seed, severity=0.4, solver="heuristic"
    )
