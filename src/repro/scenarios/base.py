"""Scenario core: the instance type, the seeding contract, the registry.

A *scenario* is a named, seeded, benchmarkable workload: a scene, a
timestamped request trace to play against it, and optionally a
:class:`~repro.runtime.faults.FaultPlan` compiled from physically
meaningful events (LED outages, degraded luminaires).  Scenarios are the
bridge between the paper's static figures and the serving stack's
dynamic reality -- mobility fleets, failures, placement variants.

The seeding contract: ``build_scenario(name, seed)`` is a pure function
of ``(name, seed)``.  Every random draw inside a builder comes from an
RNG seeded by :func:`derive_seed` (a blake2b hash of the scenario name,
the root seed and a per-stream label), never from global state, so the
same pair reproduces the same trace bit-for-bit on any platform --
:meth:`ScenarioInstance.workload_digest` pins exactly that in
``benchmarks/results/BENCH_scenarios.json``.

Builders register through :func:`register_scenario`::

    @register_scenario("waypoint-fleet", "24 RXs random-waypoint", seed=0)
    def _build(seed: int) -> ScenarioInstance: ...

and the CLI resolves ``repro record waypoint-fleet`` through
:func:`build_scenario`.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple

from ..errors import ConfigurationError
from ..runtime.faults import FaultPlan
from ..runtime.service import AllocationRequest
from ..system import Scene

__all__ = [
    "TimedRequest",
    "ScenarioInstance",
    "ScenarioSpec",
    "register_scenario",
    "scenario_names",
    "get_scenario",
    "build_scenario",
    "derive_seed",
]


def derive_seed(root_seed: int, *stream: object) -> int:
    """A per-stream child seed: blake2b of the root seed and labels.

    Independent streams (one per receiver, per timeline, per layout)
    must never share an RNG or consume from a common sequence --
    otherwise adding one receiver would reshuffle every other
    receiver's trajectory.  Deriving each stream's seed by hash keeps
    streams independent *and* stable under composition.
    """
    payload = ":".join(repr(part) for part in (root_seed, *stream))
    digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class TimedRequest:
    """One trace entry: an allocation request and its arrival time."""

    arrival_seconds: float
    request: AllocationRequest

    def __post_init__(self) -> None:
        if self.arrival_seconds < 0:
            raise ConfigurationError(
                f"arrival must be >= 0, got {self.arrival_seconds}"
            )


@dataclass(frozen=True)
class ScenarioInstance:
    """A fully built scenario: scene + trace (+ faults), ready to serve.

    The trace comes in one of two shapes.  Small scenarios materialize
    it as the ``trace`` tuple.  Fleet-scale scenarios (hundreds of
    receivers, thousands of requests) instead provide a
    ``trace_factory`` -- a zero-argument callable returning a fresh
    iterator over the same deterministic request stream -- plus the
    stream's ``request_count``, so building the instance never holds
    the whole request list in memory.  Consumers should iterate
    :meth:`iter_trace`, which serves either shape and validates the
    streamed entries (arrival order, group size) on the fly.

    Attributes:
        name: the registry name this instance was built from.
        seed: the root seed it was built with.
        scene: the deployment the trace plays in; its receiver count is
            the per-request group size, not the fleet size.
        trace: timestamped requests in non-decreasing arrival order
            (empty for streaming scenarios).
        fault_plan: optional seeded chaos compiled from the scenario's
            physical fault timeline (None for fault-free scenarios).
        metadata: scenario-specific facts worth reporting (fleet size,
            outage fraction, layout uplift, ...); values must be
            JSON-serializable.
        trace_factory: lazy trace source for streaming scenarios; each
            call must yield the identical request stream (the digest
            pin depends on it).
        request_count: the streamed trace's length (streaming only).
    """

    name: str
    seed: int
    scene: Scene
    trace: Tuple[TimedRequest, ...] = ()
    fault_plan: Optional[FaultPlan] = None
    metadata: Mapping[str, object] = field(default_factory=dict)
    trace_factory: Optional[Callable[[], Iterator[TimedRequest]]] = None
    request_count: int = 0

    def __post_init__(self) -> None:
        if self.trace_factory is not None:
            if self.trace:
                raise ConfigurationError(
                    f"scenario {self.name!r} has both a materialized trace "
                    "and a trace_factory; provide exactly one"
                )
            if self.request_count < 1:
                raise ConfigurationError(
                    f"scenario {self.name!r}: a streaming trace needs "
                    f"request_count >= 1, got {self.request_count}"
                )
            return
        if not self.trace:
            raise ConfigurationError(f"scenario {self.name!r} has an empty trace")
        arrivals = [t.arrival_seconds for t in self.trace]
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            raise ConfigurationError(
                f"scenario {self.name!r} trace is not sorted by arrival"
            )
        group = self.scene.num_receivers
        for timed in self.trace:
            if len(timed.request.rx_positions_xy) != group:
                raise ConfigurationError(
                    f"scenario {self.name!r}: request with "
                    f"{len(timed.request.rx_positions_xy)} receivers in a "
                    f"{group}-receiver scene"
                )

    @property
    def requests(self) -> int:
        return len(self.trace) if self.trace else self.request_count

    @property
    def streaming(self) -> bool:
        """Whether the trace is served lazily from a factory."""
        return self.trace_factory is not None

    def iter_trace(self) -> Iterator[TimedRequest]:
        """The trace, one entry at a time, either shape.

        Streamed entries are validated on the fly -- non-decreasing
        arrivals, receiver count matching the scene, and the factory
        producing exactly ``request_count`` entries -- because the
        eager ``__post_init__`` checks never see them.
        """
        if self.trace_factory is None:
            yield from self.trace
            return
        group = self.scene.num_receivers
        previous = 0.0
        count = 0
        for timed in self.trace_factory():
            if timed.arrival_seconds < previous:
                raise ConfigurationError(
                    f"scenario {self.name!r} stream is not sorted by arrival"
                )
            previous = timed.arrival_seconds
            if len(timed.request.rx_positions_xy) != group:
                raise ConfigurationError(
                    f"scenario {self.name!r}: streamed request with "
                    f"{len(timed.request.rx_positions_xy)} receivers in a "
                    f"{group}-receiver scene"
                )
            count += 1
            if count > self.request_count:
                raise ConfigurationError(
                    f"scenario {self.name!r} stream produced more than the "
                    f"declared {self.request_count} requests"
                )
            yield timed
        if count != self.request_count:
            raise ConfigurationError(
                f"scenario {self.name!r} stream produced {count} requests, "
                f"declared {self.request_count}"
            )

    def workload_digest(self) -> str:
        """A blake2b digest pinning the generated workload bit-for-bit.

        Covers the scene (via its fingerprint), every trace entry's
        arrival time and request payload, and the fault plan.  Two runs
        of the same ``(name, seed)`` must produce the same digest on any
        platform; ``benchmarks/test_bench_scenarios.py`` asserts the
        committed values.

        The digest is computed incrementally -- one hash update per
        trace entry -- so streaming scenarios digest in constant
        memory; materialized and streamed traces with identical entries
        produce identical digests.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(repr(("scenario", self.name, self.seed)).encode("utf-8"))
        digest.update(repr(("scene", self.scene.fingerprint())).encode("utf-8"))
        for timed in self.iter_trace():
            request = timed.request
            entry = (
                round(timed.arrival_seconds, 9),
                request.rx_positions_xy,
                float(request.power_budget),
                request.solver,
                float(request.kappa),
                request.tag,
                request.deadline_seconds,
            )
            digest.update(repr(entry).encode("utf-8"))
        if self.fault_plan is not None:
            digest.update(
                repr(("faults",) + dataclasses.astuple(self.fault_plan)).encode(
                    "utf-8"
                )
            )
        return digest.hexdigest()


@dataclass(frozen=True)
class ScenarioSpec:
    """A registered scenario: name, doc line, default seed, builder."""

    name: str
    description: str
    default_seed: int
    builder: Callable[[int], ScenarioInstance]

    def build(self, seed: Optional[int] = None) -> ScenarioInstance:
        instance = self.builder(
            self.default_seed if seed is None else int(seed)
        )
        if instance.name != self.name:
            raise ConfigurationError(
                f"builder for {self.name!r} returned an instance named "
                f"{instance.name!r}"
            )
        return instance


_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(
    name: str, description: str, seed: int = 0
) -> Callable[[Callable[[int], ScenarioInstance]], Callable[[int], ScenarioInstance]]:
    """Class the decorated builder under *name* in the registry."""

    def decorator(
        builder: Callable[[int], ScenarioInstance]
    ) -> Callable[[int], ScenarioInstance]:
        if name in _REGISTRY:
            raise ConfigurationError(f"scenario {name!r} is already registered")
        _REGISTRY[name] = ScenarioSpec(
            name=name,
            description=description,
            default_seed=seed,
            builder=builder,
        )
        return builder

    return decorator


def scenario_names() -> Tuple[str, ...]:
    """All registered scenario names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_scenario(name: str) -> ScenarioSpec:
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        )
    return spec


def build_scenario(name: str, seed: Optional[int] = None) -> ScenarioInstance:
    """Build the named scenario at *seed* (None -> its default seed)."""
    return get_scenario(name).build(seed)
