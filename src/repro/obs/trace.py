"""The replayable request-trace format: JSONL record and replay.

One trace file pins one workload's request stream bit-for-bit: a header
line naming the scenario (name + seed), the scene fingerprint it plays
in and the trace length, followed by one line per request carrying its
arrival offset, quantized placement fingerprint, receiver positions,
budget, solver, kappa, tag and deadline.  The format is self-describing
enough to be committed (``benchmarks/traces/``) and replayed months
later: :class:`TraceReplayer` rebuilds the named scenario's *scene*
from the registry (verifying the fingerprint) but takes every *request*
from the file, so a drifted mobility model shows up as a fingerprint
mismatch instead of silently replaying a different workload.

Recording has two sources:

- :meth:`TraceRecorder.record_scenario` captures a registered scenario
  with its *logical* arrivals -- fully deterministic, the committable
  path;
- the :func:`recording_service` / :func:`recording_frontend` wrappers
  capture live traffic against an :class:`AllocationService` or a
  :class:`ClusterFrontend` with wall-clock arrival offsets -- the
  "record production traffic, replay it in CI" path.  Both wrappers
  duck-type the serving object; the serving layers never import this
  package (rule R1).
"""

from __future__ import annotations

import dataclasses
import json
import hashlib
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ConfigurationError
from ..runtime.service import AllocationRequest, placement_fingerprint

__all__ = [
    "TRACE_VERSION",
    "TraceRecord",
    "RequestTrace",
    "TraceRecorder",
    "TraceReplayer",
    "recording_service",
    "recording_frontend",
]

#: Bump when the JSONL schema changes incompatibly.
TRACE_VERSION = 1


@dataclass(frozen=True)
class TraceRecord:
    """One recorded request: arrival offset plus the full request payload."""

    arrival_seconds: float
    fingerprint: str
    rx_positions_xy: Tuple[Tuple[float, float], ...]
    power_budget: float
    solver: str
    kappa: float
    tag: str
    deadline_seconds: Optional[float]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": "request",
            "arrival_seconds": self.arrival_seconds,
            "fingerprint": self.fingerprint,
            "rx_positions_xy": [[x, y] for x, y in self.rx_positions_xy],
            "power_budget": self.power_budget,
            "solver": self.solver,
            "kappa": self.kappa,
            "tag": self.tag,
            "deadline_seconds": self.deadline_seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceRecord":
        return cls(
            arrival_seconds=float(data["arrival_seconds"]),
            fingerprint=str(data["fingerprint"]),
            rx_positions_xy=tuple(
                (float(x), float(y)) for x, y in data["rx_positions_xy"]
            ),
            power_budget=float(data["power_budget"]),
            solver=str(data["solver"]),
            kappa=float(data["kappa"]),
            tag=str(data["tag"]),
            deadline_seconds=(
                None
                if data.get("deadline_seconds") is None
                else float(data["deadline_seconds"])
            ),
        )

    def request(self) -> AllocationRequest:
        """The replayed request, bit-identical to what was recorded."""
        return AllocationRequest(
            rx_positions_xy=self.rx_positions_xy,
            power_budget=self.power_budget,
            solver=self.solver,
            kappa=self.kappa,
            tag=self.tag,
            deadline_seconds=self.deadline_seconds,
        )


@dataclass(frozen=True)
class RequestTrace:
    """A complete recorded trace: header fields plus the record stream."""

    scenario: str
    seed: int
    scene_fingerprint: str
    records: Tuple[TraceRecord, ...]
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.records:
            raise ConfigurationError("a request trace needs >= 1 record")
        arrivals = [r.arrival_seconds for r in self.records]
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            raise ConfigurationError("trace records are not sorted by arrival")

    @property
    def requests(self) -> int:
        return len(self.records)

    @property
    def duration_seconds(self) -> float:
        """Logical span from the first to the last arrival."""
        return (
            self.records[-1].arrival_seconds - self.records[0].arrival_seconds
        )

    def header(self) -> Dict[str, Any]:
        return {
            "kind": "header",
            "version": TRACE_VERSION,
            "scenario": self.scenario,
            "seed": self.seed,
            "scene_fingerprint": self.scene_fingerprint,
            "requests": len(self.records),
            "metadata": dict(self.metadata),
        }

    def stream_digest(self) -> str:
        """A blake2b digest of the exact request stream.

        Covers the scene fingerprint and every record's serialized
        payload in order -- two traces with the same digest replay the
        same requests at the same offsets.  The round-trip test asserts
        record -> save -> load -> digest is a fixed point.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self.scene_fingerprint.encode("utf-8"))
        for record in self.records:
            digest.update(
                json.dumps(record.as_dict(), sort_keys=True).encode("utf-8")
            )
        return digest.hexdigest()

    def save(self, path: str) -> None:
        """Write the trace as JSONL: one header line, one line per record."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self.header(), sort_keys=True) + "\n")
            for record in self.records:
                handle.write(
                    json.dumps(record.as_dict(), sort_keys=True) + "\n"
                )


class TraceRecorder:
    """Accumulates :class:`TraceRecord` entries into a saveable trace.

    Arrival offsets are whatever the caller supplies: logical scenario
    times for the deterministic path, wall-clock offsets from the
    recorder's creation for live capture (:meth:`record_live`).
    """

    def __init__(
        self,
        scenario: str = "live",
        seed: int = 0,
        scene_fingerprint: str = "",
        clock: Any = time.perf_counter,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.scene_fingerprint = scene_fingerprint
        self._clock = clock
        self._origin: Optional[float] = None
        self._records: List[TraceRecord] = []

    @property
    def records(self) -> Tuple[TraceRecord, ...]:
        return tuple(self._records)

    def record(
        self,
        request: AllocationRequest,
        arrival_seconds: float,
        fingerprint: str,
    ) -> TraceRecord:
        """Append one request at an explicit arrival offset."""
        record = TraceRecord(
            arrival_seconds=float(arrival_seconds),
            fingerprint=fingerprint,
            rx_positions_xy=request.rx_positions_xy,
            power_budget=float(request.power_budget),
            solver=request.solver,
            kappa=float(request.kappa),
            tag=request.tag,
            deadline_seconds=request.deadline_seconds,
        )
        self._records.append(record)
        return record

    def record_live(
        self, request: AllocationRequest, fingerprint: str
    ) -> TraceRecord:
        """Append one request at its wall-clock offset from first capture."""
        now = self._clock()
        if self._origin is None:
            self._origin = now
        return self.record(request, now - self._origin, fingerprint)

    def trace(self, metadata: Optional[Dict[str, Any]] = None) -> RequestTrace:
        """The accumulated records as an immutable :class:`RequestTrace`."""
        return RequestTrace(
            scenario=self.scenario,
            seed=self.seed,
            scene_fingerprint=self.scene_fingerprint,
            records=tuple(self._records),
            metadata=dict(metadata or {}),
        )

    @classmethod
    def record_scenario(
        cls, name: str, seed: Optional[int] = None
    ) -> RequestTrace:
        """Capture a registered scenario's stream with logical arrivals.

        Fully deterministic: arrivals are the scenario's own timestamps
        and fingerprints come from the scene + quantized placements, so
        the same ``(name, seed)`` always produces a byte-identical
        trace file -- the committable path behind the pinned traces in
        ``benchmarks/traces/``.  Streams lazily; fleet-scale scenarios
        never materialize their request list here.
        """
        from ..scenarios import build_scenario

        instance = build_scenario(name, seed)
        base = instance.scene.fingerprint()
        recorder = cls(
            scenario=instance.name,
            seed=instance.seed,
            scene_fingerprint=base,
        )
        for timed in instance.iter_trace():
            recorder.record(
                timed.request,
                timed.arrival_seconds,
                placement_fingerprint(base, timed.request.rx_positions_xy),
            )
        return recorder.trace(
            metadata={"source": "scenario", "streaming": instance.streaming}
        )


class TraceReplayer:
    """Load a JSONL trace and iterate its request stream.

    The replayer is the *source* half of a replay -- rate policy and
    the serving target live in :mod:`repro.obs.replay`.
    """

    def __init__(self, trace: RequestTrace) -> None:
        self.trace = trace

    @classmethod
    def load(cls, path: str) -> "TraceReplayer":
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        if not lines:
            raise ConfigurationError(f"trace file {path!r} is empty")
        header = json.loads(lines[0])
        if header.get("kind") != "header":
            raise ConfigurationError(
                f"trace file {path!r} does not start with a header line"
            )
        version = int(header.get("version", -1))
        if version != TRACE_VERSION:
            raise ConfigurationError(
                f"trace file {path!r} has version {version}; this build "
                f"reads version {TRACE_VERSION}"
            )
        records = []
        for n, line in enumerate(lines[1:], start=2):
            data = json.loads(line)
            if data.get("kind") != "request":
                raise ConfigurationError(
                    f"trace file {path!r} line {n}: expected a request record"
                )
            records.append(TraceRecord.from_dict(data))
        declared = int(header.get("requests", len(records)))
        if declared != len(records):
            raise ConfigurationError(
                f"trace file {path!r} declares {declared} requests but "
                f"carries {len(records)}"
            )
        return cls(
            RequestTrace(
                scenario=str(header["scenario"]),
                seed=int(header["seed"]),
                scene_fingerprint=str(header["scene_fingerprint"]),
                records=tuple(records),
                metadata=dict(header.get("metadata", {})),
            )
        )

    @property
    def requests(self) -> int:
        return self.trace.requests

    def stream_digest(self) -> str:
        return self.trace.stream_digest()

    def with_overrides(
        self,
        solver: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
    ) -> "TraceReplayer":
        """This trace with every record's solver and/or deadline replaced.

        The override rewrites the records themselves, so the stream
        digest -- and every report of a replay -- names the stream that
        actually runs, never the one recorded.
        """
        changes: Dict[str, Any] = {}
        if solver is not None:
            changes["solver"] = solver
        if deadline_seconds is not None:
            changes["deadline_seconds"] = float(deadline_seconds)
        if not changes:
            return self
        return TraceReplayer(
            dataclasses.replace(
                self.trace,
                records=tuple(
                    dataclasses.replace(record, **changes)
                    for record in self.trace.records
                ),
            )
        )

    def timed_requests(self) -> Iterator[Tuple[float, AllocationRequest]]:
        """``(arrival_seconds, request)`` pairs in recorded order."""
        for record in self.trace.records:
            yield record.arrival_seconds, record.request()

    def arrival_batches(
        self,
    ) -> Iterator[Tuple[float, List[AllocationRequest]]]:
        """Requests grouped by arrival instant (one epoch per batch)."""
        batch: List[AllocationRequest] = []
        current: Optional[float] = None
        for record in self.trace.records:
            if current is not None and record.arrival_seconds != current:
                yield current, batch
                batch = []
            current = record.arrival_seconds
            batch.append(record.request())
        if batch and current is not None:
            yield current, batch


class _RecordingService:
    """An :class:`AllocationService` proxy that records what it serves."""

    def __init__(self, service: Any, recorder: TraceRecorder) -> None:
        self.service = service
        self.recorder = recorder

    def handle(self, request: AllocationRequest) -> Any:
        return self.handle_batch([request])[0]

    def handle_batch(
        self,
        requests: Sequence[AllocationRequest],
        trace_parents: Optional[Sequence[Any]] = None,
    ) -> Any:
        base = self.service.base_fingerprint
        for request in requests:
            self.recorder.record_live(
                request,
                placement_fingerprint(base, request.rx_positions_xy),
            )
        if trace_parents is None:
            return self.service.handle_batch(requests)
        return self.service.handle_batch(requests, trace_parents)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.service, name)


class _RecordingFrontend:
    """A :class:`ClusterFrontend` proxy that records what it admits."""

    def __init__(self, frontend: Any, recorder: TraceRecorder) -> None:
        self.frontend = frontend
        self.recorder = recorder

    async def submit(self, request: AllocationRequest) -> Any:
        self.recorder.record_live(
            request, self.frontend.controller.fingerprint_for(request)
        )
        return await self.frontend.submit(request)

    async def submit_many(
        self, requests: Iterable[AllocationRequest]
    ) -> Any:
        requests = list(requests)
        for request in requests:
            self.recorder.record_live(
                request, self.frontend.controller.fingerprint_for(request)
            )
        return await self.frontend.submit_many(requests)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.frontend, name)


def recording_service(service: Any, recorder: TraceRecorder) -> Any:
    """Wrap *service* so every handled request lands in *recorder*.

    The wrapper forwards everything else untouched; requests are
    recorded with wall-clock arrival offsets and the service's own
    placement fingerprints (recording and caching agree on identity).
    """
    if not recorder.scene_fingerprint:
        recorder.scene_fingerprint = service.base_fingerprint
    return _RecordingService(service, recorder)


def recording_frontend(frontend: Any, recorder: TraceRecorder) -> Any:
    """Wrap a cluster front door so admitted requests land in *recorder*.

    Shed requests are recorded too -- they arrived, which is what a
    load trace captures; whether a replay sheds them again depends on
    the replayed stack's capacity, not the recording.
    """
    if not recorder.scene_fingerprint:
        recorder.scene_fingerprint = (
            frontend.controller.scene.fingerprint()
        )
    return _RecordingFrontend(frontend, recorder)
