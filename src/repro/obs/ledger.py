"""The committed perf-trajectory ledger and its regression diff.

One :class:`PerfReport` summarizes one replay run -- throughput, tail
latency, shed/degraded/hit rates, the serving stack's counters,
per-stage self-times from the span fold, and an environment
fingerprint so numbers from different hosts are never compared
blindly.  Reports append to a JSON ledger
(``benchmarks/results/BENCH_trajectory.json``): the perf *trajectory*
across PRs, not a single pin.  :func:`diff_reports` compares two
reports under the regression thresholds the CI gate enforces --
candidate p95 more than 15 % above baseline, or throughput more than
10 % below, is a failure.

The ledger is observability data, not a decision path: wall-clock
timestamps are fine here (rule R3 does not cover ``repro.obs``).
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..errors import ConfigurationError

__all__ = [
    "LEDGER_VERSION",
    "P95_TOLERANCE",
    "THROUGHPUT_TOLERANCE",
    "PerfDiff",
    "PerfReport",
    "append_to_ledger",
    "diff_reports",
    "environment_fingerprint",
    "latest_report",
    "load_ledger",
]

#: Bump when the ledger schema changes incompatibly.
LEDGER_VERSION = 1

#: Candidate p95 latency may exceed the baseline by at most this factor.
P95_TOLERANCE = 0.15

#: Candidate throughput may fall below the baseline by at most this factor.
THROUGHPUT_TOLERANCE = 0.10


def environment_fingerprint() -> Dict[str, Any]:
    """Where a report's numbers came from: interpreter, host, libraries.

    Perf numbers are only comparable within one environment.  The
    trajectory gate diffs only against entries with the same
    ``cpu_count``; the rest of the fingerprint makes cross-host entries
    in the trajectory distinguishable after the fact.
    """
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count() or 1,
    }


@dataclass(frozen=True)
class PerfReport:
    """One replay run's performance summary, one ledger entry.

    ``label`` identifies the comparable series inside the trajectory
    (``service:led-outage``, ``cluster:mirror-nlos``,
    ``sequential:fig6-hotmix``); diffs only make sense between entries
    sharing a label.  ``stream_digest`` pins the exact request stream
    served, so a diff across differing digests is comparing different
    workloads and :func:`diff_reports` refuses it.  ``counters`` is the
    serving stack's counter snapshot at the end of the run (summed over
    shards for the cluster): coalescing, dispatches, shedding by
    reason, incremental channel updates, resilience.
    Entries written before ``counters`` existed load with an empty
    dict; older cluster entries carry a ``p99_latency_ms`` of 0.0.
    """

    label: str
    target: str
    scenario: str
    seed: int
    stream_digest: str
    mode: str
    requests: int
    served: int
    shed: int
    duration_seconds: float
    requests_per_second: float
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float = 0.0
    shed_rate: float = 0.0
    degraded_rate: float = 0.0
    channel_hit_rate: float = 0.0
    allocation_hit_rate: float = 0.0
    stage_self_ms: Dict[str, float] = field(default_factory=dict)
    slo: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    environment: Dict[str, Any] = field(default_factory=dict)
    created: str = ""

    def __post_init__(self) -> None:
        if self.target not in ("service", "cluster"):
            raise ConfigurationError(
                f"target must be 'service' or 'cluster', got {self.target!r}"
            )
        if self.requests < 1:
            raise ConfigurationError(
                f"a perf report needs >= 1 request, got {self.requests}"
            )

    def lines(self) -> List[str]:
        lines = [
            f"label               {self.label}",
            f"scenario            {self.scenario} (seed {self.seed})",
            f"stream digest       {self.stream_digest}",
            f"mode                {self.mode}",
            f"served / shed       {self.served} / {self.shed}",
            f"throughput          {self.requests_per_second:.1f} req/s",
            f"p50 latency         {self.p50_latency_ms:.3f} ms",
            f"p95 latency         {self.p95_latency_ms:.3f} ms",
        ]
        if self.p99_latency_ms:
            lines.append(f"p99 latency         {self.p99_latency_ms:.3f} ms")
        lines.append(
            f"hit rates           channel {self.channel_hit_rate:.2f} / "
            f"allocation {self.allocation_hit_rate:.2f}"
        )
        if self.degraded_rate:
            lines.append(f"degraded rate       {self.degraded_rate:.3f}")
        counters = self.counters
        dispatches = counters.get("cluster.dispatches", 0.0)
        if dispatches:
            lines.append(
                f"coalesced           {counters.get('cluster.coalesced', 0):.0f}"
                f"  dispatches {dispatches:.0f} (mean batch "
                f"{counters.get('service.requests', 0) / dispatches:.1f})"
            )
        for key, value in sorted(counters.items()):
            if key.startswith(("cluster.shed{", "resilience.")) or (
                key == "service.channel_incremental"
            ):
                lines.append(f"{key:<35} {value:.0f}")
        for stage, self_ms in sorted(
            self.stage_self_ms.items(), key=lambda item: -item[1]
        ):
            lines.append(f"stage {stage:<22} {self_ms:.3f} ms self")
        for objective in self.slo.get("objectives", []):
            lines.append(
                f"slo {objective['name']:<15} "
                f"{100 * objective['compliance']:.2f}% "
                f"(target {100 * objective['target']:.1f}%)"
            )
        return lines

    def as_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "target": self.target,
            "scenario": self.scenario,
            "seed": self.seed,
            "stream_digest": self.stream_digest,
            "mode": self.mode,
            "requests": self.requests,
            "served": self.served,
            "shed": self.shed,
            "duration_seconds": self.duration_seconds,
            "requests_per_second": self.requests_per_second,
            "p50_latency_ms": self.p50_latency_ms,
            "p95_latency_ms": self.p95_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "shed_rate": self.shed_rate,
            "degraded_rate": self.degraded_rate,
            "channel_hit_rate": self.channel_hit_rate,
            "allocation_hit_rate": self.allocation_hit_rate,
            "stage_self_ms": dict(self.stage_self_ms),
            "slo": dict(self.slo),
            "counters": dict(self.counters),
            "environment": dict(self.environment),
            "created": self.created,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PerfReport":
        return cls(
            label=str(data["label"]),
            target=str(data["target"]),
            scenario=str(data["scenario"]),
            seed=int(data["seed"]),
            stream_digest=str(data["stream_digest"]),
            mode=str(data["mode"]),
            requests=int(data["requests"]),
            served=int(data["served"]),
            shed=int(data["shed"]),
            duration_seconds=float(data["duration_seconds"]),
            requests_per_second=float(data["requests_per_second"]),
            p50_latency_ms=float(data["p50_latency_ms"]),
            p95_latency_ms=float(data["p95_latency_ms"]),
            p99_latency_ms=float(data.get("p99_latency_ms", 0.0)),
            shed_rate=float(data.get("shed_rate", 0.0)),
            degraded_rate=float(data.get("degraded_rate", 0.0)),
            channel_hit_rate=float(data.get("channel_hit_rate", 0.0)),
            allocation_hit_rate=float(data.get("allocation_hit_rate", 0.0)),
            stage_self_ms=dict(data.get("stage_self_ms", {})),
            slo=dict(data.get("slo", {})),
            counters={
                key: float(value)
                for key, value in data.get("counters", {}).items()
            },
            environment=dict(data.get("environment", {})),
            created=str(data.get("created", "")),
        )


def load_ledger(path: str) -> List[PerfReport]:
    """Every report in the ledger at *path*, oldest first.

    A missing file is an empty trajectory, not an error -- the first
    appended run creates it.
    """
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    version = int(document.get("version", -1))
    if version != LEDGER_VERSION:
        raise ConfigurationError(
            f"ledger {path!r} has version {version}; this build reads "
            f"version {LEDGER_VERSION}"
        )
    return [PerfReport.from_dict(entry) for entry in document["entries"]]


def append_to_ledger(report: PerfReport, path: str) -> List[PerfReport]:
    """Append *report* to the ledger at *path*; returns the new history."""
    history = load_ledger(path)
    stamped = report
    if not report.created:
        stamped = PerfReport.from_dict(
            {
                **report.as_dict(),
                "created": time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
                ),
            }
        )
    history.append(stamped)
    document = {
        "version": LEDGER_VERSION,
        "entries": [entry.as_dict() for entry in history],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return history


def latest_report(
    history: Sequence[PerfReport], label: str
) -> Optional[PerfReport]:
    """The most recent entry carrying *label*, or None."""
    for report in reversed(list(history)):
        if report.label == label:
            return report
    return None


@dataclass(frozen=True)
class PerfDiff:
    """The comparison :func:`diff_reports` renders and the CI gate checks."""

    label: str
    baseline_rps: float
    candidate_rps: float
    baseline_p95_ms: float
    candidate_p95_ms: float
    throughput_ratio: float
    p95_ratio: float
    regressions: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def lines(self) -> List[str]:
        lines = [
            f"label               {self.label}",
            f"throughput          {self.baseline_rps:.1f} -> "
            f"{self.candidate_rps:.1f} req/s "
            f"({100 * (self.throughput_ratio - 1):+.1f}%)",
            f"p95 latency         {self.baseline_p95_ms:.3f} -> "
            f"{self.candidate_p95_ms:.3f} ms "
            f"({100 * (self.p95_ratio - 1):+.1f}%)",
        ]
        for regression in self.regressions:
            lines.append(f"REGRESSION: {regression}")
        if not self.regressions:
            lines.append("ok: within regression thresholds")
        return lines


def diff_reports(
    baseline: PerfReport,
    candidate: PerfReport,
    p95_tolerance: float = P95_TOLERANCE,
    throughput_tolerance: float = THROUGHPUT_TOLERANCE,
) -> PerfDiff:
    """Compare *candidate* against *baseline* under the gate thresholds.

    Both reports must carry the same label and stream digest -- a diff
    across different workloads is meaningless and raises.  A candidate
    regresses when its p95 exceeds the baseline's by more than
    *p95_tolerance* (default 15 %) or its throughput falls short by
    more than *throughput_tolerance* (default 10 %).
    """
    if baseline.label != candidate.label:
        raise ConfigurationError(
            f"cannot diff {candidate.label!r} against {baseline.label!r}; "
            "labels must match"
        )
    if baseline.stream_digest != candidate.stream_digest:
        raise ConfigurationError(
            f"stream digest mismatch for {baseline.label!r}: baseline "
            f"{baseline.stream_digest} vs candidate "
            f"{candidate.stream_digest}; the workloads differ"
        )
    if not 0.0 <= p95_tolerance:
        raise ConfigurationError(
            f"p95_tolerance must be >= 0, got {p95_tolerance}"
        )
    if not 0.0 <= throughput_tolerance < 1.0:
        raise ConfigurationError(
            f"throughput_tolerance must be in [0, 1), got "
            f"{throughput_tolerance}"
        )
    throughput_ratio = (
        candidate.requests_per_second / baseline.requests_per_second
        if baseline.requests_per_second > 0
        else float("inf")
    )
    p95_ratio = (
        candidate.p95_latency_ms / baseline.p95_latency_ms
        if baseline.p95_latency_ms > 0
        else float("inf")
    )
    regressions: List[str] = []
    if throughput_ratio < 1.0 - throughput_tolerance:
        regressions.append(
            f"throughput fell {100 * (1 - throughput_ratio):.1f}% "
            f"({baseline.requests_per_second:.1f} -> "
            f"{candidate.requests_per_second:.1f} req/s; allowed "
            f"{100 * throughput_tolerance:.0f}%)"
        )
    if baseline.p95_latency_ms > 0 and p95_ratio > 1.0 + p95_tolerance:
        regressions.append(
            f"p95 latency rose {100 * (p95_ratio - 1):.1f}% "
            f"({baseline.p95_latency_ms:.3f} -> "
            f"{candidate.p95_latency_ms:.3f} ms; allowed "
            f"{100 * p95_tolerance:.0f}%)"
        )
    return PerfDiff(
        label=baseline.label,
        baseline_rps=baseline.requests_per_second,
        candidate_rps=candidate.requests_per_second,
        baseline_p95_ms=baseline.p95_latency_ms,
        candidate_p95_ms=candidate.p95_latency_ms,
        throughput_ratio=throughput_ratio,
        p95_ratio=p95_ratio,
        regressions=regressions,
    )
