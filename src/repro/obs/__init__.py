"""Observability: replayable load traces, perf trajectory, SLOs.

``repro.obs`` sits at the very top of the stack -- above the serving
layers *and* the scenario catalog: it records scenario workloads into
committable JSONL traces, replays them against the single service or
the sharded cluster, reads the stage histograms into per-stage self
times, tracks
rolling SLO compliance, and appends each replay's :class:`PerfReport` to
the committed perf-trajectory ledger the CI gate diffs.  Nothing below
this package imports it (rule R1); the serving layers see obs only
through duck-typed protocols (:class:`repro.runtime.service.SLOObserver`)
and plain data.
"""

from .attribution import attribution_table, render_attribution, stage_totals
from .ledger import (
    LEDGER_VERSION,
    P95_TOLERANCE,
    THROUGHPUT_TOLERANCE,
    PerfDiff,
    PerfReport,
    append_to_ledger,
    diff_reports,
    environment_fingerprint,
    latest_report,
    load_ledger,
)
from .replay import (
    REPLAY_MODES,
    cluster_for,
    find_knee,
    knee_from_trace,
    replay_cluster,
    replay_sequential,
    replay_service,
    service_for,
)
from .slo import SLObjective, SLOTracker, default_objectives
from .trace import (
    TRACE_VERSION,
    RequestTrace,
    TraceRecord,
    TraceRecorder,
    TraceReplayer,
    recording_frontend,
    recording_service,
)

__all__ = [
    "attribution_table",
    "render_attribution",
    "stage_totals",
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
    "REPLAY_MODES",
    "cluster_for",
    "find_knee",
    "knee_from_trace",
    "replay_cluster",
    "replay_sequential",
    "replay_service",
    "service_for",
    "SLObjective",
    "SLOTracker",
    "default_objectives",
    "TRACE_VERSION",
    "RequestTrace",
    "TraceRecord",
    "TraceRecorder",
    "TraceReplayer",
    "recording_frontend",
    "recording_service",
]
