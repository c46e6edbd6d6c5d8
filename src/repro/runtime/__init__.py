"""The allocation-serving runtime: batched, cached, deadline-bounded.

Turns the per-call experiment code into a high-throughput engine:

- :mod:`repro.runtime.cache` -- bounded LRU caches keyed by quantized
  scene fingerprints;
- :mod:`repro.runtime.pool` -- deterministic in-process execution of
  allocation solves, degrading down the solver chain when a solver
  misses its deadline or fails to converge;
- :mod:`repro.runtime.metrics` -- labeled counters/gauges/histograms
  exported as a dict snapshot or Prometheus text;
- :mod:`repro.runtime.tracing` -- deterministic, sampling-aware request
  span trees with Chrome-trace/Perfetto and JSON-lines export;
- :mod:`repro.runtime.resilience` -- deadlines and the solver
  degradation chain;
- :mod:`repro.runtime.faults` -- the seedable fault-injection harness
  driving the chaos tests;
- :mod:`repro.runtime.service` -- the :class:`AllocationService`
  facade routing requests through cache -> batch -> solve (benchmarked
  by trace replay, :mod:`repro.obs.replay`).

The one-broadcast channel/SINR stacks (:func:`channel_matrix_stack`,
:func:`throughput_stack`, ...) live in :mod:`repro.channel` and are
re-exported here.
"""

from ..channel import (
    channel_matrix_stack,
    received_amplitude_stack,
    sinr_stack,
    system_throughput_stack,
    throughput_stack,
)
from .cache import CacheStats, ChannelCache, LRUCache
from .faults import FaultPlan
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merged_prometheus,
)
from .pool import (
    SOLVERS,
    SolveOutcome,
    SolverPool,
    SolveTask,
    solve_task,
)
from .resilience import (
    DEGRADATION_CHAIN,
    Deadline,
    degradation_fallbacks,
)
from .service import (
    AllocationRequest,
    AllocationResult,
    AllocationService,
    ServiceOptions,
    placement_fingerprint,
)
from .tracing import (
    Tracer,
    TracingOptions,
)
from ..tracecontext import Span, add_span_attributes, current_span, stage

__all__ = [
    "channel_matrix_stack",
    "received_amplitude_stack",
    "sinr_stack",
    "system_throughput_stack",
    "throughput_stack",
    "CacheStats",
    "ChannelCache",
    "LRUCache",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merged_prometheus",
    "SOLVERS",
    "SolveOutcome",
    "SolverPool",
    "SolveTask",
    "solve_task",
    "FaultPlan",
    "DEGRADATION_CHAIN",
    "Deadline",
    "degradation_fallbacks",
    "AllocationRequest",
    "AllocationResult",
    "AllocationService",
    "ServiceOptions",
    "placement_fingerprint",
    "Tracer",
    "TracingOptions",
    "Span",
    "add_span_attributes",
    "current_span",
    "stage",
]
