"""Sharded multi-room deployment of the allocation-serving runtime.

Layers horizontal scale on :class:`~repro.runtime.service.AllocationService`:

- :mod:`repro.cluster.sharding` -- the deterministic consistent-hash
  ring mapping scene fingerprints onto shards (virtual nodes, minimal
  remap on membership change);
- :mod:`repro.cluster.controller` -- shard lifecycle, routing, cluster
  health and the shard-labeled Prometheus rollup;
- :mod:`repro.cluster.frontend` -- the asyncio ingestion front door:
  per-shard batching queues, single-flight coalescing of identical
  concurrent requests, deadline-aware admission control and load
  shedding, trace propagation into the shards;
- :mod:`repro.cluster.bench` -- closed-loop and rate-paced cluster
  benchmarking against a sequential single-service baseline, wired
  into the CLI as ``repro cluster-bench``.

Layering: this package sits *above* :mod:`repro.runtime`; the physics
layers (``core``/``channel``/``optics``/``illumination``) may never
import it (lint rule R1), and it obeys the determinism rules (R3) so
routing is reproducible across processes and runs.
"""

from .bench import (
    ClusterBenchReport,
    cluster_workload,
    knee_sweep,
    run_cluster_benchmark,
)
from .controller import ClusterController, ClusterOptions, Shard
from .frontend import ClusterFrontend, FrontendOptions
from .sharding import ConsistentHashRing
from ..errors import ClusterError, RequestShedError

__all__ = [
    "ClusterBenchReport",
    "cluster_workload",
    "knee_sweep",
    "run_cluster_benchmark",
    "ClusterController",
    "ClusterOptions",
    "Shard",
    "ClusterFrontend",
    "FrontendOptions",
    "ConsistentHashRing",
    "ClusterError",
    "RequestShedError",
]
