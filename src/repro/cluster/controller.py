"""Shard lifecycle, routing and cluster-wide health/metrics rollup.

:class:`ClusterController` owns N :class:`AllocationService` shards over
one deployment scene.  Each shard is a fully independent engine -- its
own channel/allocation caches, solver pool, resilience policy and
metrics registry -- so shards never contend on locks.  The controller
supplies what the shards cannot know individually:

- **routing**: scene fingerprints map onto shards through a
  :class:`~repro.cluster.sharding.ConsistentHashRing`;
- **lifecycle**: shards can be added and removed at runtime with the
  ring rebalancing deterministically (only the moved arcs change
  owners, so surviving shards keep their caches warm);
- **health rollup**: one :meth:`health` document aggregating every
  shard's atomic health snapshot;
- **metrics rollup**: every per-shard registry (plus the controller's
  own cluster-level registry) merged into one Prometheus exposition
  where each series carries a ``shard`` label.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.lockgraph import monitored_lock
from ..channel import AWGNNoise
from ..errors import ClusterError
from ..runtime.metrics import MetricsRegistry, merged_prometheus
from ..runtime.service import (
    AllocationRequest,
    AllocationService,
    ServiceOptions,
    placement_fingerprint,
)
from ..runtime.tracing import Tracer
from ..system import Scene
from .sharding import ConsistentHashRing

__all__ = ["ClusterOptions", "Shard", "ClusterController"]


@dataclass(frozen=True)
class ClusterOptions:
    """Knobs for :class:`ClusterController`.

    Attributes:
        shards: initial shard count.
        replicas: virtual nodes per shard on the hash ring.
        seed: ring hash seed (routing is a pure function of it).
        service: per-shard :class:`ServiceOptions`; every shard gets the
            same configuration but its own caches/pool/registry.
    """

    shards: int = 4
    replicas: int = 64
    seed: int = 0
    service: ServiceOptions = field(default_factory=ServiceOptions)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ClusterError(f"need at least 1 shard, got {self.shards}")


@dataclass(frozen=True)
class Shard:
    """One cluster member: an id plus its service engine."""

    shard_id: str
    service: AllocationService


class ClusterController:
    """Owns the shard set, the ring and the cluster-level rollups."""

    def __init__(
        self,
        scene: Scene,
        options: Optional[ClusterOptions] = None,
        noise: Optional[AWGNNoise] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.scene = scene
        self.options = options if options is not None else ClusterOptions()
        self.noise = noise
        self.tracer = tracer if tracer is not None else Tracer.disabled()
        self.metrics = MetricsRegistry()
        self._lock = monitored_lock("cluster.controller")
        self._shards: "OrderedDict[str, Shard]" = OrderedDict()
        self._ring = ConsistentHashRing(
            replicas=self.options.replicas, seed=self.options.seed
        )
        self._next_index = 0
        self._base_fingerprint = scene.fingerprint(
            self.options.service.quantum
        )
        for _ in range(self.options.shards):
            self.add_shard()

    # -- lifecycle ------------------------------------------------------

    def _build_service(self) -> AllocationService:
        return AllocationService(
            self.scene,
            noise=self.noise,
            options=self.options.service,
            tracer=self.tracer,
        )

    def add_shard(self) -> str:
        """Bring up a new shard and splice it into the ring."""
        with self._lock:
            shard_id = f"shard-{self._next_index}"
            self._next_index += 1
        service = self._build_service()
        with self._lock:
            self._shards[shard_id] = Shard(shard_id=shard_id, service=service)
            self._ring.add_shard(shard_id)
        self.metrics.counter("cluster.shards_added").increment()
        return shard_id

    def remove_shard(self, shard_id: str) -> None:
        """Retire a shard; its ring arcs redistribute deterministically."""
        with self._lock:
            if shard_id not in self._shards:
                raise ClusterError(f"unknown shard {shard_id!r}")
            if len(self._shards) == 1:
                raise ClusterError("cannot remove the last shard")
            self._ring.remove_shard(shard_id)
            del self._shards[shard_id]
        self.metrics.counter("cluster.shards_removed").increment()

    @property
    def shard_ids(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._shards)

    def shard(self, shard_id: str) -> Shard:
        with self._lock:
            try:
                return self._shards[shard_id]
            except KeyError:
                raise ClusterError(f"unknown shard {shard_id!r}") from None

    def shards(self) -> List[Shard]:
        with self._lock:
            return list(self._shards.values())

    # -- routing --------------------------------------------------------

    def fingerprint_for(self, request: AllocationRequest) -> str:
        """The request's routing key (identical to the shard cache key)."""
        return placement_fingerprint(
            self._base_fingerprint,
            request.rx_positions_xy,
            self.options.service.quantum,
        )

    def route(self, key: str) -> Shard:
        """The shard that owns *key* on the ring."""
        with self._lock:
            return self._shards[self._ring.route(key)]

    # -- rollups --------------------------------------------------------

    def health(self) -> dict:
        """Every shard's atomic health snapshot under one cluster status.

        ``status`` is ``"ok"`` when every shard is ok and ``"degraded"``
        when at least one shard's SLO error budget is exhausted.
        """
        shards = self.shards()
        per_shard = {
            shard.shard_id: shard.service.health() for shard in shards
        }
        degraded = [
            shard_id
            for shard_id, report in per_shard.items()
            if report["status"] != "ok"
        ]
        return {
            "status": "degraded" if degraded else "ok",
            "shard_count": len(per_shard),
            "degraded_shards": degraded,
            "shards": per_shard,
        }

    def registries(self) -> Dict[str, MetricsRegistry]:
        """Every metrics registry in the cluster, keyed by shard label."""
        registries: Dict[str, MetricsRegistry] = {
            shard.shard_id: shard.service.metrics for shard in self.shards()
        }
        registries["cluster"] = self.metrics
        return registries

    def expose_prometheus(
        self, prefix: str = "", exemplars: bool = False
    ) -> str:
        """One Prometheus exposition over every registry, shard-labeled.

        With ``exemplars=True``, histogram bucket lines carry
        OpenMetrics-style trace-id exemplars where available; the
        default output is byte-identical to the pre-exemplar format.
        """
        return merged_prometheus(
            self.registries(), prefix=prefix, exemplars=exemplars
        )

    def metrics_snapshot(self) -> dict:
        """Per-shard metric snapshots plus the cluster-level registry."""
        return {
            label: registry.snapshot()
            for label, registry in self.registries().items()
        }
