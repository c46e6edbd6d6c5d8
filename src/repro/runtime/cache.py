"""Bounded LRU caches keyed by scene fingerprints.

The allocation-serving engine sees the same scenes over and over: a
mobility trace revisits quantized positions, a sweep re-evaluates one
placement under many budgets, and concurrent users cluster around the
same few spots.  :class:`LRUCache` is the generic bounded store (with
hit/miss/eviction accounting); :class:`ChannelCache` specializes it for
LOS channel matrices keyed by :meth:`repro.system.Scene.fingerprint`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, Optional

import numpy as np

from ..analysis.lockgraph import monitored_lock
from ..errors import ConfigurationError
from ..tracecontext import add_span_attributes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..system import Scene

_MISSING = object()


def _freeze_arrays(value: Any) -> Any:
    """Mark cached ndarrays read-only so shared hits cannot be mutated.

    Cached values are handed out by reference to every hit; a consumer
    writing into one would silently corrupt every other consumer's view.
    Freezing turns that bug into an immediate ``ValueError`` at the
    mutation site.  Consumers that need a private copy (incremental
    column updates) already copy before writing.
    """
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    return value


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Threads that blocked on another thread's in-flight computation
    #: (single-flight coalescing) instead of running the factory.
    single_flight_waits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "single_flight_waits": self.single_flight_waits,
            "hit_rate": self.hit_rate,
        }

    def copy(self) -> "CacheStats":
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            single_flight_waits=self.single_flight_waits,
        )


class LRUCache:
    """A bounded, thread-safe least-recently-used cache."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = monitored_lock("cache.lru")
        # Per-key construction locks for single-flight get_or_create.
        self._inflight: Dict[Hashable, Any] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value (refreshing its recency) or *default*."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """The cached value without touching recency or hit/miss stats.

        Used by opportunistic consumers (e.g. the incremental-channel
        path reading a neighbor placement's matrix) that should not
        distort the cache's accounting.
        """
        with self._lock:
            value = self._entries.get(key, _MISSING)
            return default if value is _MISSING else value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh a value, evicting the oldest entry when full."""
        value = _freeze_arrays(value)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def _lookup(self, key: Hashable) -> Any:
        """One locked hit-or-miss probe (returns ``_MISSING`` on a miss)."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.stats.misses += 1
            else:
                self._entries.move_to_end(key)
                self.stats.hits += 1
            return value

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """The cached value, computing and storing it on a miss.

        Single-flight: concurrent misses on the same key run *factory*
        exactly once -- the first thread computes under a per-key lock
        while the others block on it, then re-probe the cache and count
        a hit.  Without this, two threads missing concurrently would
        both build the (expensive) value and both count a miss.
        """
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return value
            flight = self._inflight.get(key)
            if flight is None:
                # expected_slow: this lock is *meant* to be held across
                # the expensive factory call so same-key waiters
                # coalesce; the race detector keeps its ordering edges
                # but does not treat blocking under it as a violation.
                flight = self._inflight[key] = monitored_lock(
                    "cache.inflight", expected_slow=True
                )
        with flight:
            value = self._lookup(key)
            if value is not _MISSING:
                # Another thread computed the value while we waited on
                # its construction lock; surface the coalesced wait in
                # the stats and on the active span (if any).
                with self._lock:
                    self.stats.single_flight_waits += 1
                add_span_attributes(cache_single_flight_wait=True)
                return value
            try:
                value = factory()
                self.put(key, value)
            finally:
                with self._lock:
                    self._inflight.pop(key, None)
        return value

    def snapshot(self) -> dict:
        """Size, occupancy and hit/miss stats from one locked read.

        ``stats.as_dict()`` reads the counters field-by-field without
        the cache lock, so a concurrent reader polling while a request
        is being served can observe a hit already counted whose lookup
        is not -- a torn pair.  Every stats mutation happens under
        ``_lock``, so copying under it yields one consistent instant;
        the derived ``hit_rate``/``occupancy`` are computed from the
        copy, outside the lock (rule R2).
        """
        with self._lock:
            size = len(self._entries)
            stats = self.stats.copy()
        summary = stats.as_dict()
        summary["size"] = size
        summary["capacity"] = self.capacity
        summary["occupancy"] = size / self.capacity
        return summary

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class ChannelCache:
    """LOS channel matrices keyed by quantized scene fingerprint.

    Cached matrices are shared, not copied; callers must treat them as
    read-only (``AllocationProblem`` already does).
    """

    def __init__(self, capacity: int = 256, quantum: Optional[float] = None) -> None:
        from ..system import FINGERPRINT_QUANTUM

        self.quantum = quantum if quantum is not None else FINGERPRINT_QUANTUM
        self._cache = LRUCache(capacity)

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def __len__(self) -> int:
        return len(self._cache)

    def matrix_for(self, scene: "Scene") -> np.ndarray:
        """The scene's channel matrix, computed at most once per fingerprint."""
        from ..channel import channel_matrix

        key = scene.fingerprint(self.quantum)
        return self._cache.get_or_create(key, lambda: channel_matrix(scene))

    def get(self, key: Hashable) -> Optional[np.ndarray]:
        return self._cache.get(key)

    def put(self, key: Hashable, matrix: np.ndarray) -> None:
        self._cache.put(key, matrix)

    def clear(self) -> None:
        self._cache.clear()
