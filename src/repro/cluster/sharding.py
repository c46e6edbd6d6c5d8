"""Consistent-hash sharding of scene fingerprints onto service shards.

One :class:`~repro.runtime.service.AllocationService` serves one room's
worth of traffic; a deployment serves thousands of rooms.  The cluster
layer splits the fingerprint space across N shards with a classic
consistent-hash ring:

- every shard owns ``replicas`` pseudo-random ring positions (virtual
  nodes), so load spreads evenly even with few shards;
- a key routes to the first shard token at or after its own ring
  position (clockwise);
- adding or removing a shard only remaps the keys in the arcs that
  shard gains or loses -- every other key keeps its shard, which is
  what keeps per-shard caches warm through a rebalance;
- routing is a pure function of ``(seed, shard ids, key)``: positions
  come from blake2b hashes, never a RNG, so the same fingerprint maps
  to the same shard in every process and every run.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort
from typing import List, Sequence, Tuple

from ..errors import ClusterError

__all__ = ["ConsistentHashRing"]


def _ring_position(seed: int, label: str) -> int:
    """A deterministic 64-bit ring position for *label*."""
    digest = hashlib.blake2b(
        f"{seed}:{label}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashRing:
    """A deterministic consistent-hash ring over shard identifiers."""

    def __init__(
        self,
        shard_ids: Sequence[str] = (),
        replicas: int = 64,
        seed: int = 0,
    ) -> None:
        if replicas < 1:
            raise ClusterError(f"replicas must be >= 1, got {replicas}")
        self.replicas = int(replicas)
        self.seed = int(seed)
        #: Sorted (position, shard id) tokens; bisect finds successors.
        self._tokens: List[Tuple[int, str]] = []
        self._shards: List[str] = []
        for shard_id in shard_ids:
            self.add_shard(shard_id)

    # -- membership -----------------------------------------------------

    @property
    def shard_ids(self) -> Tuple[str, ...]:
        """Member shards in insertion order."""
        return tuple(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._shards

    def add_shard(self, shard_id: str) -> None:
        """Insert a shard's tokens (only its new arcs change owners)."""
        if not shard_id:
            raise ClusterError("shard id must be non-empty")
        if shard_id in self._shards:
            raise ClusterError(f"shard {shard_id!r} is already in the ring")
        for replica in range(self.replicas):
            position = _ring_position(self.seed, f"{shard_id}:{replica}")
            insort(self._tokens, (position, shard_id))
        self._shards.append(shard_id)

    def remove_shard(self, shard_id: str) -> None:
        """Drop a shard's tokens (only its arcs change owners)."""
        if shard_id not in self._shards:
            raise ClusterError(f"shard {shard_id!r} is not in the ring")
        self._tokens = [
            token for token in self._tokens if token[1] != shard_id
        ]
        self._shards.remove(shard_id)

    # -- routing --------------------------------------------------------

    def key_position(self, key: str) -> int:
        """The deterministic ring position of a routing key."""
        return _ring_position(self.seed, f"key:{key}")

    def route(self, key: str) -> str:
        """The shard owning *key*: the first token clockwise of it.

        An empty ring has nowhere to route, which is a hard error.
        """
        if not self._tokens:
            raise ClusterError("cannot route on an empty ring")
        position = self.key_position(key)
        # Successor token: strictly after every token at `position`
        # (shard ids sort below the ￿ sentinel).
        index = bisect_right(self._tokens, (position, "￿"))
        return self._tokens[index % len(self._tokens)][1]

    def assignment(self, keys: Sequence[str]) -> dict:
        """``{key: shard}`` for a batch of keys (testing/inspection)."""
        return {key: self.route(key) for key in keys}
