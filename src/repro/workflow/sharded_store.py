"""Sharded state store — the section 8 scalability mitigation.

"All decisions related to container scaling, scheduling and
load-prediction are reliant on the centralized database which can
become a potential bottleneck in terms of scalability ... This can be
mitigated by using fast distributed solutions like Redis."

:class:`ShardedStateStore` keeps the :class:`StateStore` interface but
hash-partitions documents over N shards with per-shard latency
accounting, modelling the Redis-style horizontal path: single-key
operations touch one shard (lower latency, parallel capacity), whereas
``find`` scatter-gathers across all shards (the price of losing the
central view).
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional

from repro.workflow.statestore import StateStore

#: A lean in-memory KV shard answers faster than the mongod of the
#: prototype (the paper cites Redis as the faster alternative).
DEFAULT_SHARD_ACCESS_MEAN_MS = 0.15


class ShardedStateStore:
    """Hash-partitioned document store with the StateStore interface."""

    def __init__(
        self,
        n_shards: int = 4,
        access_mean_ms: float = DEFAULT_SHARD_ACCESS_MEAN_MS,
        seed: int = 0,
    ) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = n_shards
        self.shards: List[StateStore] = [
            StateStore(access_mean_ms=access_mean_ms, seed=seed + i)
            for i in range(n_shards)
        ]

    def _shard_for(self, key: Any) -> StateStore:
        # CRC32, not ``hash()``: Python salts string hashes per process,
        # and placement must be a pure function of the key.
        return self.shards[zlib.crc32(str(key).encode()) % self.n_shards]

    # -- single-key operations: one shard each ---------------------------

    def insert(self, collection: str, key: Any, doc: Dict[str, Any]) -> float:
        return self._shard_for(key).insert(collection, key, doc)

    def update(self, collection: str, key: Any, fields: Dict[str, Any]) -> float:
        return self._shard_for(key).update(collection, key, fields)

    def delete(self, collection: str, key: Any) -> float:
        return self._shard_for(key).delete(collection, key)

    def get(self, collection: str, key: Any) -> Optional[Dict[str, Any]]:
        return self._shard_for(key).get(collection, key)

    # -- scatter-gather operations ----------------------------------------

    def find(self, collection: str, **criteria: Any) -> List[Dict[str, Any]]:
        """Query every shard and merge (the distributed-view cost)."""
        out: List[Dict[str, Any]] = []
        for shard in self.shards:
            out.extend(shard.find(collection, **criteria))
        return out

    def count(self, collection: str) -> int:
        return sum(shard.count(collection) for shard in self.shards)

    # -- accounting -----------------------------------------------------------

    @property
    def reads(self) -> int:
        return sum(s.reads for s in self.shards)

    @property
    def writes(self) -> int:
        return sum(s.writes for s in self.shards)

    @property
    def mean_access_latency_ms(self) -> float:
        total_ops = self.reads + self.writes
        if total_ops == 0:
            return 0.0
        total_latency = 0.0
        for s in self.shards:  # left to right: sum() compensates on 3.12+
            total_latency += s.total_latency_ms
        return total_latency / total_ops

    def max_shard_load(self) -> int:
        """Operations on the hottest shard (balance diagnostics)."""
        return max(s.reads + s.writes for s in self.shards)

    def load_imbalance(self) -> float:
        """Hottest-shard ops over the perfectly balanced share (>= 1)."""
        total = self.reads + self.writes
        if total == 0:
            return 1.0
        return self.max_shard_load() / (total / self.n_shards)
