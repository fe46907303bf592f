"""Centralised state store (the prototype's MongoDB analogue).

The paper keeps job statistics (creationTime, completionTime,
scheduleTime, ...) and container metrics (lastUsedTime, batch size, ...)
in a MongoDB instance on the head node, queried by the worker pods and
the load balancer; it reports the average read/write latency at well
under 1.25 ms (section 6.1.5).

This in-process store reproduces the interface and the latency
accounting: every access draws from a latency distribution and is
tallied, so the overheads micro-benchmark can report the same number
the paper does.  Being centralised, it also exposes the total access
count — the paper's stated scalability bottleneck (section 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

#: Mean access latency; the paper reports "well within 1.25 ms".
DEFAULT_ACCESS_MEAN_MS = 0.6
DEFAULT_ACCESS_SIGMA = 0.4
#: Access latencies drawn per refill of the store's buffer.
_DRAW_CHUNK = 1024


@dataclass
class StateStore:
    """A tiny document store with latency accounting.

    Documents live in named collections keyed by a caller-chosen id.
    """

    access_mean_ms: float = DEFAULT_ACCESS_MEAN_MS
    access_sigma: float = DEFAULT_ACCESS_SIGMA
    seed: int = 0
    _collections: Dict[str, Dict[Any, Dict[str, Any]]] = field(default_factory=dict)
    reads: int = 0
    writes: int = 0
    total_latency_ms: float = 0.0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._draws: List[float] = []
        self._next_draw = _DRAW_CHUNK

    def _access(self) -> float:
        # The store's private lognormal stream, drawn a chunk at a time:
        # numpy fills the array draw by draw, so every latency is the
        # one a scalar draw per access would give.
        i = self._next_draw
        if i == _DRAW_CHUNK:
            self._draws = self._rng.lognormal(
                np.log(self.access_mean_ms), self.access_sigma,
                _DRAW_CHUNK).tolist()
            i = 0
        self._next_draw = i + 1
        latency = self._draws[i]
        self.total_latency_ms += latency
        return latency

    def collection(self, name: str) -> Dict[Any, Dict[str, Any]]:
        return self._collections.setdefault(name, {})

    def insert(self, collection: str, key: Any, doc: Dict[str, Any]) -> float:
        """Insert/replace a document; returns the simulated latency."""
        self.writes += 1
        self.collection(collection)[key] = dict(doc)
        return self._access()

    def update(self, collection: str, key: Any, fields: Dict[str, Any]) -> float:
        """Merge *fields* into an existing document (upsert)."""
        self.writes += 1
        self.collection(collection).setdefault(key, {}).update(fields)
        return self._access()

    def delete(self, collection: str, key: Any) -> float:
        """Remove a document if present; returns the simulated latency."""
        self.writes += 1
        self.collection(collection).pop(key, None)
        return self._access()

    def get(self, collection: str, key: Any) -> Optional[Dict[str, Any]]:
        self.reads += 1
        self._access()
        doc = self.collection(collection).get(key)
        return dict(doc) if doc is not None else None

    def find(self, collection: str, **criteria: Any) -> List[Dict[str, Any]]:
        """All documents whose fields match *criteria* exactly."""
        self.reads += 1
        self._access()
        out = []
        for doc in self.collection(collection).values():
            if all(doc.get(k) == v for k, v in criteria.items()):
                out.append(dict(doc))
        return out

    def count(self, collection: str) -> int:
        return len(self.collection(collection))

    @property
    def mean_access_latency_ms(self) -> float:
        total = self.reads + self.writes
        return self.total_latency_ms / total if total else 0.0

    # -- durability --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serialisable copy of every collection plus the access
        tallies, for control-plane checkpoints.  Document keys are
        stringified (JSON object keys are strings); :meth:`restore`
        keeps them as strings, which is fine for recovery consumers —
        they only read whole collections back."""
        return {
            "collections": {
                name: {str(key): dict(doc) for key, doc in docs.items()}
                for name, docs in self._collections.items()
            },
            "reads": self.reads,
            "writes": self.writes,
            "total_latency_ms": self.total_latency_ms,
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Replace this store's contents with a :meth:`snapshot`."""
        self._collections = {
            name: {key: dict(doc) for key, doc in docs.items()}
            for name, docs in state.get("collections", {}).items()
        }
        self.reads = int(state.get("reads", 0))
        self.writes = int(state.get("writes", 0))
        self.total_latency_ms = float(state.get("total_latency_ms", 0.0))
