"""Consistent-hash ring over the request-id keyspace.

The ring maps every request id to one gateway shard.  Two hard
requirements drive the implementation:

* **Process stability.**  Shard ownership must agree across forked and
  spawned workers and across interpreter restarts, so nothing here may
  depend on ``PYTHONHASHSEED``.  Virtual-node positions come from MD5
  over a deterministic label; integer request ids are mixed with the
  SplitMix64 finalizer — both are pure functions of their input.
* **Vector-path speed.**  The sharded sim partitions whole arrival
  epochs at once, so key→shard must be expressible as numpy ufuncs:
  :meth:`ConsistentHashRing.shard_for_array` is a uint64 SplitMix64 mix
  followed by one ``np.searchsorted`` over the sorted vnode positions.

Each shard contributes ``vnodes`` points (default 64) placed at
``md5(f"{salt}/{shard_id}/{vnode}")``; a key is owned by the first
vnode clockwise from its hashed position.  Because a vnode's position
depends only on ``(salt, shard_id, vnode)``, adding or removing a shard
moves only the keys whose owning arcs changed hands — the classic
minimal-movement property.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Union

import numpy as np

DEFAULT_VNODES = 64
DEFAULT_SALT = "repro-shard"

_U64_MASK = 0xFFFFFFFFFFFFFFFF
_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_MUL1 = 0xBF58476D1CE4E5B9
_SM64_MUL2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer: a seed-free 64-bit integer mix."""
    z = (x + _SM64_GAMMA) & _U64_MASK
    z = ((z ^ (z >> 30)) * _SM64_MUL1) & _U64_MASK
    z = ((z ^ (z >> 27)) * _SM64_MUL2) & _U64_MASK
    return z ^ (z >> 31)


def splitmix64_array(keys: np.ndarray) -> np.ndarray:
    """Vectorized :func:`splitmix64` over a uint64 array."""
    z = keys.astype(np.uint64, copy=True)
    z += np.uint64(_SM64_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_SM64_MUL1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM64_MUL2)
    return z ^ (z >> np.uint64(31))


def _hash_label(label: str) -> int:
    """First 8 MD5 bytes of *label* as a big-endian uint64."""
    return int.from_bytes(
        hashlib.md5(label.encode("utf-8")).digest()[:8], "big"
    )


def hash_key(key: Union[int, str]) -> int:
    """Ring position of a request key, ``PYTHONHASHSEED``-independent.

    Integer ids (the common case: job indices) go through SplitMix64 so
    the vectorized path can reproduce the mapping with numpy ufuncs;
    string keys fall back to MD5.
    """
    if isinstance(key, (bool, np.bool_)):
        raise TypeError("booleans are not valid request keys")
    if isinstance(key, (int, np.integer)):
        return splitmix64(int(key) & _U64_MASK)
    if isinstance(key, str):
        return _hash_label(key)
    raise TypeError(f"unhashable request key type: {type(key).__name__}")


class ConsistentHashRing:
    """Immutable consistent-hash ring over integer shard ids."""

    def __init__(
        self,
        n_shards: int,
        vnodes: int = DEFAULT_VNODES,
        salt: str = DEFAULT_SALT,
        shard_ids: Sequence[int] = None,
    ) -> None:
        if shard_ids is None:
            if n_shards < 1:
                raise ValueError("n_shards must be >= 1")
            shard_ids = range(n_shards)
        ids = sorted(int(s) for s in shard_ids)
        if not ids:
            raise ValueError("ring needs at least one shard")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate shard ids: {ids}")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = int(vnodes)
        self.salt = salt
        self._ids: List[int] = ids

        positions: List[int] = []
        owners: List[int] = []
        for shard in ids:
            for v in range(self.vnodes):
                positions.append(_hash_label(f"{salt}/{shard}/{v}"))
                owners.append(shard)
        pos = np.asarray(positions, dtype=np.uint64)
        own = np.asarray(owners, dtype=np.int64)
        order = np.argsort(pos, kind="stable")
        pos, own = pos[order], own[order]
        if np.unique(pos).size != pos.size:  # pragma: no cover - ~2^-45
            raise ValueError(
                "vnode position collision; choose a different salt"
            )
        self._positions = pos
        self._owners = own

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._ids)

    @property
    def shard_ids(self) -> List[int]:
        return list(self._ids)

    def shard_for(self, key: Union[int, str]) -> int:
        """Owning shard id for *key*."""
        point = hash_key(key)
        idx = int(np.searchsorted(self._positions, point, side="right"))
        if idx == self._positions.size:
            idx = 0
        return int(self._owners[idx])

    def shard_for_array(self, keys: np.ndarray) -> np.ndarray:
        """Owning shard id per key, vectorized over integer ids.

        Bit-identical to calling :meth:`shard_for` element-wise on the
        same integer keys, at numpy speed.
        """
        points = splitmix64_array(np.asarray(keys))
        idx = np.searchsorted(self._positions, points, side="right")
        idx[idx == self._positions.size] = 0
        return self._owners[idx]

    # ------------------------------------------------------------------
    # membership changes (return new rings; positions of surviving
    # shards never move, which is what bounds key movement)
    # ------------------------------------------------------------------
    def with_shard_added(self, shard_id: int) -> "ConsistentHashRing":
        if shard_id in self._ids:
            raise ValueError(f"shard {shard_id} already in ring")
        return ConsistentHashRing(
            0, self.vnodes, self.salt, shard_ids=self._ids + [int(shard_id)]
        )

    def with_shard_removed(self, shard_id: int) -> "ConsistentHashRing":
        if shard_id not in self._ids:
            raise ValueError(f"shard {shard_id} not in ring")
        if len(self._ids) == 1:
            raise ValueError("cannot remove the last shard")
        return ConsistentHashRing(
            0, self.vnodes, self.salt,
            shard_ids=[s for s in self._ids if s != shard_id],
        )

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def arc_fractions(self) -> Dict[int, float]:
        """Exact keyspace share owned by each shard (sums to 1.0).

        Computed from vnode arc lengths, not sampling, so the balance
        property (±20% of fair share at 64 vnodes) is a deterministic
        fact of the ``(salt, shard set)`` pair.
        """
        pos = self._positions.astype(np.float64)
        # Arc ending at vnode i is owned by vnode i (keys map to the
        # first vnode at-or-after their position via side="right").
        arcs = np.empty_like(pos)
        arcs[1:] = np.diff(pos)
        arcs[0] = pos[0] + (float(2 ** 64) - pos[-1])
        total = float(2 ** 64)
        shares: Dict[int, float] = {s: 0.0 for s in self._ids}
        for owner, arc in zip(self._owners, arcs):
            shares[int(owner)] += arc / total
        return shares

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ConsistentHashRing shards={self._ids} "
            f"vnodes={self.vnodes}>"
        )
