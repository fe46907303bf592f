"""Self-healing for the sharded simulated plane.

A dead gateway shard would silently strand its keyspace; this module
supplies the pieces the sim-sharded plane's in-run failover
(:class:`repro.shard.sim._ShardFaultPlane`) survives it with:

* :class:`ShardHealthMonitor` — per-shard heartbeat bookkeeping with a
  miss-threshold and hysteresis, mirroring
  :class:`~repro.prediction.guarded.ForecastHealthMonitor`'s
  consecutive-evaluation state machine so declarations never flap on a
  single late beat.
* :func:`assign_takeover` — deterministic split of a dead shard's
  recovered jobs across the survivors using the *remapped* ring, so
  the plane and the property tests agree on who owns what.

Failover never invents or loses work: the dead shard's journal is
replayed through :func:`repro.serve.recovery.build_recovery_plan`, and
each recovered job is requeued under its **original** id, keeping
``completed + failed + shed == admitted`` across the whole plane.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.obs.registry import MetricsRegistry
from repro.serve.recovery import JournaledJob
from repro.shard.ring import ConsistentHashRing

__all__ = [
    "ShardHealthMonitor",
    "assign_takeover",
]


class ShardHealthMonitor:
    """Declare shards dead (and recovered) from heartbeat gaps.

    Each :meth:`observe` scores every tracked shard: a shard whose last
    beat is ``miss_threshold`` heartbeat intervals in the past counts
    as a *bad* evaluation.  State only flips after ``hysteresis``
    consecutive agreeing evaluations — the same damping
    :class:`~repro.prediction.guarded.ForecastHealthMonitor` applies
    to forecast health, so one GC pause or late fsync never triggers a
    keyspace takeover.
    """

    def __init__(
        self,
        shard_ids: Sequence[int],
        interval_ms: float,
        miss_threshold: int = 3,
        hysteresis: int = 2,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not shard_ids:
            raise ValueError("monitor needs at least one shard")
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        if hysteresis < 1:
            raise ValueError("hysteresis must be >= 1")
        self.interval_ms = interval_ms
        self.miss_threshold = miss_threshold
        self.hysteresis = hysteresis
        self.registry = registry or MetricsRegistry()
        self._last_beat: Dict[int, float] = {s: 0.0 for s in shard_ids}
        self._consecutive_bad: Dict[int, int] = {s: 0 for s in shard_ids}
        self._consecutive_good: Dict[int, int] = {s: 0 for s in shard_ids}
        self._dead: Set[int] = set()
        self._c_misses = self.registry.counter("shard_heartbeat_misses_total")
        self._c_failovers = self.registry.counter("shard_failovers_total")
        self._c_recoveries = self.registry.counter("shard_recoveries_total")

    @property
    def dead(self) -> Set[int]:
        """Shards currently declared dead."""
        return set(self._dead)

    @property
    def shard_ids(self) -> List[int]:
        return sorted(self._last_beat)

    def record_heartbeat(self, shard_id: int, now_ms: float) -> None:
        if shard_id not in self._last_beat:
            raise KeyError(f"unknown shard {shard_id}")
        if now_ms > self._last_beat[shard_id]:
            self._last_beat[shard_id] = now_ms

    def missed_beats(self, shard_id: int, now_ms: float) -> float:
        """Heartbeat intervals elapsed since the shard's last beat."""
        return max(0.0, now_ms - self._last_beat[shard_id]) / self.interval_ms

    def observe(self, now_ms: float) -> Dict[str, List[int]]:
        """Score every shard once; return who just died / recovered."""
        newly_dead: List[int] = []
        newly_recovered: List[int] = []
        for shard_id in sorted(self._last_beat):
            bad = self.missed_beats(shard_id, now_ms) >= self.miss_threshold
            if bad:
                self._c_misses.inc()
                self._consecutive_bad[shard_id] += 1
                self._consecutive_good[shard_id] = 0
            else:
                self._consecutive_good[shard_id] += 1
                self._consecutive_bad[shard_id] = 0
            declared = shard_id in self._dead
            if (not declared
                    and self._consecutive_bad[shard_id] >= self.hysteresis):
                self._dead.add(shard_id)
                self._c_failovers.inc()
                newly_dead.append(shard_id)
                self._consecutive_bad[shard_id] = 0
                self._consecutive_good[shard_id] = 0
            elif (declared
                    and self._consecutive_good[shard_id] >= self.hysteresis):
                self._dead.discard(shard_id)
                self._c_recoveries.inc()
                newly_recovered.append(shard_id)
                self._consecutive_bad[shard_id] = 0
                self._consecutive_good[shard_id] = 0
        return {"dead": newly_dead, "recovered": newly_recovered}


def assign_takeover(
    entries: Iterable[JournaledJob],
    ring: ConsistentHashRing,
    key: Callable[[JournaledJob], int] = attrgetter("job_id"),
) -> Dict[int, List[JournaledJob]]:
    """Split a dead shard's recovered jobs across the remapped ring.

    Deterministic: each entry goes to ``ring.shard_for(key(entry))`` on
    the *post-removal* ring — its job id, or the sim plane's request id
    (its shards share one job-id counter) — so every participant
    derives the identical exactly-once assignment.
    """
    assignment: Dict[int, List[JournaledJob]] = {}
    for entry in entries:
        owner = ring.shard_for(key(entry))
        assignment.setdefault(owner, []).append(entry)
    return assignment
