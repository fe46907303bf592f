"""Self-healing for the sharded serving plane.

A dead gateway shard today silently strands its keyspace; this module
supplies the pieces both planes (sim and live) share to survive it:

* :class:`ShardHealthMonitor` — per-shard heartbeat bookkeeping with a
  miss-threshold and hysteresis, mirroring
  :class:`~repro.prediction.guarded.ForecastHealthMonitor`'s
  consecutive-evaluation state machine so declarations never flap on a
  single late beat.
* :class:`EpochLease` — a fenced lease file for the orchestrator
  itself: a warm standby may only take over once the primary's lease
  is stale *or* its pid is gone, and every takeover bumps the epoch
  so a resurrected primary's renewals are fenced off.
* :class:`OrchestratorSupervisor` — primary/standby pair driving the
  lease; on failover the standby re-derives shard pressure from the
  sharded :class:`~repro.workflow.sharded_store.ShardedStateStore`
  (the same channel the reports were published through).
* :func:`assign_takeover` — deterministic split of a dead shard's
  recovered jobs across the survivors using the *remapped* ring, so
  sim, live, and the property tests all agree on who owns what.

Failover never invents or loses work: the dead shard's journal is
replayed through :func:`repro.serve.recovery.build_recovery_plan`, and
each recovered job is requeued under its **original** id, keeping
``completed + failed + shed == admitted`` across the whole plane.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.obs.export import atomic_write_text
from repro.obs.registry import MetricsRegistry
from repro.serve.journal import pid_alive
from repro.serve.recovery import JournaledJob
from repro.shard.ring import ConsistentHashRing

__all__ = [
    "ShardHealthMonitor",
    "EpochLease",
    "OrchestratorSupervisor",
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


class EpochLease:
    """Fenced orchestrator lease: a JSON file with a monotonic epoch.

    The holder renews by rewriting the file (atomic tmp + replace).  A
    contender acquires when the current holder is *stale* (no renewal
    within ``ttl_ms``) **or** its pid is gone — only a holder that is
    both fresh and alive is never pre-empted.  Every acquisition bumps
    the epoch; a holder whose on-disk epoch moved on
    learns it is fenced at its next :meth:`renew` and must stop acting.
    """

    def __init__(
        self,
        path: str,
        ttl_ms: float = 10_000.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if ttl_ms <= 0:
            raise ValueError("ttl_ms must be positive")
        self.path = str(path)
        self.ttl_ms = ttl_ms
        self.registry = registry or MetricsRegistry()
        self.epoch = 0          # epoch we hold (0 = never acquired)
        self._g_epoch = self.registry.gauge("orchestrator_lease_epoch")
        self._c_fenced = self.registry.counter(
            "orchestrator_fenced_renewals_total")

    # ------------------------------------------------------------------
    def _read(self) -> Optional[Dict]:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            return doc if isinstance(doc, dict) else None
        except (OSError, ValueError):
            return None

    def _write(self, doc: Dict) -> None:
        # A liveness hint, renewed every reconcile: no fsync.
        atomic_write_text(self.path, json.dumps(doc), fsync=False)

    # ------------------------------------------------------------------
    def holder(self) -> Optional[Dict]:
        """The current on-disk lease document (None when absent)."""
        return self._read()

    def acquire(self, now_ms: float) -> bool:
        """Try to take the lease; True on success (epoch bumped)."""
        doc = self._read()
        if doc is not None:
            try:
                holder_pid = int(doc.get("pid", -1))
                holder_t = float(doc.get("t_ms", 0.0))
                holder_epoch = int(doc.get("epoch", 0))
            except (TypeError, ValueError):
                holder_pid, holder_t, holder_epoch = -1, 0.0, 0
            fresh = (now_ms - holder_t) < self.ttl_ms
            if holder_pid != os.getpid() and fresh \
                    and pid_alive(holder_pid):
                return False
        else:
            holder_epoch = 0
        self.epoch = holder_epoch + 1
        self._write({
            "epoch": self.epoch,
            "pid": os.getpid(),
            "t_ms": float(now_ms),
        })
        self._g_epoch.set(float(self.epoch))
        return True

    def renew(self, now_ms: float) -> bool:
        """Refresh the lease; False (and no write) when fenced."""
        doc = self._read()
        if doc is None or int(doc.get("epoch", 0)) != self.epoch \
                or self.epoch == 0:
            self._c_fenced.inc()
            return False
        self._write({
            "epoch": self.epoch,
            "pid": os.getpid(),
            "t_ms": float(now_ms),
        })
        return True


class OrchestratorSupervisor:
    """Primary/standby orchestrator pair with epoch fencing.

    Delegates each :meth:`reconcile` to the active orchestrator.  When
    the primary is scripted to fail (``fail_primary_at_ms``, the sim's
    chaos hook) or stops renewing a file lease, the standby takes
    over: it restores pressure state from the sharded store (the
    reports the primary already published) and bumps the epoch so the
    old primary's late writes are fenced.
    """

    def __init__(
        self,
        primary,
        standby=None,
        lease: Optional[EpochLease] = None,
        fail_primary_at_ms: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.primary = primary
        self.standby = standby
        self.lease = lease
        self.fail_primary_at_ms = fail_primary_at_ms
        self.registry = registry or MetricsRegistry()
        self.active = primary
        self._epoch = 1   # in-memory fencing when no lease file is used
        self._c_failovers = self.registry.counter(
            "orchestrator_failovers_total")
        if lease is not None:
            lease.acquire(0.0)

    @property
    def failed_over(self) -> bool:
        return self.active is not self.primary

    def _primary_dead(self, now_ms: float) -> bool:
        return (self.fail_primary_at_ms is not None
                and now_ms >= self.fail_primary_at_ms)

    def reconcile(self, now_ms: float) -> Dict[str, float]:
        if (self.standby is not None and not self.failed_over
                and self._primary_dead(now_ms)):
            self.active = self.standby
            self._epoch += 1
            if self.lease is not None:
                self.lease.acquire(now_ms)
            restore = getattr(self.standby, "restore_from_store", None)
            if restore is not None:
                restore()
            self._c_failovers.inc()
        elif self.lease is not None and not self.failed_over:
            self.lease.renew(now_ms)
        return self.active.reconcile(now_ms)


def assign_takeover(
    entries: Iterable[JournaledJob],
    ring: ConsistentHashRing,
) -> Dict[int, List[JournaledJob]]:
    """Split a dead shard's recovered jobs across the remapped ring.

    Deterministic: each entry goes to ``ring.shard_for(job_id)`` on the
    *post-removal* ring, so every participant (sim plane, live plane,
    property tests) derives the identical exactly-once assignment.
    """
    assignment: Dict[int, List[JournaledJob]] = {}
    for entry in entries:
        owner = ring.shard_for(entry.job_id)
        assignment.setdefault(owner, []).append(entry)
    return assignment
