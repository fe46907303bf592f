"""Global orchestrator reconciling per-shard scalers every tick.

Each shard runs today's (guarded) scaling policy against shard-local
load only; blind per-shard scaling leaves the plane one flash crowd
away from a hot shard starving while its neighbours idle ("Optimizing
simultaneous autoscaling", PAPERS.md).  The orchestrator closes that
loop, following the ServerlessContainers split (Orchestrator vs
per-scope Guardians/Rescalers backed by a StateDatabase):

1. every reconcile tick each shard *publishes* a load report into the
   existing :class:`~repro.workflow.sharded_store.ShardedStateStore`
   (``shard_reports`` collection) — the store is the only channel, so
   its latency/imbalance accounting prices the coordination traffic;
2. the orchestrator *reads back* the reports, computes per-node load
   pressure, and on skew moves node grants from the coldest shard to
   the hottest (bounded moves per tick, never below a floor), a
   cordon/uncordon of whole nodes rather than container micro-moves so
   surrendered capacity drains gracefully;
3. when a global :class:`~repro.core.scaling.SpawnGovernor` surge
   budget is configured, it is re-apportioned to the shards in
   proportion to their pressure, so the sum of per-shard surges can
   never exceed the single-gateway budget.

The orchestrator never touches request routing: the consistent-hash
ring stays fixed while capacity follows load underneath it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Dict, List, Optional, Sequence

from repro.obs.registry import MetricsRegistry
from repro.workflow.sharded_store import ShardedStateStore

REPORT_COLLECTION = "shard_reports"

#: Donor/receiver pressure ratio above which a node grant moves.
DEFAULT_SKEW_THRESHOLD = 2.0
#: Node-grant moves allowed per reconcile tick (rebalance damping).
MAX_MOVES_PER_TICK = 1
#: No shard's grant ever drops below this many nodes.
MIN_NODES_PER_SHARD = 1


@dataclass
class ShardLoadReport:
    """One shard's view of itself, published through the state store."""

    shard_id: int
    now_ms: float
    inflight: int          # queued + executing jobs on the shard
    warm_containers: int   # provisioned containers (busy or idle)
    nodes_granted: int     # uncordoned nodes the shard may place on

    @property
    def pressure(self) -> float:
        """In-flight load per granted node — the rebalance signal."""
        return self.inflight / max(1, self.nodes_granted)


class ShardHandle:
    """Orchestrator-facing adapter one shard must implement.

    The sim-sharded plane wraps its shard systems in this interface
    (its process fan-out builds no orchestrator), so the
    orchestrator stays engine-agnostic and unit-testable against stubs.
    """

    shard_id: int = 0

    def load_report(self, now_ms: float) -> ShardLoadReport:
        raise NotImplementedError

    def surrender_node(self, now_ms: float) -> bool:
        """Cordon one granted node (False when at the floor/none idle)."""
        raise NotImplementedError

    def grant_node(self, now_ms: float) -> bool:
        """Uncordon one previously surrendered node (False if none)."""
        raise NotImplementedError

    def set_surge_budget(self, max_surge: int) -> None:
        """Per-tick spawn budget share (no-op when ungoverned)."""


def divide_surge_budget(total: int, pressures: Sequence[float]) -> List[int]:
    """Apportion *total* spawn slots proportionally to *pressures*.

    Largest-remainder method; the shares always sum to exactly
    ``total`` so the sharded plane can never out-spawn the equivalent
    single-gateway governor.  A zero-pressure fleet splits evenly.
    """
    n = len(pressures)
    if n == 0 or total <= 0:
        return [0] * n
    weight = sum(pressures)
    if weight <= 0:
        quotas = [total / n] * n
    else:
        quotas = [total * p / weight for p in pressures]
    shares = [int(math.floor(q)) for q in quotas]
    remainder = total - sum(shares)
    order = sorted(
        range(n), key=lambda i: (quotas[i] - shares[i], -pressures[i]),
        reverse=True,
    )
    for i in order[:remainder]:
        shares[i] += 1
    return shares


class GlobalOrchestrator:
    """Reconciles shard capacity through the sharded state store."""

    def __init__(
        self,
        shards: Sequence[ShardHandle],
        store: Optional[ShardedStateStore] = None,
        registry: Optional[MetricsRegistry] = None,
        skew_threshold: float = DEFAULT_SKEW_THRESHOLD,
        global_max_surge: int = 0,
    ) -> None:
        if not shards:
            raise ValueError("orchestrator needs at least one shard")
        if skew_threshold < 1.0:
            raise ValueError("skew_threshold must be >= 1.0")
        self.shards = list(shards)
        self.store = store or ShardedStateStore(
            n_shards=max(2, len(self.shards))
        )
        self.registry = registry or MetricsRegistry()
        self.skew_threshold = skew_threshold
        self.global_max_surge = global_max_surge
        self._c_ticks = self.registry.counter("orchestrator_ticks_total")
        self._c_rebalances = self.registry.counter(
            "orchestrator_rebalances_total")
        self._c_moves = self.registry.counter(
            "orchestrator_nodes_moved_total")
        self._c_tick_errors = self.registry.counter(
            "orchestrator_tick_errors_total")
        self._g_skew = self.registry.gauge("orchestrator_shard_skew")

    # ------------------------------------------------------------------
    def publish_reports(self, now_ms: float) -> List[ShardLoadReport]:
        """Collect every shard's report and write it through the store."""
        reports = []
        for shard in self.shards:
            report = shard.load_report(now_ms)
            self.store.update(
                REPORT_COLLECTION, f"shard-{report.shard_id}",
                asdict(report),
            )
            reports.append(report)
        return reports

    def _read_reports(self) -> List[ShardLoadReport]:
        docs = self.store.find(REPORT_COLLECTION)
        return sorted(
            (ShardLoadReport(**doc) for doc in docs),
            key=lambda r: r.shard_id,
        )

    def remove_shard(self, shard_id: int) -> None:
        """Drop a (dead) shard from reconciliation, report and all.

        Failover calls this once the health monitor declares a shard
        dead: the stale report is deleted from the store so a reconcile
        racing the takeover never rebalances toward a ghost.
        """
        self.shards = [s for s in self.shards if s.shard_id != shard_id]
        self.store.delete(REPORT_COLLECTION, f"shard-{shard_id}")

    def add_shard(self, handle: ShardHandle) -> None:
        """Re-admit a recovered shard into reconciliation."""
        if all(s.shard_id != handle.shard_id for s in self.shards):
            self.shards.append(handle)
            self.shards.sort(key=lambda s: s.shard_id)

    def reconcile(self, now_ms: float) -> Dict[str, float]:
        """One orchestration tick, fault-contained.

        A poisoned tick (a shard handle or store raising mid-reconcile)
        increments ``orchestrator_tick_errors_total`` and skips, rather
        than killing the control loop — the same containment the
        per-shard scalers get from ``scaling_tick_errors_total``.
        """
        try:
            return self._reconcile(now_ms)
        except Exception:
            self._c_tick_errors.inc()
            return {"now_ms": now_ms, "error": True}

    def _reconcile(self, now_ms: float) -> Dict[str, float]:
        """One orchestration tick: publish, read back, rebalance, budget.

        Returns a summary of what the tick did (for studies/tests).
        """
        self._c_ticks.inc()
        self.publish_reports(now_ms)
        handles = {s.shard_id: s for s in self.shards}
        # A dead shard's last report may still sit in the store between
        # its declaration and removal; never rebalance against a ghost.
        reports = [r for r in self._read_reports() if r.shard_id in handles]
        by_id = {r.shard_id: r for r in reports}

        pressures = [r.pressure for r in reports]
        max_p, min_p = max(pressures), min(pressures)
        skew = max_p / min_p if min_p > 0 else (math.inf if max_p > 0 else 1.0)
        self._g_skew.set(min(skew, 1e9))

        moved = 0
        if len(reports) > 1 and skew > self.skew_threshold:
            # Hottest-first receivers, coldest-first donors.
            order = sorted(reports, key=lambda r: r.pressure)
            donors = [r for r in order
                      if r.nodes_granted > MIN_NODES_PER_SHARD]
            receivers = list(reversed(order))
            for _ in range(MAX_MOVES_PER_TICK):
                if not donors:
                    break
                donor, receiver = donors[0], receivers[0]
                if donor.shard_id == receiver.shard_id:
                    break
                if donor.pressure * self.skew_threshold >= receiver.pressure:
                    break  # residual skew no longer worth a move
                if not handles[donor.shard_id].surrender_node(now_ms):
                    donors.pop(0)
                    continue
                if not handles[receiver.shard_id].grant_node(now_ms):
                    # Receiver can't absorb it; give it back.
                    handles[donor.shard_id].grant_node(now_ms)
                    break
                moved += 1
                donor.nodes_granted -= 1
                receiver.nodes_granted += 1
                self.store.update(
                    REPORT_COLLECTION, f"shard-{donor.shard_id}",
                    {"nodes_granted": donor.nodes_granted})
                self.store.update(
                    REPORT_COLLECTION, f"shard-{receiver.shard_id}",
                    {"nodes_granted": receiver.nodes_granted})
                if donor.nodes_granted <= MIN_NODES_PER_SHARD:
                    donors.pop(0)
        if moved:
            self._c_rebalances.inc()
            self._c_moves.inc(moved)

        if self.global_max_surge > 0:
            shares = divide_surge_budget(self.global_max_surge, pressures)
            for report, share in zip(reports, shares):
                handles[report.shard_id].set_surge_budget(share)

        return {
            "now_ms": now_ms,
            "skew": skew,
            "nodes_moved": moved,
            "pressures": {r.shard_id: r.pressure for r in by_id.values()},
        }
