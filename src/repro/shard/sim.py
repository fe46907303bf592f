"""Sharded simulation plane: N gateways over one partitioned keyspace.

Two execution modes behind :func:`run_plane`, the run body of a
:class:`~repro.scenario.Scenario` on the ``sim-sharded`` plane
(:func:`run_sharded_policy` builds that scenario; with ``shards=1`` its
plane is the single-gateway one and no shard machinery touches the run,
which keeps that path and its golden traces bit-identical):

* **In-process orchestrated** (the default) — N event-loop systems,
  each owning a consistent-hash slice of the request ids and a
  full-size cluster with only its granted nodes uncordoned, attached to
  one :class:`Simulator` and sharing one coalesced monitor timer, with
  the :class:`~repro.shard.orchestrator.GlobalOrchestrator` reconciling
  grants on its own cadence through the drain.  This is the plane's one
  in-process driver; the scenario refuses ``engine="vector"`` here.
* **Process fan-out** (``shard_workers>1``) — one OS process per
  shard over a static partition (no online rebalance), for wall-clock
  scaling on multi-core hosts; each shard runs on the scenario's engine.

Chain-stage routing: by default a shard owns a job's whole chain
(``stage_routing="local"`` — Fifer packs chains, so affinity is the
deployment that makes sense).  ``stage_routing="hash"`` re-routes every
stage hop through the ring instead: hops landing on a foreign shard pay
:data:`CROSS_SHARD_HOP_MS` and execute in the owning shard's pools,
modelling a plane whose stages are partitioned independently of their
jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.faults import FaultTimeline
from repro.core.poolsurface import PoolSurface
from repro.metrics.collector import RunResult
from repro.obs.registry import (
    MetricsRegistry,
    merge_registry_snapshots,
    snapshot_registry,
)
from repro.runtime.system import ClusterSpec, ServerlessSystem
from repro.scenario import Scenario, Shards, fault_pairs
from repro.serve.journal import MemoryJournal, journal_conservation
from repro.serve.recovery import build_recovery_plan
from repro.shard.failover import ShardHealthMonitor, assign_takeover
from repro.shard.orchestrator import (
    GlobalOrchestrator,
    ShardHandle,
    ShardLoadReport,
    divide_surge_budget,
)
from repro.shard.ring import ConsistentHashRing
from repro.sim.engine import Simulator
from repro.sim.process import CoalescedTicker
from repro.traces.base import ArrivalTrace
from repro.workflow.lifecycle import LOST_DEAD, RequestLifecycle
from repro.workloads.mixes import WorkloadMix

#: Modelled one-way latency of a cross-shard stage hop (gateway →
#: gateway RPC), added on top of the app's own transition overhead.
CROSS_SHARD_HOP_MS = 0.5


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------

def partition_arrivals(
    trace: ArrivalTrace, ring: ConsistentHashRing
) -> List[Tuple[int, ArrivalTrace, np.ndarray]]:
    """Split *trace* into per-shard sub-traces by request id.

    The request id is the arrival index — the same id the journal and
    the job layout use — hashed through the ring's vectorized path, so
    partitioning an epoch of M arrivals is one SplitMix64 pass and one
    ``searchsorted``.  Returns ``(shard_id, sub_trace, request_ids)``
    triples in ring order; the id arrays are a disjoint cover of
    ``arange(len(trace))``.
    """
    times = np.asarray(trace.arrivals_ms, dtype=np.float64)
    ids = np.arange(times.size, dtype=np.uint64)
    owners = ring.shard_for_array(ids)
    parts = []
    for shard_id in ring.shard_ids:
        mask = owners == shard_id
        sub = ArrivalTrace(
            times[mask], name=f"{trace.name}#s{shard_id}"
        )
        parts.append((shard_id, sub, ids[mask]))
    return parts


def plan_node_grants(
    n_nodes: int,
    n_shards: int,
    initial_node_grants: Optional[Sequence[int]] = None,
) -> List[int]:
    """Nodes initially granted per shard (sums to *n_nodes*, min 1)."""
    if initial_node_grants is not None:
        grants = [int(g) for g in initial_node_grants]
        if len(grants) != n_shards:
            raise ValueError(
                f"initial_node_grants has {len(grants)} entries "
                f"for {n_shards} shards")
        if any(g < 1 for g in grants):
            raise ValueError("every shard needs at least one node")
        if sum(grants) != n_nodes:
            raise ValueError(
                f"grants sum to {sum(grants)}, cluster has {n_nodes}")
        return grants
    if n_nodes < n_shards:
        raise ValueError(
            f"cannot split {n_nodes} nodes over {n_shards} shards")
    base, extra = divmod(n_nodes, n_shards)
    return [base + (1 if i < extra else 0) for i in range(n_shards)]


# ----------------------------------------------------------------------
# shard handles (orchestrator adapters)
# ----------------------------------------------------------------------

class _SystemShardHandle(ShardHandle):
    """Orchestrator adapter over one shard's :class:`_ShardSystem`."""

    def __init__(self, shard_id: int, system: "_ShardSystem") -> None:
        self.shard_id = shard_id
        self.system = system
        self.pools: Dict[str, PoolSurface] = system.pools
        self.cluster = system.cluster
        self.governor = system.control.governor
        # Only nodes this plane cordoned are grantable — a node killed
        # by a fault schedule must never come back via rebalance.
        self._cordoned = [n for n in self.cluster.nodes if n.failed]

    def granted_nodes(self) -> int:
        return sum(1 for n in self.cluster.nodes if not n.failed)

    def surrender_node(self, now_ms: float) -> bool:
        active = [n for n in self.cluster.nodes if not n.failed]
        if len(active) <= 1:
            return False
        # Prefer an empty node; otherwise cordon the emptiest one (the
        # bit only blocks new placements — running containers drain out
        # and are reaped from a node that can no longer win placement).
        node = min(
            active, key=lambda n: (not n.empty, n.container_count)
        )
        node.fail()
        self._cordoned.append(node)
        return True

    def grant_node(self, now_ms: float) -> bool:
        if not self._cordoned:
            return False
        node = self._cordoned.pop()
        node.recover(now_ms)
        return True

    def set_surge_budget(self, max_surge: int) -> None:
        if self.governor is not None:
            # max_surge=0 means "clamp off" to the governor, so a
            # budgeted shard's share floors at one spawn per tick.
            self.governor.max_surge = max(1, int(max_surge))

    def load_report(self, now_ms: float) -> ShardLoadReport:
        return ShardLoadReport(
            shard_id=self.shard_id,
            now_ms=now_ms,
            inflight=max(0, self.system.in_flight),
            warm_containers=sum(
                p.n_containers for p in self.pools.values()),
            nodes_granted=self.granted_nodes(),
        )


# ----------------------------------------------------------------------
# cross-shard chain-stage routing
# ----------------------------------------------------------------------

class _ShardLifecycle(RequestLifecycle):
    """The shared lifecycle with stage hops routed through the ring.

    All shard systems share one Simulator, so "routing" a hop is handing
    the job to the owning peer's lifecycle after the modelled
    gateway→gateway latency.  Jobs keep one deterministic routing key —
    ``home_shard << 32 | per-shard admission sequence`` — so the hop
    pattern is independent of process-global job-id counters.
    """

    shard: "_ShardSystem"

    def enqueue_stage(self, job, stage_index: int) -> None:
        shard = self.shard
        if shard.stage_routing == "hash" and shard.ring is not None:
            key = shard._route_keys.setdefault(
                job.job_id, (shard.shard_id << 32) | shard._route_seq
            )
            owner_id = shard.ring.shard_for((key << 8) | stage_index)
            owner = shard.peers.get(owner_id, shard)
            if owner is not shard:
                shard.registry.counter(
                    "shard_cross_stage_hops_total").inc()
                # The job changes hands with the hop: the owner's
                # identity check must accept its task signals.
                owner.lifecycle.jobs[job.job_id] = self.jobs.pop(job.job_id)
                self.later(
                    CROSS_SHARD_HOP_MS,
                    RequestLifecycle.enqueue_stage,
                    owner.lifecycle, job, stage_index,
                )
                return
        super().enqueue_stage(job, stage_index)


class _ShardSystem(ServerlessSystem):
    """A per-shard system: ring-routed stage hops, a fault plane at the
    front door, and a control loop that dies with the shard."""

    lifecycle_cls = _ShardLifecycle

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.shard_id = 0
        self.ring: Optional[ConsistentHashRing] = None
        self.peers: Dict[int, "_ShardSystem"] = {}
        self.stage_routing = "local"
        self._route_seq = 0
        self._route_keys: Dict[int, int] = {}
        #: The plane driving heartbeats/takeover, or None (exact
        #: pre-failover behaviour on every code path below).
        self.failover: Optional["_ShardFaultPlane"] = None
        #: Global request ids of this shard's arrivals, in trace order
        #: (the reroute key once this shard is declared dead).
        self._request_ids = iter(())
        #: Nodes cordoned by the crash, returned on scripted recovery.
        self._failover_cordoned: List = []

    def _build(self, sim: Simulator) -> None:
        super()._build(sim)
        self.lifecycle.shard = self

    def _on_arrival(self) -> None:
        self._route_seq += 1
        if self.failover is not None:
            self.failover.on_arrival(self)
            return
        super()._on_arrival()

    def _tick_monitor(self, now_ms: float) -> None:
        if self.lifecycle.dead:
            # Dead shard, dead control loop: no scaling, no samples —
            # and no heartbeats, which is how the plane finds out.
            self.registry.counter(
                "control_plane_ticks_skipped_total").inc()
            return
        super()._tick_monitor(now_ms)


# ----------------------------------------------------------------------
# scripted shard faults (in-run self-healing)
# ----------------------------------------------------------------------

class _ShardFaultPlane:
    """Heartbeats, death declaration and keyspace takeover for the sim.

    Attached to every :class:`_ShardSystem` when the fault timeline
    scripts ``kill-shard`` / ``recover-shard`` events.  Each
    shard's lifecycle then journals through a
    :class:`~repro.serve.journal.MemoryJournal` — the live WAL's record
    schema — and a shard "dies" by its lifecycle's ``dead`` flag, the
    same one a crashed live gateway carries.  Each sweep doubles as a
    health-monitor pass: surviving shards beat, the
    :class:`~repro.shard.failover.ShardHealthMonitor` scores the gaps,
    and a declaration triggers the takeover during the run — ring
    remap via ``with_shard_removed``, recovery plan from the dead
    shard's journal, survivors requeueing under the **original** job
    ids.  Until the declaration lands, arrivals to the
    dead shard are shed with a counter (degraded routing); after it,
    they reroute to the remapped ring owner.
    """

    def __init__(
        self,
        sim: Simulator,
        systems: Dict[int, _ShardSystem],
        handles: Dict[int, ShardHandle],
        orchestrator: GlobalOrchestrator,
        ring: ConsistentHashRing,
        scenario: Scenario,
        registry: MetricsRegistry,
    ) -> None:
        self.sim = sim
        self.systems = systems
        self.handles = handles
        self.orchestrator = orchestrator
        self.ring = ring
        self.registry = registry
        self._slo_by_app = {
            app.name: app.slo_ms
            for app in scenario.workload_mix().applications
        }
        self.monitor = ShardHealthMonitor(
            sorted(systems),
            interval_ms=scenario.shards.heartbeat_interval_ms,
            miss_threshold=scenario.shards.heartbeat_miss_threshold,
            hysteresis=scenario.shards.failover_hysteresis,
            registry=registry,
        )
        for system in systems.values():
            system.failover = self
            system.lifecycle.journal = MemoryJournal()
        #: Request id by job id: the takeover's ring key (job ids come
        #: from a process-wide counter, request ids from the trace).
        self._request_of: Dict[int, int] = {}

    # -- scripted events ----------------------------------------------

    def crash_shard(self, shard_id: int) -> None:
        """Kill one shard in place (the ``kill-shard`` fault event)."""
        system = self.systems[shard_id]
        if system.lifecycle.dead:
            return
        # Fence first: everything admitted-but-unfinished at this
        # instant is lost here and owed exactly once to the takeover.
        system.lifecycle.crash()
        purged = sum(p.purge_queued() for p in system.pools.values())
        if purged:
            system.registry.counter(
                "control_plane_purged_tasks_total").inc(purged)
        for node in system.cluster.nodes:
            if not node.failed:
                node.fail()
                system._failover_cordoned.append(node)
        system.registry.counter("shard_crashes_total").inc()

    def recover_shard(self, shard_id: int) -> None:
        """Restart one shard (the ``recover-shard`` fault event).

        The process is back and beating; the *plane* re-admits it to
        the ring only after the monitor's hysteresis clears it.
        """
        system = self.systems[shard_id]
        if not system.lifecycle.dead:
            return
        system.lifecycle.dead = False
        for node in system._failover_cordoned:
            node.recover(self.sim.now)
        system._failover_cordoned = []
        system.registry.counter("shard_restarts_total").inc()

    # -- per-arrival routing ------------------------------------------

    def on_arrival(self, system: _ShardSystem) -> None:
        rid = next(system._request_ids, None)
        if not system.lifecycle.dead:
            self._admit(system, system, rid)
            return
        if system.shard_id in self.monitor.dead and rid is not None:
            # Declared dead: the remapped ring owns this key now.  The
            # app still comes from the dead shard's stream, so the
            # workload content is invariant to declaration timing.
            owner = self.systems.get(self.ring.shard_for(rid))
            if owner is not None and not owner.lifecycle.dead:
                owner.registry.counter(
                    "shard_rerouted_arrivals_total").inc()
                self._admit(system, owner, rid, CROSS_SHARD_HOP_MS)
                return
        # Degraded routing: the shard is dead but the takeover is not
        # yet in effect — shed with a counter, never silently.
        system.lifecycle.lose_arrival(LOST_DEAD, observed=False)

    def _admit(self, home: _ShardSystem, owner: _ShardSystem, rid,
               extra_latency_ms: float = 0.0) -> None:
        job = owner.lifecycle.admit(
            home._draw_app(), extra_latency_ms=extra_latency_ms)
        if job is not None:
            self._request_of[job.job_id] = rid

    def _request_id(self, entry) -> int:
        return self._request_of[entry.job_id]

    # -- health sweep + takeover (own cadence, faster than reconcile) --

    def sweep(self, now_ms: float) -> None:
        """One heartbeat + health-monitor pass.

        Runs on its own ticker at the heartbeat interval — declaring a
        death must not wait for the (much coarser) rebalance tick.
        """
        for shard_id, system in self.systems.items():
            if not system.lifecycle.dead:
                self.monitor.record_heartbeat(shard_id, now_ms)
                system.registry.counter("shard_heartbeats_total").inc()
        transitions = self.monitor.observe(now_ms)
        for shard_id in transitions["dead"]:
            self._take_over(shard_id, now_ms)
        for shard_id in transitions["recovered"]:
            self._readmit(shard_id, now_ms)

    def _take_over(self, shard_id: int, now_ms: float) -> None:
        dead = self.systems[shard_id]
        try:
            self.ring = self.ring.with_shard_removed(shard_id)
        except ValueError:
            # Last shard standing, or already remapped — nowhere to
            # move the keyspace; record the stall rather than raise.
            self.registry.counter("shard_takeover_skipped_total").inc()
            return
        self.orchestrator.remove_shard(shard_id)
        plan = build_recovery_plan(
            dead.lifecycle.journal.records, now_ms, self._slo_by_app.get)
        for owner_id, entries in sorted(
                assign_takeover(
                    plan.requeue, self.ring, self._request_id).items()):
            survivor = self.systems[owner_id]
            for entry in entries:
                # Original id and arrival time: the SLO clock keeps
                # running across the failover.
                if survivor.lifecycle.requeue_recovered(
                        entry, extra_latency_ms=CROSS_SHARD_HOP_MS):
                    survivor.registry.counter(
                        "shard_jobs_requeued_on_failover_total").inc()
        for owner_id, entries in sorted(
                assign_takeover(
                    plan.expired, self.ring, self._request_id).items()):
            survivor = self.systems[owner_id]
            for entry in entries:
                if survivor.lifecycle.expire_recovered(entry):
                    survivor.registry.counter(
                        "shard_jobs_expired_on_failover_total").inc()

    def _readmit(self, shard_id: int, now_ms: float) -> None:
        if shard_id not in self.ring.shard_ids:
            self.ring = self.ring.with_shard_added(shard_id)
        self.orchestrator.add_shard(self.handles[shard_id])

    def journal_conservation(self) -> Dict:
        """Plane-wide exactly-once verdict over every shard's journal."""
        records: List[Dict] = []
        for shard_id in sorted(self.systems):
            records.extend(self.systems[shard_id].lifecycle.journal.records)
        return journal_conservation(records)


# ----------------------------------------------------------------------
# aggregate result
# ----------------------------------------------------------------------

@dataclass
class ShardedRunResult:
    """Per-shard results plus plane-level aggregates."""

    per_shard: Dict[int, RunResult]
    #: "inprocess" (one event loop, orchestrated) | "processes"
    #: (``Shards.workers > 1``: static partition, no rebalance).
    mode: str
    orchestration: Dict = field(default_factory=dict)
    #: Plane-level metrics, merged across shards: an in-process run with
    #: a fault timeline fills it (its orchestration registry too); every
    #: other run leaves it empty.
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def n_shards(self) -> int:
        return len(self.per_shard)

    @property
    def n_jobs(self) -> int:
        return sum(r.n_jobs for r in self.per_shard.values())

    @property
    def n_completed(self) -> int:
        return sum(r.n_completed for r in self.per_shard.values())

    @property
    def n_failed(self) -> int:
        return sum(r.n_failed for r in self.per_shard.values())

    @property
    def shed_jobs(self) -> int:
        return sum(r.shed_jobs for r in self.per_shard.values())

    @property
    def violations(self) -> int:
        return sum(r.violations for r in self.per_shard.values())

    @property
    def duration_ms(self) -> float:
        return max(r.duration_ms for r in self.per_shard.values())

    @property
    def latencies_ms(self) -> np.ndarray:
        results = list(self.per_shard.values())
        return np.concatenate(
            [r.latencies_ms for r in results]
        ) if results else np.array([])

    @property
    def slo_violation_rate(self) -> float:
        """Violations plus never-finished jobs over offered jobs —
        the same pessimistic definition RunResult uses."""
        if self.n_jobs == 0:
            return 0.0
        incomplete = self.n_jobs - self.n_completed
        return (self.violations + incomplete) / self.n_jobs

    def summary(self) -> Dict[str, float]:
        lat = self.latencies_ms
        return {
            "n_shards": float(self.n_shards),
            "jobs": float(self.n_jobs),
            "completed": float(self.n_completed),
            "failed": float(self.n_failed),
            "shed_jobs": float(self.shed_jobs),
            "violations": float(self.violations),
            "slo_violation_rate": self.slo_violation_rate,
            "median_latency_ms": float(np.median(lat)) if lat.size else 0.0,
            "p99_latency_ms": (
                float(np.percentile(lat, 99)) if lat.size else 0.0),
            "duration_ms": self.duration_ms,
            "jobs_per_shard": {
                s: r.n_jobs for s, r in sorted(self.per_shard.items())
            },
            **{f"orchestration_{k}": v
               for k, v in self.orchestration.items()},
        }


# ----------------------------------------------------------------------
# execution modes
# ----------------------------------------------------------------------

def split_plane(scenario: Scenario, shrink: bool):
    """The plane's ring and, per shard in ring order, ``(shard_id,
    per-shard scenario holding its slice of the arrivals, request ids,
    node grant)``.  *shrink* sizes each shard's cluster to its grant
    (one process per shard); an in-process shard keeps the full-size
    cluster and cordons what it was not granted."""
    shards = scenario.shards
    ring = ConsistentHashRing(shards.n)
    grants = plan_node_grants(
        scenario.cluster.n_nodes, shards.n, shards.initial_node_grants)
    return ring, [
        (shard_id,
         replace(scenario.for_shard(shard_id, grant if shrink else None),
                 trace=sub),
         ids, grant)
        for (shard_id, sub, ids), grant in zip(
            partition_arrivals(scenario.arrivals(), ring), grants)]


def _orchestration_summary(orchestrator: GlobalOrchestrator) -> Dict:
    store, registry = orchestrator.store, orchestrator.registry
    return {
        "ticks": int(registry.value("orchestrator_ticks_total")),
        "rebalances": int(
            registry.value("orchestrator_rebalances_total")),
        "nodes_moved": int(
            registry.value("orchestrator_nodes_moved_total")),
        "final_skew": float(registry.value("orchestrator_shard_skew")),
        "store_reads": store.reads,
        "store_writes": store.writes,
        "store_mean_access_ms": store.mean_access_latency_ms,
        "store_load_imbalance": store.load_imbalance(),
    }


def _make_orchestrator(handles, scenario: Scenario) -> GlobalOrchestrator:
    """Global orchestrator over *handles*, which also hands each shard
    its equal opening share of the global surge budget."""
    args = {"global_max_surge": max(0, scenario.config().max_surge)}
    if scenario.shards.skew_threshold is not None:
        args["skew_threshold"] = scenario.shards.skew_threshold
    orchestrator = GlobalOrchestrator(
        handles, registry=MetricsRegistry(), **args)
    if orchestrator.global_max_surge > 0:
        shares = divide_surge_budget(
            orchestrator.global_max_surge, [1.0] * len(handles))
        for handle, share in zip(handles, shares):
            handle.set_surge_budget(share)
    return orchestrator


def _run_inprocess_eventloop(
    scenario: Scenario, parts, ring: ConsistentHashRing,
) -> ShardedRunResult:
    """N event-loop systems attached to one Simulator, their monitors
    sharing one coalesced ticker."""
    faults = scenario.timeline
    shard_events = faults.of("kill-shard", "recover-shard")
    sim = Simulator()
    systems: Dict[int, _ShardSystem] = {}
    monitors = []
    handles = []
    n_nodes = scenario.cluster.n_nodes
    interval = scenario.config().monitor_interval_ms
    ticker = CoalescedTicker(sim, interval, label="shard-monitor")
    for shard_id, shard, ids, grant in parts:
        system = shard.system(cls=_ShardSystem)
        system.cordoned_node_ids = list(range(grant, n_nodes))
        if shard_events:
            system._request_ids = iter(ids.tolist())
        systems[shard_id] = system
        monitors.append(system.attach(sim, shard.trace, ticker=ticker))
    for shard_id, system in systems.items():
        system.shard_id = shard_id
        system.ring = ring
        system.peers = systems
        system.stage_routing = scenario.shards.stage_routing
        handles.append(_SystemShardHandle(shard_id, system))

    orchestrator = _make_orchestrator(handles, scenario)
    orch_registry = orchestrator.registry
    # The orchestrator keeps no state between reconciles (each one
    # publishes fresh reports and reads them back), so a restarted one
    # computes exactly what the killed one would have: the instant is
    # counted, and nothing else changes.
    for event in faults.of("kill-orchestrator"):
        sim.schedule_at(
            event.at_ms, orch_registry.counter(
                "orchestrator_failovers_total").inc, label=event.kind)
    rebalance = scenario.shards.rebalance_interval_ms or interval

    plane: Optional[_ShardFaultPlane] = None
    plane_sub = None
    if shard_events:
        plane = _ShardFaultPlane(
            sim, systems, {h.shard_id: h for h in handles}, orchestrator,
            ring, scenario, orch_registry)
        for event in shard_events:
            act = (plane.crash_shard if event.kind == "kill-shard"
                   else plane.recover_shard)
            for sid in event.ids:
                sim.schedule_at(event.at_ms, partial(act, sid),
                                label=event.kind)
        # The health sweep gets its own (fine) cadence: death must be
        # declared within heartbeat intervals, not rebalance intervals.
        plane_sub = CoalescedTicker(
            sim, scenario.shards.heartbeat_interval_ms, label="shard-health"
        ).add(plane.sweep)
    if rebalance == ticker.interval:
        orch_sub = ticker.add(orchestrator.reconcile)
    else:
        orch_sub = CoalescedTicker(
            sim, rebalance, label="orchestrator"
        ).add(orchestrator.reconcile)

    def settled() -> bool:
        # Global drain condition: with hash stage routing a job may
        # complete on a foreign shard, so per-shard conservation only
        # holds for the aggregate.
        return sum(s.in_flight for s in systems.values()) <= 0

    horizon = scenario.arrivals().duration_ms + 1.0
    sim.run(until=horizon)
    drained = horizon
    while not settled() and drained < horizon + scenario.drain_ms:
        drained += interval
        sim.run(until=drained)
    for monitor in monitors:
        monitor.stop()
    orch_sub.stop()
    if plane_sub is not None:
        plane_sub.stop()
    result = ShardedRunResult(
        per_shard={s: sys_.finalize() for s, sys_ in systems.items()},
        mode="inprocess",
        orchestration=_orchestration_summary(orchestrator),
    )
    result.orchestration["cross_shard_hops"] = int(sum(
        s.registry.value("shard_cross_stage_hops_total")
        for s in systems.values()
    ))
    if faults:
        # Failover runs expose the plane-level picture: merged metrics
        # (every shard + the orchestration/health registry) and the
        # exactly-once journal verdict across the takeover.
        snapshots = [snapshot_registry(s.registry)
                     for _, s in sorted(systems.items())]
        snapshots.append(snapshot_registry(orch_registry))
        result.registry = merge_registry_snapshots(snapshots)
        result.orchestration["orchestrator_failovers"] = int(
            orch_registry.value("orchestrator_failovers_total"))
    if plane is not None:
        result.orchestration["failovers"] = int(
            orch_registry.value("shard_failovers_total"))
        result.orchestration["shard_recoveries"] = int(
            orch_registry.value("shard_recoveries_total"))
        result.orchestration["journal"] = plane.journal_conservation()
    return result


def map_shards(worker, parts, processes: int) -> List:
    """*worker* applied to every per-shard scenario of *parts*, each in
    a worker process.  Fork is preferred (children inherit the parent's
    already-primed trace caches); when only ``spawn`` exists every
    per-shard scenario pickles, so the plane still runs, just colder."""
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor

    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else None)
    with ProcessPoolExecutor(
            max_workers=min(processes, len(parts)), mp_context=ctx) as ex:
        return list(ex.map(
            worker, [shard for _sid, shard, _ids, _grant in parts]))


def _shard_worker(shard: Scenario) -> RunResult:
    """Run one shard's static partition in a worker process."""
    return shard.run()


def run_plane(scenario: Scenario) -> ShardedRunResult:
    """The ``sim-sharded`` run body (the module docstring has the
    modes).  The timeline's ``kill-shard`` / ``recover-shard`` events
    run the self-healing protocol — heartbeat health monitoring, ring
    remap, journal-driven keyspace takeover; ``kill-orchestrator`` is a
    counted instant (the orchestrator is stateless between reconciles).
    Both need the in-process plane, which the scenario's build-time
    check already established."""
    processes = scenario.shards.workers > 1
    ring, parts = split_plane(scenario, shrink=processes)
    if processes:
        # One process per shard over a static partition (no rebalance).
        results = map_shards(_shard_worker, parts, scenario.shards.workers)
        return ShardedRunResult(
            per_shard={sid: r for (sid, *_), r in zip(parts, results)},
            mode="processes",
            orchestration={"ticks": 0, "rebalances": 0, "nodes_moved": 0},
        )
    return _run_inprocess_eventloop(scenario, parts, ring)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def run_sharded_policy(
    policy_name: str,
    mix: WorkloadMix,
    trace: ArrivalTrace,
    shards: int = 2,
    cluster_spec: ClusterSpec = ClusterSpec(),
    predictor=None,
    seed: int = 0,
    drain_ms: float = 120_000.0,
    engine: Optional[str] = None,
    shed_expired: bool = False,
    shard_workers: int = 1,
    rebalance_interval_ms: Optional[float] = None,
    stage_routing: str = "local",
    initial_node_grants: Optional[Sequence[int]] = None,
    skew_threshold: Optional[float] = None,
    faults: FaultTimeline = FaultTimeline(),
    heartbeat_interval_ms: float = Shards.heartbeat_interval_ms,
    heartbeat_miss_threshold: int = 3,
    failover_hysteresis: int = 2,
    **config_overrides,
):
    """Run *policy_name* over *trace* on an N-shard serving plane: build
    the :class:`~repro.scenario.Scenario` these arguments describe and
    run it (:func:`run_plane` has the plane's semantics).

    Returns a plain :class:`RunResult` for ``shards=1`` (the exact
    single-gateway path) and a :class:`ShardedRunResult` otherwise.
    """
    return Scenario.of(
        policy_name, mix, trace, cluster_spec, seed,
        drain_ms=drain_ms,
        engine=engine,
        shed_expired=shed_expired,
        faults=fault_pairs(timeline=faults),
        shards=Shards(
            n=shards,
            workers=shard_workers,
            rebalance_interval_ms=rebalance_interval_ms,
            stage_routing=stage_routing,
            initial_node_grants=initial_node_grants,
            skew_threshold=skew_threshold,
            heartbeat_interval_ms=heartbeat_interval_ms,
            heartbeat_miss_threshold=heartbeat_miss_threshold,
            failover_hysteresis=failover_hysteresis,
        ),
        **config_overrides,
    ).run(predictor=predictor)
