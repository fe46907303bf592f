"""Failure injection for resilience testing.

The paper evaluates a healthy cluster; a production resource manager
must additionally survive container crashes, node failures and registry
slowdowns.  This module provides controlled fault models the test suite
injects to verify the RM degrades gracefully (tasks retried, capacity
re-provisioned, no deadlock):

* :class:`ContainerFaultModel` — per-task crash probability; a crashed
  container dies mid-execution and its task is retried elsewhere.
* :class:`RegistryDegradation` — cold-start inflation over a time
  window (an image-registry brownout), stressing the reactive scaler's
  queue-vs-spawn decision.
* :func:`fail_node` — kill a node: every container on it terminates,
  in-flight and locally-queued tasks return to their global queues.
* :class:`NodeFaultSchedule` — scripted node kills and recoveries
  (including correlated multi-node "zone" failures), the deterministic
  driver behind the robustness study and CLI ``--node-fault-schedule``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.coldstart import ColdStartModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.workflow.pool import FunctionPool


@dataclass
class ContainerFaultModel:
    """Bernoulli per-task crash model.

    Attributes:
        crash_probability: chance that any given task execution crashes
            its container partway through.
        crash_point: fraction of the execution time at which the crash
            manifests (the work is lost; the task is retried).
    """

    crash_probability: float = 0.0
    crash_point: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.crash_probability <= 1.0:
            raise ValueError("crash_probability must be within [0, 1]")
        if not 0.0 < self.crash_point <= 1.0:
            raise ValueError("crash_point must be in (0, 1]")

    def should_crash(self, rng: np.random.Generator) -> bool:
        return (
            self.crash_probability > 0.0
            and rng.random() < self.crash_probability
        )


class RegistryDegradation(ColdStartModel):
    """A cold-start model whose pulls slow down inside a time window.

    Outside ``[start_ms, end_ms)`` it behaves exactly like the wrapped
    base model; inside, cold starts inflate by ``factor`` — modelling a
    container-registry brownout.  Requires a clock callback because the
    cold-start model itself is time-free.
    """

    def __init__(
        self,
        base: Optional[ColdStartModel] = None,
        start_ms: float = 0.0,
        end_ms: float = float("inf"),
        factor: float = 3.0,
        now_fn=None,
    ) -> None:
        base = base or ColdStartModel()
        super().__init__(
            base_spawn_ms=base.base_spawn_ms,
            bandwidth_mbps=base.bandwidth_mbps,
            jitter_sigma=base.jitter_sigma,
        )
        if not factor >= 1.0:  # also rejects NaN
            raise ValueError("degradation factor must be >= 1")
        if not start_ms >= 0.0:
            raise ValueError("start_ms must be >= 0")
        if not end_ms > start_ms:
            raise ValueError(
                "degradation window must be non-empty (end_ms > start_ms)"
            )
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.factor = factor
        self.now_fn = now_fn or (lambda: 0.0)
        self.degraded_spawns = 0

    def _active(self) -> bool:
        now = self.now_fn()
        return self.start_ms <= now < self.end_ms

    def sample_ms(self, function: str, rng=None) -> float:
        sample = super().sample_ms(function, rng)
        if self._active():
            self.degraded_spawns += 1
            return sample * self.factor
        return sample


def fail_node(node: "Node", pools: List["FunctionPool"], now_ms: float) -> int:
    """Kill *node*: terminate its containers across all pools and retry
    their tasks.  Returns the number of containers destroyed.

    In-flight executions are aborted (their completion events become
    no-ops because the container is TERMINATED) and every affected task
    re-enters its stage's global queue for rescheduling.
    """
    destroyed = 0
    for pool in pools:
        for container in list(pool.containers):
            if container.node is not node:
                continue
            if container.state.value in ("terminated", "crashed"):
                continue
            destroyed += 1
            requeue = list(container.local_queue)
            container.local_queue.clear()
            inflight = container.current_task
            container.current_task = None
            # terminate() (not a bare state write) so live worker slots
            # also cancel their pending execution timeout.
            container.terminate()
            pool.retired_task_counts.append(container.tasks_executed)
            pool.cluster.release(
                node, now_ms,
                cpu=container.service.cpu_cores,
                memory_mb=container.service.memory_mb,
            )
            if inflight is not None:
                requeue.insert(0, inflight)
            for task in requeue:
                # Exactly one queue entry per orphan (requeue() drops any
                # stale copy from the waiting view) and one counted retry.
                pool.requeue(task)
        pool._compact()
        pool.dispatch()
    return destroyed


@dataclass(frozen=True)
class NodeFaultEvent:
    """One scripted cluster event: kill or recover a set of nodes.

    A multi-node ``node_ids`` tuple models a correlated "zone" failure
    (shared rack/switch/power domain): every node in the set dies — or
    comes back — at the same instant.
    """

    at_ms: float
    action: str  # "kill" | "recover"
    node_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.at_ms) and self.at_ms >= 0.0):
            raise ValueError("at_ms must be finite and >= 0")
        if self.action not in ("kill", "recover"):
            raise ValueError("action must be 'kill' or 'recover'")
        ids = tuple(int(i) for i in self.node_ids)
        if not ids:
            raise ValueError("an event must name at least one node")
        if any(i < 0 for i in ids):
            raise ValueError("node ids must be >= 0")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids in one event")
        object.__setattr__(self, "node_ids", ids)


class NodeFaultSchedule:
    """A deterministic, time-ordered script of node kills/recoveries.

    Both execution paths consume the same schedule: the simulator maps
    each event to a ``schedule_at`` callback, the live runtime replays
    it on the scaled wall clock.  Every applied event lands in the run
    registry (``cluster_node_kills_total`` / ``_recoveries_total`` /
    ``_containers_lost_total``) so sim-vs-live fault parity is checkable
    from metrics alone.
    """

    def __init__(self, events: Iterable[NodeFaultEvent]) -> None:
        self.events: Tuple[NodeFaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.at_ms, e.action, e.node_ids))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    @classmethod
    def parse(cls, spec: str) -> "NodeFaultSchedule":
        """Build a schedule from a CLI spec string.

        Format: ``;``-separated events, each ``ACTION@SECONDS=IDS`` with
        comma-separated node ids — e.g. ``kill@30=0,1;recover@60=0,1``
        kills nodes 0 and 1 (a correlated zone failure) at t=30 s and
        recovers both at t=60 s.
        """
        events = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                head, ids_part = chunk.split("=", 1)
                action, at_part = head.split("@", 1)
                node_ids = tuple(
                    int(part) for part in ids_part.split(",") if part.strip()
                )
                event = NodeFaultEvent(
                    at_ms=float(at_part) * 1000.0,
                    action=action.strip().lower(),
                    node_ids=node_ids,
                )
            except ValueError as exc:
                raise ValueError(
                    f"bad node-fault spec {chunk!r} (expected "
                    f"ACTION@SECONDS=ID[,ID...], e.g. kill@30=0,1): {exc}"
                ) from exc
            events.append(event)
        if not events:
            raise ValueError("node-fault spec contains no events")
        return cls(events)

    def apply_event(
        self,
        event: NodeFaultEvent,
        cluster,
        pools: Sequence["FunctionPool"],
        now_ms: float,
        registry=None,
    ) -> int:
        """Execute one event against *cluster*; returns containers lost.

        Kills mark the node failed (unplaceable) before
        :func:`fail_node` evicts its containers; recoveries bring the
        node back empty.  Already-failed (already-live) nodes are
        skipped, so overlapping schedules stay idempotent.
        """
        destroyed = 0
        for node_id in event.node_ids:
            if node_id >= len(cluster.nodes):
                raise ValueError(
                    f"node {node_id} not in cluster of {len(cluster.nodes)}"
                )
            node = cluster.nodes[node_id]
            if event.action == "kill":
                if node.failed:
                    continue
                node.fail()
                destroyed += fail_node(node, list(pools), now_ms)
                if registry is not None:
                    registry.counter("cluster_node_kills_total").inc()
            else:
                if not node.failed:
                    continue
                node.recover(now_ms)
                if registry is not None:
                    registry.counter("cluster_node_recoveries_total").inc()
        if registry is not None and destroyed:
            registry.counter("cluster_node_containers_lost_total").inc(
                destroyed
            )
        return destroyed


@dataclass(frozen=True)
class ShardFaultEvent:
    """One scripted serving-plane event: kill or recover gateway shards.

    The shard-level sibling of :class:`NodeFaultEvent`: where a node
    kill evicts containers, a shard kill takes a whole gateway (and its
    keyspace) offline until failover remaps the ring and the survivors
    replay its journal.
    """

    at_ms: float
    action: str  # "kill" | "recover"
    shard_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.at_ms) and self.at_ms >= 0.0):
            raise ValueError("at_ms must be finite and >= 0")
        if self.action not in ("kill", "recover"):
            raise ValueError("action must be 'kill' or 'recover'")
        ids = tuple(int(i) for i in self.shard_ids)
        if not ids:
            raise ValueError("an event must name at least one shard")
        if any(i < 0 for i in ids):
            raise ValueError("shard ids must be >= 0")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate shard ids in one event")
        object.__setattr__(self, "shard_ids", ids)


class ShardFaultSchedule:
    """A deterministic, time-ordered script of shard kills/recoveries.

    Drives the sim plane's failover mirror: each kill silences a
    shard's heartbeats (and cordons its nodes) until the health monitor
    declares it dead and the survivors take over its keyspace; each
    recovery resumes the heartbeats so hysteresis re-admits the shard
    (and returns its cordoned nodes).  Sim and live emit the same
    failover counters, so parity is checkable from metrics alone.
    """

    def __init__(self, events: Iterable[ShardFaultEvent]) -> None:
        self.events: Tuple[ShardFaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.at_ms, e.action, e.shard_ids))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    @classmethod
    def parse(cls, spec: str) -> "ShardFaultSchedule":
        """Build a schedule from a CLI spec string.

        Format: ``;``-separated events, each ``ACTION@SECONDS=IDS`` with
        comma-separated shard ids — e.g. ``kill@60=1;recover@120=1``
        kills shard 1 at t=60 s and brings it back at t=120 s.
        """
        events = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                head, ids_part = chunk.split("=", 1)
                action, at_part = head.split("@", 1)
                shard_ids = tuple(
                    int(part) for part in ids_part.split(",") if part.strip()
                )
                event = ShardFaultEvent(
                    at_ms=float(at_part) * 1000.0,
                    action=action.strip().lower(),
                    shard_ids=shard_ids,
                )
            except ValueError as exc:
                raise ValueError(
                    f"bad shard-fault spec {chunk!r} (expected "
                    f"ACTION@SECONDS=ID[,ID...], e.g. kill@60=1): {exc}"
                ) from exc
            events.append(event)
        if not events:
            raise ValueError("shard-fault spec contains no events")
        return cls(events)


@dataclass(frozen=True)
class ControlPlaneBlackout:
    """A window during which the *control plane itself* is down.

    The simulator's mirror of the live runtime's gateway/control-loop
    crash injection: inside ``[start_ms, end_ms)`` arrivals are lost at
    the front door (created + shed, so SLO accounting still sees them)
    and monitor ticks do not run (no scaling, no supervision, no
    samples).  The instant the window closes counts as one recovery —
    the control plane restarts and resumes on the next tick boundary.
    """

    start_ms: float
    end_ms: float

    def __post_init__(self) -> None:
        if self.start_ms < 0:
            raise ValueError("start_ms must be >= 0")
        if self.end_ms <= self.start_ms:
            raise ValueError("end_ms must be > start_ms")

    @classmethod
    def parse(cls, spec: str) -> "ControlPlaneBlackout":
        """Build a blackout from a CLI spec ``START:END`` (seconds)."""
        try:
            start_part, end_part = spec.split(":", 1)
            return cls(
                start_ms=float(start_part) * 1000.0,
                end_ms=float(end_part) * 1000.0,
            )
        except ValueError as exc:
            raise ValueError(
                f"bad control-blackout spec {spec!r} "
                f"(expected START:END in seconds, e.g. 30:45): {exc}"
            ) from exc

    def covers(self, t_ms: float) -> bool:
        return self.start_ms <= t_ms < self.end_ms
