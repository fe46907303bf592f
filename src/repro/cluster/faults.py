"""Failure injection for resilience testing.

The paper evaluates a healthy cluster; a production resource manager
must also survive container crashes, node failures and registry
slowdowns.  The fault models the test suite injects to verify the RM
degrades gracefully (tasks retried, capacity re-provisioned, no
deadlock): :class:`ContainerFaultModel` (per-task crash / hang draw),
:class:`RegistryDegradation` (cold-start inflation over a window),
:func:`fail_node` (evict a node's containers, requeue their tasks) —
and :class:`FaultTimeline`, the one scripted-fault value every entry
point takes: :class:`FaultEvent` s parsed from one grammar (CLI
``--faults``), validated per plane when the run is built, replayed by
one driver per plane (DESIGN.md "Fault timeline").
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.coldstart import ColdStartModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.workflow.pool import FunctionPool


@dataclass
class ContainerFaultModel:
    """Bernoulli per-task fate model, one instance for every pool of a
    run on either plane.

    Attributes:
        crash_probability: chance that any given task execution crashes
            its container partway through.
        crash_point: fraction of the execution time at which the crash
            manifests (the work is lost; the task is retried).
        hang_probability: chance that an execution neither completes
            nor crashes.  Live-only: the per-task execution timeout is
            what recovers a hang, and a simulated container has none.
    """

    crash_probability: float = 0.0
    crash_point: float = 0.5
    hang_probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.crash_probability <= 1.0:
            raise ValueError("crash_probability must be within [0, 1]")
        if not 0.0 < self.crash_point <= 1.0:
            raise ValueError("crash_point must be in (0, 1]")
        if not 0.0 <= self.hang_probability <= 1.0:
            raise ValueError("hang_probability must be within [0, 1]")

    def should_crash(self, rng: np.random.Generator) -> bool:
        return (
            self.crash_probability > 0.0
            and rng.random() < self.crash_probability
        )

    def should_hang(self, rng: np.random.Generator) -> bool:
        return (
            self.hang_probability > 0.0
            and rng.random() < self.hang_probability
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
            container.free = container.batch_size
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


#: Every scripted fault kind, in same-instant replay order.
KINDS = (
    "kill-node", "recover-node", "kill-shard", "recover-shard", "blackout",
    "brownout", "kill-workers", "crash-gateway", "crash-control",
)
NODE_KINDS = frozenset(KINDS[:2])
SHARD_KINDS = frozenset(KINDS[2:4])
#: Kinds that span ``[at_ms, until_ms)``; a run enacts each at most
#: once (one window model).
WINDOW_KINDS = frozenset(("blackout", "brownout"))
#: Kinds a live run recovers from by replaying its write-ahead journal.
JOURNAL_KINDS = frozenset(("crash-gateway", "crash-control"))
#: The kinds each plane enacts; ``validate`` refuses the rest.
PLANE_KINDS: Dict[str, frozenset] = {
    "sim": NODE_KINDS | {"blackout"},
    "vector": frozenset({"blackout"}),
    "sim-sharded": SHARD_KINDS,
    "live": NODE_KINDS | {"brownout", "kill-workers", "crash-gateway",
                          "crash-control"},
}
_CHUNK = re.compile(
    r"([a-z-]+)@([^:=x]+)(?::([^=x]+))?(?:=([^x]*))?(?:x(.+))?")


def _num(value: float) -> str:
    return repr(value).removesuffix(".0")


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault: *kind* strikes at ``at_ms`` (model time).
    ``ids`` names the nodes or shards of a ``*-node`` / ``*-shard`` event
    (several ids = a correlated "zone" failure at one instant),
    ``until_ms`` closes a ``blackout`` / ``brownout`` window, ``factor``
    is the brownout's cold-start multiplier."""

    at_ms: float
    kind: str
    ids: Tuple[int, ...] = ()
    until_ms: Optional[float] = None
    factor: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (known: {', '.join(KINDS)})")
        if not (math.isfinite(self.at_ms) and self.at_ms >= 0.0):
            raise ValueError("at_ms must be finite and >= 0")
        ids = tuple(int(i) for i in self.ids)
        takes_ids = self.kind in NODE_KINDS | SHARD_KINDS
        if (takes_ids != bool(ids) or any(i < 0 for i in ids)
                or len(set(ids)) != len(ids)):
            raise ValueError(f"{self.kind} takes " + (
                "distinct ids >= 0 (=ID[,ID...])" if takes_ids else "no ids"))
        is_window = self.kind in WINDOW_KINDS
        if is_window != (self.until_ms is not None) or (
                is_window and not self.until_ms > self.at_ms):
            raise ValueError(f"{self.kind} takes " + (
                "a non-empty window (START:END)" if is_window else "no :END"))
        if (self.factor is not None) != (self.kind == "brownout") or (
                self.factor is not None and not self.factor >= 1.0):  # or NaN
            raise ValueError("a brownout, and only a brownout, takes xFACTOR >= 1")
        object.__setattr__(self, "ids", ids)

    def covers(self, t_ms: float) -> bool:
        """Whether *t_ms* falls inside this window event."""
        return self.at_ms <= t_ms < self.until_ms

    def __str__(self) -> str:
        text = f"{self.kind}@{_num(self.at_ms / 1000.0)}"
        if self.until_ms is not None:
            text += f":{_num(self.until_ms / 1000.0)}"
        if self.ids:
            text += "=" + ",".join(map(str, self.ids))
        return text + (f"x{_num(self.factor)}" if self.factor else "")


@dataclass(frozen=True)
class FaultTimeline:
    """A deterministic script of faults, in canonical replay order:
    events sort by time, then by :data:`KINDS` rank, so two spellings of
    one script are equal and every plane replays same-instant events in
    one order.  The spec grammar is ``;``-separated ``KIND@START[:END]
    [=IDS][xFACTOR]`` chunks, times in seconds — e.g. ``kill-node@30=0,1;
    recover-node@60=0,1;brownout@10:20x3;crash-gateway@4``."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(sorted(
            self.events, key=lambda e: (
                e.at_ms, KINDS.index(e.kind), e.ids,
                e.until_ms or 0.0, e.factor or 0.0))))

    def __len__(self) -> int:
        return len(self.events)

    def __str__(self) -> str:
        return ";".join(map(str, self.events))

    @classmethod
    def parse(cls, spec: str) -> "FaultTimeline":
        """Build a timeline from a spec string (see the class docstring)."""
        events = []
        for chunk in filter(None, (c.strip().lower() for c in spec.split(";"))):
            try:
                match = _CHUNK.fullmatch(chunk)
                if match is None:
                    raise ValueError("does not match the grammar")
                kind, start, end, ids, factor = match.groups()
                events.append(FaultEvent(
                    at_ms=float(start) * 1000.0,
                    kind=kind,
                    ids=tuple(int(i) for i in (ids or "").split(",") if i),
                    until_ms=float(end) * 1000.0 if end else None,
                    factor=float(factor) if factor else None,
                ))
            except ValueError as exc:
                raise ValueError(
                    f"bad fault spec {chunk!r} (expected KIND@START[:END]"
                    f"[=IDS][xFACTOR], e.g. kill-node@30=0,1): {exc}") from exc
        if not events:
            raise ValueError("fault spec contains no events")
        return cls(tuple(events))

    def of(self, *kinds: str) -> Tuple[FaultEvent, ...]:
        """The events of the given kinds, in replay order."""
        return tuple(e for e in self.events if e.kind in kinds)

    def window(self, kind: str) -> Optional[FaultEvent]:
        """The run's single *kind* window, or None."""
        return next(iter(self.of(kind)), None)

    def validate(self, plane: str, n_nodes: Optional[int] = None,
                 n_shards: Optional[int] = None,
                 journaled: bool = True) -> "FaultTimeline":
        """Refuse, when the run is built, what *plane* cannot enact: a
        kind outside :data:`PLANE_KINDS`, a node/shard id out of range,
        a second window of a :data:`WINDOW_KINDS` kind, a
        :data:`JOURNAL_KINDS` crash on a live run that keeps no journal
        (*journaled* false).  A shard kind on a lone simulated shard is
        refused as such; the live plane enacts none.  Returns
        self."""
        enacted = PLANE_KINDS[plane]
        for event in self.events:
            if not journaled and event.kind in JOURNAL_KINDS:
                raise ValueError(
                    "control-plane crash injection requires journal_dir "
                    "(there is nothing to recover from otherwise)")
            if (n_shards == 1 and event.kind in SHARD_KINDS
                    and plane != "live"):
                raise ValueError(
                    "shard failover needs shards > 1 (a lone shard has "
                    "no survivor to take its keyspace)")
            if event.kind not in enacted:
                raise ValueError(
                    f"the {plane} plane does not enact {event.kind!r} "
                    f"(it enacts: {', '.join(sorted(enacted))})")
            limit = n_nodes if event.kind in NODE_KINDS else n_shards
            if event.ids and limit is not None and max(event.ids) >= limit:
                raise ValueError(
                    f"{event} is out of range: the run has {limit} "
                    f"{'nodes' if event.kind in NODE_KINDS else 'shards'}")
        for kind in WINDOW_KINDS:
            if len(self.of(kind)) > 1:
                raise ValueError(f"at most one {kind} per run")
        return self


def apply_node_event(event: FaultEvent, cluster,
                     pools: Sequence["FunctionPool"], now_ms: float,
                     registry) -> int:
    """Enact one ``kill-node`` / ``recover-node`` event; returns the
    containers lost.  Already-failed (already-live) nodes are skipped, so
    overlapping scripts stay idempotent; both planes count every applied
    event in *registry*, so sim-vs-live parity is checkable from metrics."""
    destroyed = 0
    for node_id in event.ids:
        node = cluster.nodes[node_id]
        if event.kind == "kill-node":
            if node.failed:
                continue
            # Unplaceable first, then evict its containers.
            node.fail()
            destroyed += fail_node(node, list(pools), now_ms)
            registry.counter("cluster_node_kills_total").inc()
        elif node.failed:
            node.recover(now_ms)
            registry.counter("cluster_node_recoveries_total").inc()
    if destroyed:
        registry.counter("cluster_node_containers_lost_total").inc(destroyed)
    return destroyed
