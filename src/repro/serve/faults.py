"""Chaos injection for the live serving runtime.

The simulator already owns fault models (:mod:`repro.cluster.faults`);
this module wires the *same* models into the wall-clock path so a live
run and a simulation inject identical failures:

* the per-task crash draw is the simulator's own
  :class:`~repro.cluster.faults.ContainerFaultModel`, consumed from the
  same rng stream and in the same order as the simulated container
  does, which keeps chaos-mode parity runs comparable;
* registry brownouts reuse :class:`~repro.cluster.faults
  .RegistryDegradation` with the scaled clock as its time source;
* the scheduled worker-group kill is :func:`~repro.cluster.faults
  .fail_node` executed against the live pools at a model timestamp.

Hangs (``hang_probability``) are live-only: the simulator has no notion
of a worker that neither completes nor crashes, which is exactly why
the live path needs the per-task execution timeout to recover them.

:class:`FaultReplay` is the live plane's one scripted-fault driver:
it walks the runtime's timeline on the scaled clock and enacts each
event through :data:`ACTIONS`, ahead of any control tick due at the
same instant.  Actions only *break* things; what recovers them stays in
the runtime, where a real crash would need it.
"""

from __future__ import annotations

import asyncio
import logging
import math
from typing import TYPE_CHECKING, Awaitable, Callable, Dict, List, Optional

import numpy as np

from repro.cluster.coldstart import ColdStartModel
from repro.cluster.faults import (
    ContainerFaultModel,
    FaultEvent,
    FaultTimeline,
    RegistryDegradation,
    apply_node_event,
    fail_node,
)
from repro.serve.clock import ScaledClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.serve.runtime import ServingRuntime
    from repro.workflow.pool import FunctionPool

logger = logging.getLogger(__name__)

#: Fates a chaos draw can assign to one task execution.
FATE_CRASH = "crash"
FATE_HANG = "hang"


class ChaosInjector:
    """Per-run fault state shared by every worker slot of a runtime."""

    def __init__(
        self,
        fault_model: Optional[ContainerFaultModel] = None,
        timeline: FaultTimeline = FaultTimeline(),
    ) -> None:
        #: The run's fate model — the object the simulator's pools take
        #: (None: no draw is consumed, keeping the exec-time stream
        #: bit-identical to a fault-free run).
        self.fault_model = fault_model
        self.timeline = timeline
        self.registry: Optional[RegistryDegradation] = None
        self.workers_killed = 0
        self.nodes_failed = 0

    @property
    def crash_point(self) -> float:
        return self.fault_model.crash_point

    def draw_fate(self, rng: np.random.Generator) -> Optional[str]:
        """Decide one execution's fate; matches the simulated container's
        draw order (exec time first, then the crash Bernoulli)."""
        model = self.fault_model
        if model is None:
            return None
        if model.should_crash(rng):
            return FATE_CRASH
        return FATE_HANG if model.should_hang(rng) else None

    def wrap_cold_start(
        self, base: ColdStartModel, clock: ScaledClock
    ) -> ColdStartModel:
        """Wrap *base* in the timeline's registry brownout, if any."""
        brownout = self.timeline.window("brownout")
        if brownout is None:
            return base
        self.registry = RegistryDegradation(
            base=base,
            start_ms=brownout.at_ms,
            end_ms=brownout.until_ms,
            factor=brownout.factor,
            now_fn=lambda: clock.now,
        )
        return self.registry

    @property
    def degraded_spawns(self) -> int:
        return self.registry.degraded_spawns if self.registry is not None else 0

    def kill_worker_group(
        self,
        cluster: "Cluster",
        pools: List["FunctionPool"],
        now_ms: float,
    ) -> int:
        """Kill the busiest node's entire worker group (``fail_node``).

        Returns the number of workers destroyed.  Their in-flight and
        locally queued tasks re-enter the global queues (counted as
        retries); capacity is replaced by the policy's own scaler or
        on-demand spawner, as in the simulator.
        """
        occupancy: Dict[int, int] = {node.node_id: 0 for node in cluster.nodes}
        for pool in pools:
            for container in pool.live_containers:
                occupancy[container.node.node_id] += 1
        if not occupancy:
            return 0
        target_id = max(occupancy, key=lambda nid: occupancy[nid])
        if occupancy[target_id] == 0:
            return 0
        target = next(n for n in cluster.nodes if n.node_id == target_id)
        destroyed = fail_node(target, pools, now_ms)
        self.workers_killed += destroyed
        self.nodes_failed += 1
        return destroyed


# ----------------------------------------------------------------------
# the scripted-fault driver: one task, one {kind: action} table
# ----------------------------------------------------------------------

def _kill_gateway(runtime: "ServingRuntime", what: str) -> None:
    """Crash semantics: the front door goes dead, unflushed journal
    records and every queued-but-not-executing task are lost."""
    runtime.gateway.dead = True
    dropped = runtime.journal.drop_unflushed() if runtime.journal else 0
    purged = sum(pool.purge_queued() for pool in runtime.pools.values())
    if purged:
        runtime.registry.counter(
            "control_plane_purged_tasks_total").inc(purged)
    logger.warning(
        "%s crash injected at t=%.0fms: %d queued tasks purged, "
        "%d unflushed journal records lost",
        what, runtime.clock.now, purged, dropped,
    )


async def _node_event(runtime: "ServingRuntime", event: FaultEvent) -> None:
    apply_node_event(
        event, runtime.cluster, list(runtime.pools.values()),
        runtime.clock.now, runtime.registry)


async def _kill_workers(runtime: "ServingRuntime", event: FaultEvent) -> None:
    runtime.chaos.kill_worker_group(
        runtime.cluster, list(runtime.pools.values()), runtime.clock.now)


async def _crash_gateway(runtime: "ServingRuntime", event: FaultEvent) -> None:
    """Kill the gateway in place; the runtime restores it from its own
    journal and checkpoint."""
    _kill_gateway(runtime, "gateway")
    runtime.registry.counter("control_plane_crashes_total").inc()
    runtime._recover_gateway(runtime.clock.now)


async def _crash_control(runtime: "ServingRuntime", event: FaultEvent) -> None:
    """Kill the control loop (scalers, governor and sampler state are
    lost); the runtime rebuilds it from the latest checkpoint."""
    dead = runtime.control
    await dead.stop()
    runtime.registry.counter("control_plane_crashes_total").inc()
    runtime._recover_control(dead)


#: How the live plane enacts each point event.  The ``brownout`` window
#: is not here: it wraps the cold-start model when the runtime is built
#: (:meth:`ChaosInjector.wrap_cold_start`).
ACTIONS: Dict[
    str, Callable[["ServingRuntime", FaultEvent], Awaitable[None]]
] = {
    "kill-node": _node_event,
    "recover-node": _node_event,
    "kill-workers": _kill_workers,
    "crash-gateway": _crash_gateway,
    "crash-control": _crash_control,
}


class FaultReplay:
    """Walks the run's fault timeline on the scaled clock.

    :meth:`run` is the replay task.  ``serve()`` re-raises its exception
    in its epilogue, so an action that raises fails the run instead of
    passing for a fault-free one.  :meth:`enacted_through` is the
    control loop's barrier: the simulator enacts a fault scripted at a
    tick's instant before that tick, while two live wall timers due at
    one instant fire in either order.
    """

    def __init__(self, runtime: "ServingRuntime") -> None:
        self.runtime = runtime
        self._pending: List[FaultEvent] = [
            e for e in runtime.faults.events if e.kind in ACTIONS]
        self._progress = asyncio.Event()

    @property
    def next_ms(self) -> float:
        """Model instant of the next event still to enact (inf: none)."""
        return self._pending[0].at_ms if self._pending else math.inf

    async def run(self) -> None:
        try:
            while self._pending:
                event = self._pending[0]
                await self.runtime.clock.sleep_until_ms(event.at_ms)
                await ACTIONS[event.kind](self.runtime, event)
                self._pending.pop(0)
                self._progress.set()
        finally:
            # Ended, failed or cancelled: nothing is left to wait for.
            self._pending.clear()
            self._progress.set()

    async def enacted_through(self, t_ms: float) -> None:
        """Return once every event scripted at or before *t_ms* has been
        enacted (or the replay has ended)."""
        while self.next_ms <= t_ms:
            self._progress.clear()
            await self._progress.wait()
