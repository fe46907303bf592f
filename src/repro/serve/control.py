"""The periodic control loop: the live analogue of the sim's monitor.

Every monitoring interval (the paper's 10 s cadence, wall-scaled) one
tick runs: worker supervision (respawn capacity lost to failures)
first, so the scalers see post-failure capacity; then the
shared :class:`~repro.core.controlplane.ControlPlane` sequence — the
very scalers, order and per-step ``guard`` the simulator's monitor runs
— and last the durability checkpoint.  Only the clock underneath
differs.

The loop is the runtime's one periodic heartbeat, so every step,
including the two live-only ones, runs through the control plane's
``guard``: a step raising degrades that one step for that one tick —
never the loop, which would silently freeze scaling and supervision
for the rest of the run.  Failures are logged and counted
(``tick_errors``).
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Optional

from repro.cluster.cluster import Cluster
from repro.core.controlplane import ControlPlane
from repro.core.policies import RMConfig
from repro.core.scaling import (
    HPAScaler,
    ProactiveScaler,
    ReactiveScaler,
    SpawnGovernor,
)
from repro.metrics.collector import MetricsCollector
from repro.serve.clock import ScaledClock
from repro.serve.pool import WorkerPool


class ControlLoop(ControlPlane):
    """Periodic supervision + scaling + sampling on the scaled clock."""

    def __init__(
        self,
        clock: ScaledClock,
        pools: Dict[str, WorkerPool],
        cluster: Cluster,
        metrics: MetricsCollector,
        config: RMConfig,
        reactive: Optional[ReactiveScaler] = None,
        hpa: Optional[HPAScaler] = None,
        proactive: Optional[ProactiveScaler] = None,
        governor: Optional[SpawnGovernor] = None,
        checkpoint: Optional[Callable[[float], None]] = None,
    ) -> None:
        super().__init__(
            config, pools, metrics.registry,
            sample=lambda now_ms: metrics.sample(pools, cluster.nodes, now_ms),
            governor=governor, reactive=reactive, hpa=hpa,
            proactive=proactive,
        )
        self.clock = clock
        self.cluster = cluster
        self.metrics = metrics
        #: Optional durability hook (``CheckpointManager.maybe`` bound
        #: to the runtime's snapshot): called once per tick, so a dead
        #: control loop stops checkpointing — which is exactly what a
        #: control-plane crash should look like to the recovery path.
        self.checkpoint = checkpoint
        self.ticks = 0
        #: Replacement workers spawned by the supervisor for capacity
        #: lost to crashes/timeouts/node kills.
        self.supervised_respawns = 0
        self._task: Optional[asyncio.Task] = None

    def _supervise(self, now_ms: float) -> None:
        for pool in self.pools.values():
            supervise = getattr(pool, "supervise", None)
            if supervise is not None:
                self.supervised_respawns += supervise(now_ms)

    def tick(self, now_ms: float) -> None:
        """One monitoring interval: supervise, the shared sequence,
        checkpoint."""
        self.guard("supervise", self._supervise, now_ms)
        super().tick(now_ms)
        if self.checkpoint is not None:
            self.guard("checkpoint", self.checkpoint, now_ms)
        self.ticks += 1

    async def _run(self) -> None:
        interval = self.config.monitor_interval_ms
        # Restart-safe: a loop (re)started mid-run resumes at the next
        # interval boundary instead of replaying every missed tick as a
        # burst (n=1 from t=0 is the original behaviour for t=0 starts).
        n = int(self.clock.now // interval) + 1
        while True:
            # Absolute deadlines: a slow tick shortens the next sleep
            # instead of shifting every subsequent tick.
            await self.clock.sleep_until_ms(n * interval)
            self.tick(self.clock.now)
            # A tick that costs more than an interval finds its next
            # deadline already past, and sleep_until_ms then returns
            # without yielding: unchecked, this coroutine would never
            # await again and starve the whole event loop.  Yield once,
            # then resume at the next boundary still ahead, counting
            # the ones passed over (not the blackout's skipped ticks).
            await asyncio.sleep(0)
            behind = int(self.clock.now // interval) - n
            if behind > 0:
                self.registry.counter(
                    "control_loop_ticks_overrun_total").inc(behind)
            n += 1 + max(behind, 0)

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="control-loop"
            )

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
