"""The live serving runtime: assemble, serve, drain, report.

:class:`ServingRuntime` is the wall-clock sibling of
:class:`repro.runtime.system.ServerlessSystem`.  The *offline* step —
stage plans, slack division, batch sizes, stage shares, predictor
resolution — is literally shared: the runtime instantiates a
``ServerlessSystem`` for planning and never starts its event engine.
At serve time the runtime builds live worker pools on a real cluster
accounting model, wires the simulator's scalers into a periodic control
loop, replays a trace through the gateway, drains gracefully, and
finalizes the very same :class:`~repro.metrics.collector.RunResult`
the simulator produces — one report path for both worlds.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import os
import pathlib
import signal
from functools import partial
from typing import Dict, List, Optional

from repro.cluster.faults import ContainerFaultModel, FaultTimeline
from repro.core.controlplane import (
    prewarm_opening_capacity,
    reclaim_idle_capacity,
)
from repro.core.policies import RMConfig
from repro.metrics.collector import MetricsCollector, RunResult
from repro.obs.export import atomic_write_text
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.prediction.base import Predictor
from repro.runtime.system import ClusterSpec, ServerlessSystem
from repro.serve.checkpoint import CheckpointManager
from repro.serve.clock import ScaledClock
from repro.serve.config import ServeOptions
from repro.serve.control import ControlLoop
from repro.serve.faults import ChaosInjector, FaultReplay
from repro.serve.gateway import Gateway
from repro.serve.journal import (
    HEARTBEAT_BASENAME,
    JOURNAL_BASENAME,
    RequestJournal,
)
from repro.serve.pool import WorkerPool, WorkFn, WorkLane
from repro.serve.recovery import (
    build_recovery_plan,
    restore_governor,
    restore_pool_sizes,
    restore_sampler,
    restore_store,
)
from repro.serve.replayer import TraceReplayer
from repro.serve.retry import RetryManager
from repro.traces.base import ArrivalTrace
from repro.workflow.job import Task
from repro.workloads.mixes import WorkloadMix

logger = logging.getLogger(__name__)

#: Hard ceiling on work-lane threads when sizing from cluster capacity.
MAX_EXECUTOR_WORKERS = 512


class ServingRuntime:
    """One policy + workload mix serving live traffic on the wall clock."""

    def __init__(
        self,
        config: RMConfig,
        mix: WorkloadMix,
        cluster_spec: ClusterSpec = ClusterSpec(),
        predictor: Optional[Predictor] = None,
        seed: int = 0,
        options: ServeOptions = ServeOptions(),
        work: Optional[WorkFn] = None,
        tracer: Optional[Tracer] = None,
        fault_model: Optional[ContainerFaultModel] = None,
        shed_expired: bool = False,
        faults: FaultTimeline = FaultTimeline(),
        drain_ms: float = 120_000.0,
    ) -> None:
        self.config = config
        self.mix = mix
        self.cluster_spec = cluster_spec
        self.seed = seed
        self.options = options
        #: The per-task fate model every pool draws from — the object a
        #: simulated run of the same scenario hands its pools.
        self.fault_model = fault_model
        #: Slack-aware shedding at the gateway: beyond ``max_pending``
        #: backpressure, arrivals whose residual slack is already
        #: negative given the first stage's monitored queueing delay
        #: are shed (admitting them only burns capacity).
        self.shed_expired = shed_expired
        #: The scripted faults ``FaultReplay`` enacts on the scaled
        #: clock.  What this plane cannot enact — or cannot recover from
        #: without a journal — is refused here, not when the event fires.
        self.faults = faults.validate(
            "live", n_nodes=cluster_spec.n_nodes,
            journaled=bool(options.journal_dir))
        if drain_ms < 0:
            raise ValueError("drain_ms must be >= 0")
        #: Model-ms bound on the graceful-drain wait after the trace ends.
        self.drain_ms = drain_ms
        self.work = work
        #: Optional request-span tracer; shares the span schema with the
        #: simulator (both record through the metrics collector).
        self.tracer = tracer
        #: One registry backs every counter of the run — gateway, pools,
        #: retry layer, collector — so totals always reconcile.
        self.registry = MetricsRegistry()
        # Offline planning step, shared verbatim with the simulator:
        # stage plans, batch sizes, slacks, shares, predictor resolution.
        # The planner's event engine is never started.
        self._planner = ServerlessSystem(
            config=config,
            mix=mix,
            cluster_spec=cluster_spec,
            predictor=predictor,
            seed=seed,
        )
        self.predictor = self._planner.predictor
        self.stage_shares = self._planner.stage_shares
        # Populated by serve().
        self.clock: Optional[ScaledClock] = None
        self.pools: Dict[str, WorkerPool] = {}
        self.gateway: Optional[Gateway] = None
        self.control: Optional[ControlLoop] = None
        self.replayer: Optional[TraceReplayer] = None
        self.chaos: Optional[ChaosInjector] = None
        self.fault_replay: Optional[FaultReplay] = None
        self.retry_manager: Optional[RetryManager] = None
        self.drain_completed: bool = False
        # Durability plumbing (None unless options.journal_dir is set).
        self.journal: Optional[RequestJournal] = None
        self.checkpointer: Optional[CheckpointManager] = None
        #: True when the run ended via SIGTERM/SIGINT/request_shutdown
        #: instead of exhausting its trace.
        self.interrupted: bool = False
        self._stop_event: Optional[asyncio.Event] = None
        self._signals_installed: List[signal.Signals] = []

    # -- wiring ------------------------------------------------------------

    def _build(self, lane: Optional[WorkLane]) -> None:
        # The planner's per-run substrate, shared with both simulator
        # engines: fresh registry, cluster, RNG streams, arrival sampler,
        # energy meter.
        planner = self._planner
        planner._build_substrate()
        self.registry = planner.registry
        self.cluster = planner.cluster
        self._rng_apps = planner._rng_apps
        self.sampler = planner.sampler
        self.energy_meter = planner.energy_meter
        self.clock = ScaledClock(self.options.time_scale)
        # The request log: per-request statistics read each Job.
        self.metrics = MetricsCollector(
            self.energy_meter, tracer=self.tracer, registry=self.registry,
            keep_completed=True,
        )
        # Durability layer: journal + checkpointer only exist when a
        # journal dir is configured — with them off, every hot-path
        # branch below collapses to the pre-durability code.
        self.journal = None
        self.checkpointer = None
        if self.options.journal_dir:
            directory = pathlib.Path(self.options.journal_dir)
            self.journal = RequestJournal(
                directory / JOURNAL_BASENAME, registry=self.registry)
            self.checkpointer = CheckpointManager(
                directory,
                interval_ms=self.options.checkpoint_interval_ms,
                registry=self.registry,
            )
        self.pools = {}
        self.gateway = self._make_gateway()
        # Chaos + resilience wiring: the injector reuses the simulator's
        # fault models; the retry manager owns the attempt and deadline
        # budgets and the dead-letter queue, and reports give-ups to the
        # gateway so every admitted job terminates (completed xor failed).
        self.chaos = (
            ChaosInjector(self.fault_model, self.faults)
            if self.fault_model is not None
            or self.faults.of("brownout", "kill-workers")
            else None
        )
        cold_start = planner.cold_start_model
        if self.chaos is not None:
            cold_start = self.chaos.wrap_cold_start(cold_start, self.clock)
        # Pools and the retry layer call through the runtime's dispatch
        # shims, not a bound gateway method: after a gateway crash the
        # replacement takes over without rewiring every pool.
        self.retry_manager = RetryManager(
            policy=self.options.retry,
            clock=self.clock,
            on_give_up=self._dispatch_task_failed,
            registry=self.registry,
            journal=self.journal,
        )
        for name in self.mix.function_names():
            self.pools[name] = WorkerPool(
                clock=self.clock,
                lane=lane,
                work=self.work,
                retry_manager=self.retry_manager,
                chaos=self.chaos,
                on_task_finished=self._dispatch_task_finished,
                fault_model=self.fault_model,
                **{**planner._pool_args(name), "cold_start": cold_start},
            )
        reclaim = partial(reclaim_idle_capacity, self.pools)
        for pool in self.pools.values():
            pool.reclaim_callback = reclaim
        self.fault_replay = FaultReplay(self)
        self.control = self._make_control()

    def _make_gateway(self) -> Gateway:
        """One gateway epoch (initial build and every crash recovery)."""
        return Gateway(
            clock=self.clock,
            pools=self.pools,
            mix=self.mix,
            metrics=self.metrics,
            sampler=self.sampler,
            rng=self._rng_apps,
            max_pending=self.options.max_pending,
            shed_expired=self.shed_expired,
            journal=self.journal,
        )

    def _make_control(self) -> ControlLoop:
        """One control-plane brain: scalers + governor + loop.

        Called at build time and again after a control-loop crash —
        the scalers and governor are brain state, so a crash loses and
        rebuilds them (the checkpoint restores what it can).
        """
        checkpoint = None
        if self.checkpointer is not None:
            checkpoint = lambda now_ms: (  # noqa: E731
                self.checkpointer.maybe(now_ms, self._snapshot))
        return ControlLoop(
            clock=self.clock,
            pools=self.pools,
            cluster=self.cluster,
            metrics=self.metrics,
            config=self.config,
            predictor=self.predictor,
            sampler=self.sampler,
            stage_shares=self.stage_shares,
            seed=self.seed + 3,
            checkpoint=checkpoint,
            faults=self.fault_replay,
        )

    # -- dispatch shims (stable across gateway epochs) ---------------------

    def _dispatch_task_finished(self, task: Task) -> None:
        self.gateway.on_task_finished(task)

    def _dispatch_task_failed(self, task: Task, reason: str) -> None:
        self.gateway.on_task_failed(task, reason)

    # -- durability: snapshot, crash injection, recovery -------------------

    def _snapshot(self, now_ms: float) -> Dict:
        """The control-plane state a checkpoint preserves.

        Request state is deliberately absent — the journal, not the
        checkpoint, is authoritative for which jobs exist.
        """
        governor = self.control.governor if self.control is not None else None
        governor_state = None
        if governor is not None and math.isfinite(governor._last_spawn_ms):
            governor_state = {"last_spawn_ms": governor._last_spawn_ms}
        return {
            "policy": self.config.name,
            "seed": self.seed,
            "t_ms": now_ms,
            "pools": {
                name: {"containers": pool.n_containers}
                for name, pool in self.pools.items()
            },
            "sampler": {
                "arrivals_ms": [float(t) for t in self.sampler._arrivals]
            },
            "governor": governor_state,
            "store": self._planner.store.snapshot(),
            "in_flight": self.gateway.in_flight if self.gateway else 0,
        }

    def _readmit(self, requeue: List, expired: List) -> None:
        """Hand recovered journal entries to the current gateway epoch."""
        for entry in requeue:
            self.gateway.requeue_recovered(entry)
        for entry in expired:
            self.gateway.expire_recovered(entry)
        self.registry.counter("recoveries_total").inc()
        if requeue:
            self.registry.counter("jobs_requeued_on_recovery").inc(
                len(requeue))

    def _recover_gateway(self, now_ms: float) -> None:
        """Rebuild the gateway from checkpoint + journal tail."""
        checkpoint = (
            self.checkpointer.load_latest() if self.checkpointer else None
        )
        self.gateway = self._make_gateway()
        self.gateway.reset_in_flight()
        if checkpoint is not None:
            restore_pool_sizes(self.pools, checkpoint)
            restore_sampler(self.sampler, checkpoint)
            restore_store(self._planner.store, checkpoint)
        records = RequestJournal.read_records(self.journal.path)
        slo_ms = {app.name: app.slo_ms for app in self.mix.applications}
        plan = build_recovery_plan(records, now_ms, slo_ms.get)
        self._readmit(plan.requeue, plan.expired)
        if plan.deduped:
            self.registry.counter("jobs_deduped_on_recovery").inc(
                len(plan.deduped)
            )
        # Fresh post-recovery snapshot: a second crash must restore to
        # this epoch's state, not the pre-crash one.
        if self.checkpointer is not None:
            self.checkpointer.save(self._snapshot(now_ms), now_ms)
        logger.warning(
            "gateway recovered at t=%.0fms: %d jobs requeued, %d expired, "
            "%d already terminal (deduped)",
            now_ms, len(plan.requeue), len(plan.expired), len(plan.deduped),
        )

    def _recover_control(self, dead: ControlLoop) -> None:
        """Rebuild the control loop after *dead* (already stopped) died."""
        now = self.clock.now
        checkpoint = (
            self.checkpointer.load_latest() if self.checkpointer else None
        )
        self.control = self._make_control()
        # The tick/error tallies belong to the measurement harness, not
        # the brain: carry them so run totals stay whole.
        self.control.ticks = dead.ticks
        self.control.tick_errors = dead.tick_errors
        if checkpoint is not None:
            restore_governor(self.control.governor, checkpoint)
            restore_sampler(self.sampler, checkpoint)
        self.control.start()
        self.registry.counter("recoveries_total").inc()
        logger.warning(
            "control loop crashed and recovered at t=%.0fms "
            "(checkpoint age: %s)",
            now,
            "none"
            if checkpoint is None
            else f"{now - float(checkpoint.get('t_ms', now)):.0f}ms",
        )

    # -- liveness beats ----------------------------------------------------

    def _write_heartbeat(self, now_ms: float) -> None:
        """Atomically publish one liveness beat — on the event-loop
        thread, once an interval: no fsync."""
        atomic_write_text(
            pathlib.Path(self.options.journal_dir) / HEARTBEAT_BASENAME,
            json.dumps({
                "shard_id": 0,
                "t_ms": float(now_ms),
                "pid": os.getpid(),
            }),
            fsync=False)
        self.registry.counter("shard_heartbeats_total").inc()

    def _start_heartbeats(self) -> Optional[asyncio.Task]:
        """Publish liveness beats until drain."""
        interval = self.options.heartbeat_interval_ms
        if interval is None or not self.options.journal_dir:
            return None

        async def _beat() -> None:
            while True:
                self._write_heartbeat(self.clock.now)
                await self.clock.sleep_ms(interval)

        return asyncio.get_running_loop().create_task(
            _beat(), name="shard-heartbeat"
        )

    # -- graceful shutdown -------------------------------------------------

    def request_shutdown(self) -> None:
        """Ask the run to stop: finish nothing new, drain, report.

        Safe to call from a signal handler or another task; idempotent.
        """
        if self._stop_event is not None and not self._stop_event.is_set():
            self._stop_event.set()

    def _install_signal_handlers(self, loop: asyncio.AbstractEventLoop) -> None:
        self._signals_installed = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-main thread or a platform without signal support:
                # graceful shutdown stays available via request_shutdown.
                continue
            self._signals_installed.append(sig)

    def _remove_signal_handlers(self, loop: asyncio.AbstractEventLoop) -> None:
        for sig in self._signals_installed:
            try:
                loop.remove_signal_handler(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        self._signals_installed = []

    # -- execution ---------------------------------------------------------

    async def serve(self, trace: ArrivalTrace) -> RunResult:
        """Serve *trace* end to end on the wall clock; returns metrics."""
        loop = asyncio.get_running_loop()
        lane = WorkLane(self._executor_workers(), loop)
        self.interrupted = False
        try:
            self._build(lane)
            assert self.clock is not None and self.gateway is not None
            # The plan, the prewarm and the opening checkpoint (an
            # fsync) happen before the clock starts, or the first
            # arrivals are late by their length.
            self.replayer = TraceReplayer(trace, self.mix, seed=self.seed)
            # Start from steady state, exactly like the simulator.
            prewarm_opening_capacity(
                self.pools, trace, self.config, self.stage_shares)
            # Opening checkpoint: a crash before the first control tick
            # must still find the post-prewarm pool sizes on disk.
            if self.checkpointer is not None:
                self.checkpointer.maybe(self.clock.now, self._snapshot)
            self.clock.start()
            self.control.start()
            fault_replay = loop.create_task(
                self.fault_replay.run(), name="fault-replay")
            heartbeats = self._start_heartbeats()
            # The replayer resolves the gateway per arrival: a crash
            # mid-replay swaps the epoch under it transparently.
            self._stop_event = asyncio.Event()
            self._install_signal_handlers(loop)
            replay_task = loop.create_task(
                self.replayer.replay(lambda: self.gateway, self.clock),
                name="trace-replay",
            )
            stop_task = loop.create_task(
                self._stop_event.wait(), name="shutdown-wait"
            )
            done, _ = await asyncio.wait(
                {replay_task, stop_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
            if replay_task in done:
                stop_task.cancel()
                await replay_task  # propagate replay errors, if any
            else:
                # SIGTERM/SIGINT (or request_shutdown): stop offering
                # load, then drain what is in flight under the grace
                # budget and report honestly — exit 0, not a stacktrace.
                self.interrupted = True
                replay_task.cancel()
                try:
                    await replay_task
                except asyncio.CancelledError:
                    pass
                logger.warning(
                    "shutdown requested at t=%.0fms: %d arrivals replayed "
                    "of %d planned; draining",
                    self.clock.now,
                    len(self.replayer.replayed_ms),
                    len(self.replayer),
                )
            # Graceful drain: let in-flight jobs finish (bounded), with
            # the control loop still scaling/sampling, as in the sim.
            drain_ms = self.drain_ms
            if self.interrupted and self.options.drain_grace_ms is not None:
                drain_ms = self.options.drain_grace_ms
            self.drain_completed = await self.gateway.drained(
                timeout_ms=drain_ms
            )
            await self.control.stop()
            if heartbeats is not None:
                heartbeats.cancel()
            # An action that raised fails the run here (a dead injector
            # must never look like a fault-free pass); events scripted
            # past the drain never fire.
            if fault_replay.done():
                fault_replay.result()
            else:
                fault_replay.cancel()
            # The simulator's drain always reaches a monitor tick
            # (virtual time jumps to it); a short live run can finish
            # before the first one.  Such a run gets one closing sample,
            # so it does not report zero containers; a run a tick
            # sampled gets none, and its samples are the simulator's.
            if not self.metrics.sample_times:
                self.control.guard(
                    "sample", self.control.sample, self.clock.now)
            for pool in self.pools.values():
                await pool.shutdown()
            # Durable epilogue: one final snapshot + a flushed, closed
            # journal, so a post-mortem (or the conservation check in
            # the robustness study) sees the complete record.
            if self.checkpointer is not None:
                self.checkpointer.save(
                    self._snapshot(self.clock.now), self.clock.now
                )
            if self.journal is not None:
                self.journal.close()
        finally:
            self._remove_signal_handlers(loop)
            self._stop_event = None
            lane.close()
        return self.metrics.finalize(
            policy=self.config.name,
            mix=self.mix.name,
            trace=trace.name,
            duration_ms=self.clock.now,
            pools=self.pools,
            tick_errors=self.control.tick_errors,
            degraded_spawns=self.chaos.degraded_spawns if self.chaos else 0,
            shed_jobs=self.gateway.shed,
        )

    def _executor_workers(self) -> int:
        if self.options.executor_workers:
            return self.options.executor_workers
        capacity = self.cluster_spec.n_nodes * self.cluster_spec.cores_per_node
        return max(4, min(int(capacity * 2), MAX_EXECUTOR_WORKERS))

    def run(self, trace: ArrivalTrace) -> RunResult:
        """Synchronous entry point: serve *trace* in a fresh event loop."""
        return asyncio.run(self.serve(trace))

    @property
    def shed_jobs(self) -> int:
        """All sheds: backpressure + deadline (``shed_deadline`` ⊂ this)."""
        return self.gateway.shed if self.gateway is not None else 0


def serve_trace(
    policy_name: str,
    mix: WorkloadMix,
    trace: ArrivalTrace,
    cluster_spec: ClusterSpec = ClusterSpec(),
    predictor: Optional[Predictor] = None,
    seed: int = 0,
    options: ServeOptions = ServeOptions(),
    work: Optional[WorkFn] = None,
    tracer: Optional[Tracer] = None,
    fault_model: Optional[ContainerFaultModel] = None,
    shed_expired: bool = False,
    faults: FaultTimeline = FaultTimeline(),
    drain_ms: float = 120_000.0,
    **config_overrides,
) -> RunResult:
    """Convenience one-call live runner, mirroring ``run_policy``: build
    the :class:`~repro.scenario.Scenario` these arguments describe and
    run it."""
    from repro.scenario import Scenario, fault_pairs

    return Scenario.of(
        policy_name, mix, trace, cluster_spec, seed,
        live=options,
        faults=fault_pairs(fault_model, faults),
        shed_expired=shed_expired,
        drain_ms=drain_ms,
        **config_overrides,
    ).run(tracer=tracer, predictor=predictor, work=work)
