"""The end-to-end serverless platform simulation.

:class:`ServerlessSystem` assembles the substrates — event engine,
cluster, function pools, state store, scalers, predictor, metrics — into
the system of Figure 5 and executes an arrival trace under one of the
five resource-management policies.

The request path mirrors the paper's prototype: a job (function-chain
invocation) arrives at the scheduler, each stage's task enters that
function's global queue, the dispatcher packs tasks into containers
greedily, the per-stage load monitors feed the load balancer, and the
proactive predictor pre-spawns containers every monitoring interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.coldstart import ColdStartModel
from repro.cluster.energy import EnergyMeter
from repro.cluster.faults import FaultTimeline, apply_node_event
from repro.core.controlplane import (
    ControlPlane,
    prewarm_opening_capacity,
    reclaim_idle_capacity,
)
from repro.core.policies import Provisioning, RMConfig
from repro.core.poolsurface import PoolSurface
from repro.core.scaling import HPA_TARGET_CONCURRENCY
from repro.core.slack import (
    build_stage_plan,
    function_batch_sizes,
    function_response_ms,
    function_slack_ms,
)
from repro.core.vectorized import presample_app_indices
from repro.metrics.collector import MetricsCollector, RunResult
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.prediction.base import Predictor
from repro.prediction.classical import EWMAPredictor, MovingWindowAveragePredictor
from repro.prediction.guarded import GuardedPredictor
from repro.prediction.windowed import SAMPLE_WINDOW_MS, WindowedMaxSampler
from repro.sim.engine import ENGINE_VECTOR, Simulator, resolve_engine
from repro.sim.process import CoalescedTicker
from repro.traces.base import ArrivalTrace
from repro.workflow.lifecycle import LOST_BLACKOUT, RequestLifecycle
from repro.workflow.pool import FunctionPool
from repro.workflow.statestore import StateStore
from repro.workloads.mixes import WorkloadMix


@dataclass(frozen=True)
class ClusterSpec:
    """Cluster dimensions (prototype default: 80 compute cores)."""

    n_nodes: int = 5
    cores_per_node: float = 16.0
    memory_per_node_mb: float = 192 * 1024.0


#: Applications drawn per refill of the arrival path's buffer.
#: ``Generator.random(k)`` yields the same doubles as ``k`` scalar
#: draws, so the chunk size never shows in a result.
_APP_CHUNK = 1024

#: Predictors the system can construct itself (no offline training).
_UNTRAINED_PREDICTORS = {
    "ewma": EWMAPredictor,
    "mwa": MovingWindowAveragePredictor,
}


class ServerlessSystem:
    """One policy + workload mix bound to a cluster, ready to run."""

    def __init__(
        self,
        config: RMConfig,
        mix: WorkloadMix,
        cluster_spec: ClusterSpec = ClusterSpec(),
        predictor: Optional[Predictor] = None,
        seed: int = 0,
        drain_ms: float = 120_000.0,
        fault_model=None,
        tracer: Optional[Tracer] = None,
        shed_expired: bool = False,
        faults: FaultTimeline = FaultTimeline(),
        engine: Optional[str] = None,
    ) -> None:
        self.config = config
        self.mix = mix
        self.cluster_spec = cluster_spec
        self.seed = seed
        self.drain_ms = drain_ms
        #: Concrete engine driving run(): "fast" (the event loop, the
        #: default) or "vector" (DESIGN.md section 13).
        self.engine = resolve_engine(engine)
        #: Optional request-span tracer.  The simulator and the live
        #: runtime both record spans through the metrics collector, so
        #: either path emits the identical span schema.
        self.tracer = tracer
        #: Per-run metrics registry backing every pool/collector counter
        #: (re-created by each ``_build``).
        self.registry = MetricsRegistry()
        #: Optional ContainerFaultModel applied to every pool (chaos
        #: mode); the live runtime takes the same object, which is what
        #: makes sim-vs-live chaos parity meaningful.
        if fault_model is not None and fault_model.hang_probability > 0.0:
            raise ValueError(
                "hang_probability is live-only: a simulated container "
                "has no execution timeout to recover a hang")
        self.fault_model = fault_model
        #: Slack-aware admission control, mirroring serve's
        #: ``--shed-expired``: arrivals whose slack is already gone (and
        #: overloaded downstream stages' already-dead tasks) are shed
        #: instead of queued.  Shed requests still count as created.
        self.shed_expired = shed_expired
        #: The scripted faults ``attach`` replays: node kills/recoveries
        #: and at most one control-plane blackout — the mirror of the
        #: live runtime's gateway/control-loop crashes: arrivals inside
        #: the window are lost at the front door (created + shed, so SLO
        #: accounting still sees them) and monitor ticks do not run.
        #: What this engine cannot enact is refused here, not mid-run.
        self.faults = faults.validate(
            "vector" if self.engine == ENGINE_VECTOR else "sim",
            n_nodes=cluster_spec.n_nodes)
        self.blackout = self.faults.window("blackout")
        self.cold_start_model = ColdStartModel()
        self.predictor = self._resolve_predictor(predictor)
        # Offline step: per-application stage plans (slack, batch sizes).
        self.plans = {
            app.name: build_stage_plan(
                app,
                division=config.slack_division,
                max_batch=config.max_batch,
            )
            for app in mix.applications
        }
        self.batch_sizes = function_batch_sizes(self.plans.values())
        if config.provisioning is Provisioning.HPA:
            # App-agnostic: every batch is the autoscaler's concurrency
            # target (Knative's containerConcurrency), not slack-derived.
            self.batch_sizes = dict.fromkeys(
                self.batch_sizes, min(HPA_TARGET_CONCURRENCY, config.max_batch))
        self.stage_slacks = function_slack_ms(self.plans.values())
        self.stage_responses = function_response_ms(self.plans.values())
        self.stage_shares = self._stage_shares()
        #: Node ids that start cordoned (sharded mode only; see
        #: :mod:`repro.shard`).  None — the default — is a no-op.
        self.cordoned_node_ids: Optional[Sequence[int]] = None
        # Populated by run().
        self.sim: Optional[Simulator] = None
        self.pools: Dict[str, PoolSurface] = {}
        self.control: Optional[ControlPlane] = None
        self.store = StateStore(seed=seed)

    def _resolve_predictor(self, predictor: Optional[Predictor]) -> Optional[Predictor]:
        wanted = self.config.proactive_predictor
        if wanted is None:
            return None
        if predictor is None:
            factory = _UNTRAINED_PREDICTORS.get(wanted.lower())
            if factory is None:
                raise ValueError(
                    f"policy {self.config.name!r} needs a pre-trained "
                    f"{wanted!r} predictor; pass predictor= explicitly"
                )
            predictor = factory()
        if self.config.mape_threshold is not None and not isinstance(
            predictor, GuardedPredictor
        ):
            # Forecast-health guard: past the configured window-MAPE (or
            # on NaN/divergence) the proactive scaler suspends
            # pre-spawning — Fifer degrades to RScale with hysteresis.
            predictor = GuardedPredictor(
                predictor,
                mape_threshold=self.config.mape_threshold,
                hysteresis=self.config.fallback_hysteresis,
            )
        return predictor

    def _stage_shares(self) -> Dict[str, float]:
        """Fraction of arriving jobs whose chain includes each function."""
        shares: Dict[str, float] = {}
        for app, weight in zip(self.mix.applications, self.mix.weights):
            for svc in app.stages:
                shares[svc.name] = shares.get(svc.name, 0.0) + weight
        return shares

    # -- wiring ---------------------------------------------------------------

    def _build_substrate(self) -> None:
        """Per-run state every engine starts from: registry, cluster
        (with this shard's cordons), RNG streams, arrival sampler,
        energy meter and the store's stage rows."""
        self.registry = MetricsRegistry()
        self.cluster = Cluster(
            n_nodes=self.cluster_spec.n_nodes,
            cores_per_node=self.cluster_spec.cores_per_node,
            memory_per_node_mb=self.cluster_spec.memory_per_node_mb,
            policy=self.config.placement,
        )
        # Sharded mode: nodes not granted to this shard start cordoned
        # (placement bit only); the global orchestrator moves grants by
        # flipping that bit.  ``None`` — every non-sharded run — changes
        # nothing, which is what keeps 1-shard runs bit-identical.
        if self.cordoned_node_ids:
            for node_id in self.cordoned_node_ids:
                self.cluster.nodes[node_id].fail()
        self._rng_apps = np.random.default_rng(self.seed)
        # The buffered application stream restarts with its generator;
        # the first ``_draw_app`` refills it.
        self._apps_drawn: list = []
        self._apps_next = _APP_CHUNK
        self._rng_exec = np.random.default_rng(self.seed + 1)
        # An interval shorter than the paper's 5 s window is sampled in
        # one window of its own length.
        interval_ms = self.config.monitor_interval_ms
        self.sampler = WindowedMaxSampler(
            interval_ms=interval_ms,
            window_ms=min(SAMPLE_WINDOW_MS, interval_ms),
        )
        self.energy_meter = EnergyMeter(
            interval_ms=self.config.monitor_interval_ms)
        for name in self.mix.function_names():
            self.store.insert(
                "stages",
                name,
                {
                    "batch_size": self.batch_sizes[name],
                    "slack_ms": self.stage_slacks[name],
                    "response_ms": self.stage_responses[name],
                },
            )

    def _build(self, sim: Simulator) -> None:
        self.sim = sim
        self._build_substrate()
        self.metrics = MetricsCollector(
            self.energy_meter, tracer=self.tracer, registry=self.registry
        )
        self.pools = {}
        # The request path: the shared lifecycle core on this run's
        # virtual clock — one scheduled event per ingress and per hop.
        self.lifecycle = RequestLifecycle(
            pools=self.pools,
            mix=self.mix,
            metrics=self.metrics,
            sampler=self.sampler,
            now=lambda: sim.now,
            later=sim.later,
            shed_expired=self.shed_expired,
        )
        reclaim = partial(reclaim_idle_capacity, self.pools)
        for name in self.mix.function_names():
            self.pools[name] = FunctionPool(
                sim=sim,
                on_task_finished=self.lifecycle.on_task_finished,
                fault_model=self.fault_model,
                **self._pool_args(name),
            )
            self.pools[name].reclaim_callback = reclaim
        self.control = ControlPlane(
            self.config,
            self.pools,
            self.registry,
            sample=lambda now_ms: self.metrics.sample(
                self.pools, self.cluster.nodes, now_ms),
            predictor=self.predictor,
            sampler=self.sampler,
            stage_shares=self.stage_shares,
            seed=self.seed + 2,
        )

    def _pool_args(self, name: str) -> Dict:
        """The constructor arguments every plane's pool for function
        *name* shares (valid once ``_build_substrate`` has run)."""
        config = self.config
        return {
            "service": self._service(name),
            "cluster": self.cluster,
            "batch_size": self.batch_sizes[name],
            "stage_slack_ms": self.stage_slacks[name],
            "stage_response_ms": self.stage_responses[name],
            "scheduling": config.scheduling,
            "cold_start": self.cold_start_model,
            "rng": self._rng_exec,
            "provisioning": config.provisioning,
            "delay_window_ms": config.monitor_interval_ms,
            "registry": self.registry,
        }

    def _service(self, name: str):
        for app in self.mix.applications:
            for svc in app.stages:
                if svc.name == name:
                    return svc
        raise KeyError(name)

    # -- request path -----------------------------------------------------------

    def _draw_app(self):
        """The next arrival's application, drawn before any admission
        check — the stream order the golden traces and
        ``TraceReplayer``'s plan pin.

        Read from a buffer that :func:`presample_app_indices` refills
        one chunk at a time, only when a draw finds it spent: the same
        stream as one ``sample_application`` call per arrival, and the
        function the vector engine draws its whole trace with.
        """
        i = self._apps_next
        if i == _APP_CHUNK:
            apps = self.mix.applications
            self._apps_drawn = [apps[k] for k in presample_app_indices(
                self.mix._weight_cdf, self._rng_apps, _APP_CHUNK).tolist()]
            i = 0
        self._apps_next = i + 1
        return self._apps_drawn[i]

    def _on_arrival(self) -> None:
        if self.blackout is not None and self.blackout.covers(self.sim.now):
            # Dead control plane: the front door is closed (the request
            # is created + shed, nothing is drawn, and the sampler —
            # state that died with the brain — learns nothing), but
            # unlike a crash, in-flight work continues.
            self.lifecycle.lose_arrival(LOST_BLACKOUT, observed=False)
            return
        self.lifecycle.admit(self._draw_app())

    # -- periodic machinery --------------------------------------------------------

    def _tick_monitor(self, now_ms: float) -> None:
        if self.blackout is not None and self.blackout.covers(now_ms):
            # No scaling, no reaping, no samples while the control
            # plane is down — the same hole a crashed live ControlLoop
            # leaves in the sampled series.
            self.registry.counter("control_plane_ticks_skipped_total").inc()
            return
        self.control.tick(now_ms)

    # -- execution -------------------------------------------------------------------

    def attach(
        self,
        sim: Simulator,
        trace: ArrivalTrace,
        ticker: Optional[CoalescedTicker] = None,
    ):
        """Wire this system into *sim*: build pools, schedule the
        trace's arrivals, pre-warm steady-state capacity and start the
        monitor.  Returns the monitor handle (caller stops it).

        When *ticker* is given (and matches this system's monitor
        interval) the monitor body shares that coalesced timer — one
        heap entry per interval for any number of co-attached systems;
        otherwise it subscribes to a private one."""
        if self.engine == ENGINE_VECTOR:
            from repro.runtime.vector import VectorEngineUnsupported

            raise VectorEngineUnsupported(
                "the vector engine drives its own run loop and cannot "
                "attach to a shared Simulator; use engine='fast'")
        self._build(sim)
        self._trace_name = trace.name
        # Lazy bulk injection: one cursor event walks the sorted numpy
        # arrival array; the heap never holds more than one pending
        # arrival.
        sim.schedule_stream(trace.arrivals_ms, self._on_arrival,
                            label="arrival")
        prewarm_opening_capacity(
            self.pools, trace, self.config, self.stage_shares)
        # The one fault-replay loop.  Node events are scheduled before the
        # blackout's edges, so at one instant they fire first; the edges
        # are the crash and the recovery — one counter bump each, so sim
        # and live runs expose the same ``control_plane_crashes_total`` /
        # ``recoveries_total``.
        script = [
            (event.at_ms, "node-fault", lambda ev=event: apply_node_event(
                ev, self.cluster, list(self.pools.values()), sim.now,
                self.registry))
            for event in self.faults.of("kill-node", "recover-node")]
        if self.blackout is not None:
            script += [
                (at_ms, label, lambda c=counter: self.registry.counter(c).inc())
                for at_ms, label, counter in (
                    (self.blackout.at_ms, "blackout-start",
                     "control_plane_crashes_total"),
                    (self.blackout.until_ms, "blackout-end",
                     "recoveries_total"))]
        for at_ms, label, enact in script:
            sim.schedule_at(at_ms, enact, label=label)
        interval = self.config.monitor_interval_ms
        if ticker is None or ticker.interval != interval:
            ticker = CoalescedTicker(sim, interval, label="monitor")
        return ticker.add(self._tick_monitor)

    @property
    def in_flight(self) -> int:
        """Created jobs not yet settled.  Shed and terminally-failed
        jobs never complete; counting them as settled keeps the drain
        loop from spinning to its bound waiting for requests the system
        deliberately dropped."""
        return self.metrics.jobs_created - (
            int(self.registry.value("jobs_completed_total"))
            + len(self.metrics.failed_jobs)
            + int(self.registry.value("gateway_shed_total"))
        )

    @property
    def all_jobs_done(self) -> bool:
        return self.in_flight <= 0

    def finalize(self) -> RunResult:
        """Collect this system's RunResult after the simulation ended."""
        assert self.sim is not None, "attach() must run first"
        return self.metrics.finalize(
            policy=self.config.name,
            mix=self.mix.name,
            trace=getattr(self, "_trace_name", "trace"),
            duration_ms=self.sim.now,
            pools=self.pools,
            tick_errors=self.control.tick_errors,
            shed_jobs=int(self.registry.value("gateway_shed_total")),
        )

    def run(self, trace: ArrivalTrace) -> RunResult:
        """Simulate *trace* end to end and return the metrics."""
        if self.engine == ENGINE_VECTOR:
            from repro.runtime.vector import run_vector

            return run_vector(self, trace)
        sim = Simulator()
        monitor = self.attach(sim, trace)
        horizon = trace.duration_ms + 1.0
        sim.run(until=horizon)
        # Drain: let in-flight jobs finish (bounded).
        drained_until = horizon
        while not self.all_jobs_done and drained_until < horizon + self.drain_ms:
            drained_until += self.config.monitor_interval_ms
            sim.run(until=drained_until)
        monitor.stop()
        return self.finalize()


def run_policy(
    policy_name: str,
    mix: WorkloadMix,
    trace: ArrivalTrace,
    cluster_spec: ClusterSpec = ClusterSpec(),
    predictor: Optional[Predictor] = None,
    seed: int = 0,
    drain_ms: float = 120_000.0,
    fault_model=None,
    tracer: Optional[Tracer] = None,
    shed_expired: bool = False,
    faults: FaultTimeline = FaultTimeline(),
    engine: Optional[str] = None,
    **config_overrides,
) -> RunResult:
    """Convenience one-call runner used by examples and benches: build
    the :class:`~repro.scenario.Scenario` these arguments describe and
    run it.

    Keyword arguments not consumed here override fields of the named
    policy's :class:`~repro.core.policies.RMConfig`.  A sharded run is
    :func:`~repro.shard.sim.run_sharded_policy`.
    """
    from repro.scenario import Scenario, fault_pairs

    return Scenario.of(
        policy_name, mix, trace, cluster_spec, seed,
        drain_ms=drain_ms,
        faults=fault_pairs(fault_model, faults),
        shed_expired=shed_expired,
        engine=engine,
        **config_overrides,
    ).run(tracer=tracer, predictor=predictor)
