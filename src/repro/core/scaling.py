"""Reactive and proactive container scaling (Algorithm 1).

*Dynamic reactive scaling* (RScale, Algorithm 1a/b): every monitoring
interval, each stage's load monitor compares the queuing delay of the
last-10 s jobs against the stage's slack.  If violated, the number of
extra containers is estimated from the pending queue length — but only
if servicing the backlog on existing containers would take longer than
a cold start (the queue-vs-spawn decision, section 4.2).

*Proactive scaling* (Algorithm 1e): every interval, forecast the arrival
rate from the windowed-max history and pre-spawn containers for each
stage so the predicted load meets capacity — hiding cold starts behind
the prediction horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from typing import Dict, List, Optional

from repro.core.poolsurface import PoolSurface
from repro.core.sizing import containers_for_rate
from repro.obs.registry import MetricsRegistry
from repro.prediction.base import Predictor
from repro.prediction.windowed import WindowedMaxSampler

#: Base backoff between spawn retries (jittered exponential).
SPAWN_RETRY_BACKOFF_MS = 5_000.0
#: The HPA baseline's fixed per-container concurrency target.
HPA_TARGET_CONCURRENCY = 4
#: Consecutive below-target ticks before the HPA baseline scales in.
HPA_STABILIZATION_TICKS = 3
#: Monitoring intervals ahead the proactive forecast covers (W_p).
PROACTIVE_HORIZON_INTERVALS = 6


@dataclass
class ScalingEvent:
    """One scaler decision, for post-run analysis."""

    time_ms: float
    function: str
    kind: str  # "reactive" | "proactive"
    spawned: int
    queue_length: int = 0
    forecast_rps: float = 0.0


@dataclass
class SpawnDebt:
    """A spawn decision that could not be fully actuated yet."""

    pool: PoolSurface
    count: int
    attempts_left: int
    next_retry_ms: float


class SpawnGovernor:
    """Guardrails between scaler decisions and the spawn actuator.

    Three independent protections, each off by default:

    * **Max-surge clamp** — at most ``max_surge`` containers spawned per
      monitoring tick across all monitored stages, so a diverged
      forecast (or a backlog spike) cannot flood the cluster in one
      interval.  Clamped decisions are counted, not retried: the scaler
      re-evaluates from live queue state next tick.
    * **Spawn retries** — a decision the cluster could not place (no
      node capacity) is re-attempted up to ``spawn_retry_attempts``
      times with jittered exponential backoff instead of being silently
      dropped; exhausted retries are shed *and counted*.
    * **Scale-down cooldown** — idle reaping is suppressed for
      ``scale_down_cooldown_ms`` after any governed scale-up, damping
      spawn/reap oscillation under bursty load.

    Every action lands in the run registry (``scaling_*`` counters), so
    sim and live runs expose identical guardrail observability.  The
    jitter RNG is created lazily and only consumed when a retry is
    actually scheduled — a governor at defaults draws no randomness and
    perturbs nothing.
    """

    def __init__(
        self,
        max_surge: int = 0,
        scale_down_cooldown_ms: float = 0.0,
        spawn_retry_attempts: int = 0,
        registry: Optional[MetricsRegistry] = None,
        seed: int = 0,
    ) -> None:
        if max_surge < 0:
            raise ValueError("max_surge must be >= 0")
        if scale_down_cooldown_ms < 0:
            raise ValueError("scale_down_cooldown_ms must be >= 0")
        if spawn_retry_attempts < 0:
            raise ValueError("spawn_retry_attempts must be >= 0")
        self.max_surge = max_surge
        self.scale_down_cooldown_ms = scale_down_cooldown_ms
        self.spawn_retry_attempts = spawn_retry_attempts
        self.registry = registry or MetricsRegistry()
        self._seed = seed
        self._rng: Optional[np.random.Generator] = None
        self._debts: List[SpawnDebt] = []
        self._tick_spawned = 0
        self._last_spawn_ms = -math.inf
        self._c_clamped = self.registry.counter("scaling_surge_clamped_total")
        self._c_shortfall = self.registry.counter(
            "scaling_spawn_shortfall_total")
        self._c_retries = self.registry.counter("scaling_spawn_retries_total")
        self._c_exhausted = self.registry.counter(
            "scaling_spawn_retries_exhausted_total")
        self._c_reaps_deferred = self.registry.counter(
            "scaling_reaps_deferred_total")

    @classmethod
    def from_config(cls, config, registry=None, seed: int = 0):
        """Governor for an :class:`~repro.core.policies.RMConfig`, or
        ``None`` when every guardrail is at its off-default (the scalers
        then run the exact ungoverned actuation path)."""
        if (
            config.max_surge <= 0
            and config.scale_down_cooldown_ms <= 0
            and config.spawn_retry_attempts <= 0
        ):
            return None
        return cls(
            max_surge=config.max_surge,
            scale_down_cooldown_ms=config.scale_down_cooldown_ms,
            spawn_retry_attempts=config.spawn_retry_attempts,
            registry=registry,
            seed=seed,
        )

    # -- counters (registry-backed ints for tests/summaries) ---------------

    @property
    def surge_clamped(self) -> int:
        return int(self._c_clamped.value)

    @property
    def spawn_retries(self) -> int:
        return int(self._c_retries.value)

    @property
    def spawn_retries_exhausted(self) -> int:
        return int(self._c_exhausted.value)

    @property
    def pending_debt(self) -> int:
        return sum(d.count for d in self._debts)

    # -- tick protocol ------------------------------------------------------

    def begin_tick(self, now_ms: float) -> int:
        """Reset the per-tick surge budget and run due spawn retries.

        Called once at the top of every monitoring interval (sim tick or
        live control-loop pass); returns containers spawned by retries.
        """
        self._tick_spawned = 0
        if not self._debts:
            return 0
        due = [d for d in self._debts if d.next_retry_ms <= now_ms]
        if not due:
            return 0
        self._debts = [d for d in self._debts if d.next_retry_ms > now_ms]
        spawned = 0
        for debt in due:
            self._c_retries.inc(debt.count)
            spawned += self._actuate(
                debt.pool, debt.count, now_ms, attempts_left=debt.attempts_left
            )
        return spawned

    def spawn(self, pool: PoolSurface, count: int, now_ms: float) -> int:
        """Actuate a scaler decision through the guardrails.

        Returns containers actually placed this call; any placement
        shortfall becomes retry debt (or is shed and counted when
        retries are disabled/exhausted).
        """
        if count <= 0:
            return 0
        return self._actuate(
            pool, count, now_ms, attempts_left=self.spawn_retry_attempts
        )

    def allow_reap(self, now_ms: float) -> bool:
        """Whether idle reaping may run this tick (cooldown gate)."""
        if self.scale_down_cooldown_ms <= 0:
            return True
        if now_ms - self._last_spawn_ms < self.scale_down_cooldown_ms:
            self._c_reaps_deferred.inc()
            return False
        return True

    # -- internals ----------------------------------------------------------

    def _actuate(
        self, pool: PoolSurface, count: int, now_ms: float, attempts_left: int
    ) -> int:
        allowed = count
        if self.max_surge > 0:
            budget = self.max_surge - self._tick_spawned
            allowed = max(0, min(count, budget))
            clamped = count - allowed
            if clamped > 0:
                self._c_clamped.inc(clamped)
        if allowed <= 0:
            return 0
        got = pool.spawn(allowed)
        self._tick_spawned += got
        if got:
            self._last_spawn_ms = now_ms
            pool.dispatch()
        shortfall = allowed - got
        if shortfall > 0:
            self._c_shortfall.inc(shortfall)
            if attempts_left > 0:
                self._schedule_retry(pool, shortfall, attempts_left, now_ms)
            else:
                self._c_exhausted.inc(shortfall)
        return got

    def _schedule_retry(
        self, pool: PoolSurface, count: int, attempts_left: int, now_ms: float
    ) -> None:
        if self._rng is None:
            self._rng = np.random.default_rng(self._seed)
        attempt_index = self.spawn_retry_attempts - attempts_left
        delay = SPAWN_RETRY_BACKOFF_MS * (2.0 ** attempt_index)
        delay *= 0.5 + float(self._rng.random())  # jitter in [0.5x, 1.5x)
        self._debts.append(
            SpawnDebt(
                pool=pool,
                count=count,
                attempts_left=attempts_left - 1,
                next_retry_ms=now_ms + delay,
            )
        )


class ReactiveScaler:
    """Per-stage queuing-delay-driven scale-out (Algorithm 1a/b).

    With a :class:`SpawnGovernor` attached, spawn decisions are actuated
    through its guardrails (surge clamp, placement retries); without
    one, decisions hit the pool actuator directly — the exact
    pre-guardrail path.
    """

    def __init__(
        self,
        pools: Dict[str, PoolSurface],
        governor: Optional[SpawnGovernor] = None,
    ) -> None:
        self.pools = pools
        self.governor = governor
        self.events: List[ScalingEvent] = []

    def tick(self, now_ms: float) -> int:
        """Run one monitoring interval over every stage; returns spawns."""
        total = 0
        for pool in self.pools.values():
            total += self._scale_stage(pool, now_ms)
        return total

    def _scale_stage(self, pool: PoolSurface, now_ms: float) -> int:
        delay = pool.monitored_delay_ms()
        if delay < pool.stage_slack_ms:
            return 0
        estimated = self.estimate_containers(pool)
        if estimated <= 0:
            return 0
        if self.governor is not None:
            spawned = self.governor.spawn(pool, estimated, now_ms)
        else:
            spawned = pool.spawn(estimated)
        if spawned:
            self.events.append(
                ScalingEvent(
                    time_ms=now_ms,
                    function=pool.function,
                    kind="reactive",
                    spawned=spawned,
                    queue_length=pool.queue_length,
                )
            )
            pool.dispatch()
        return spawned

    def estimate_containers(self, pool: PoolSurface) -> int:
        """``Estimate_Containers`` (Algorithm 1b), need-capped.

        ``total_delay = PQ_len * S_r``; ``current_req = N * B_size``;
        spawn only when the per-capacity delay factor exceeds the cold
        start, and then provision for the backlog beyond capacity.

        The paper's raw estimate ``(PQ_len - current_req) / B_size`` is
        additionally capped at what the stage *actually needs*: a
        Little's-law term for the observed arrival rate plus a term to
        drain the backlog within the stage slack.  A backlog accumulated
        over many intervals does not have to be *held* simultaneously
        (each container serves ``B_size`` requests per response window),
        and the uncapped estimate would saturate the cluster and churn
        cold starts on every transient spike.
        """
        pq_len = pool.queue_length
        if pq_len == 0:
            return 0
        current_req = max(1, pool.capacity_requests)
        total_delay = pq_len * pool.stage_response_ms
        delay_factor = total_delay / current_req
        if pool.n_containers == 0:
            # Zero capacity: "queuing is cheaper than a cold start" is
            # meaningless — nothing will ever drain the queue.  Without
            # this bypass a fully scaled-in (or failed-over) stage
            # deadlocks behind the gate, because a short-S_r stage's
            # delay factor can sit below C_d forever.
            pass
        elif delay_factor < pool.cold_start.mean_ms(pool.function):
            return 0
        backlog = pq_len - pool.capacity_requests
        if backlog <= 0 and pool.n_containers > 0:
            return 0
        backlog = max(backlog, 1)
        estimate = math.ceil(backlog / pool.batch_size)
        exec_ms = pool.service.mean_exec_ms
        rate_term = containers_for_rate(
            pool.recent_arrival_rate_rps(), exec_ms, utilization_target=0.9
        )
        drain_window = max(pool.stage_slack_ms, exec_ms)
        drain_term = math.ceil(backlog * exec_ms / drain_window)
        need_cap = max(1, rate_term + drain_term - pool.n_containers)
        return min(estimate, need_cap)


class ProactiveScaler:
    """Predictor-driven pre-spawning (Algorithm 1e).

    The forecast is of the *global* windowed-max arrival rate; each
    stage's share of that load follows from the (static) workload-mix
    weights of the applications containing its function.
    """

    def __init__(
        self,
        pools: Dict[str, PoolSurface],
        predictor: Predictor,
        sampler: WindowedMaxSampler,
        stage_shares: Dict[str, float],
        utilization_target: float = 0.8,
        governor: Optional[SpawnGovernor] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        missing = set(pools) - set(stage_shares)
        if missing:
            raise ValueError(f"stage shares missing for: {sorted(missing)}")
        self.pools = pools
        self.predictor = predictor
        self.sampler = sampler
        self.stage_shares = stage_shares
        self.utilization_target = utilization_target
        self.governor = governor
        self.registry = registry
        self.events: List[ScalingEvent] = []
        self.forecasts: List[float] = []
        self.predictor_failures = 0
        #: Ticks spent with the forecast-health fallback active (the
        #: guard suppressed pre-spawning; Fifer ran as RScale).
        self.fallback_ticks = 0
        # A persistent (cross-build) GuardedPredictor monitor has
        # history from earlier runs; mirror only this run's deltas into
        # the (fresh-per-run) registry.
        monitor = getattr(self.predictor, "monitor", None)
        self._monitor_base = (
            (monitor.fallbacks, monitor.recoveries, monitor.divergences)
            if monitor is not None
            else (0, 0, 0)
        )

    @property
    def fallback_active(self) -> bool:
        """True while the forecast-health guard has tripped."""
        return bool(getattr(self.predictor, "fallback_active", False))

    def _sync_guard_counters(self) -> None:
        monitor = getattr(self.predictor, "monitor", None)
        if monitor is None or self.registry is None:
            return
        base_f, base_r, base_d = self._monitor_base
        self.registry.counter("predictor_fallbacks_total").set_value(
            float(monitor.fallbacks - base_f))
        self.registry.counter("predictor_recoveries_total").set_value(
            float(monitor.recoveries - base_r))
        self.registry.counter("predictor_divergences_total").set_value(
            float(monitor.divergences - base_d))
        self.registry.counter("scaling_fallback_ticks_total").set_value(
            float(self.fallback_ticks))

    def tick(self, now_ms: float) -> int:
        """Forecast and pre-spawn; returns containers spawned.

        Per section 4.5, the model predicts the *maximum* arrival rate
        over a future window (W_p), so capacity is provisioned for the
        worst interval ahead, not just the next one.

        A predictor that raises does not take scaling down with it: the
        tick falls back to the last observed rate (pure reactive
        behaviour) and counts the failure — prediction is off the
        critical path in the paper's design, so a broken model must
        degrade Fifer to RScale, not to nothing.
        """
        history = self.sampler.series(now_ms)
        if hasattr(self.predictor, "observe") and history.size:
            self.predictor.observe(float(history[-1]))
        try:
            path = self.predictor.predict_horizon(
                history, PROACTIVE_HORIZON_INTERVALS)
            forecast_rps = max(0.0, float(np.max(path)))
        except Exception:
            self.predictor_failures += 1
            forecast_rps = float(history[-1]) if history.size else 0.0
        self.forecasts.append(forecast_rps)
        if self.fallback_active:
            # Forecast health tripped: suspend pre-spawning entirely —
            # Fifer degrades to RScale (the reactive scaler keeps
            # running) until the guard re-arms.  The shadow forecast
            # above still feeds the monitor so recovery is detectable.
            self.fallback_ticks += 1
            self._sync_guard_counters()
            return 0
        total = 0
        for name, pool in self.pools.items():
            stage_rate = forecast_rps * self.stage_shares[name]
            n_target = containers_for_rate(
                stage_rate,
                pool.service.mean_exec_ms,
                utilization_target=self.utilization_target,
            )
            if self.governor is not None:
                deficit = n_target - pool.n_containers
                spawned = (
                    self.governor.spawn(pool, deficit, now_ms)
                    if deficit > 0
                    else 0
                )
            else:
                spawned = pool.scale_up_to(n_target)
            if spawned:
                self.events.append(
                    ScalingEvent(
                        time_ms=now_ms,
                        function=name,
                        kind="proactive",
                        spawned=spawned,
                        forecast_rps=stage_rate,
                    )
                )
                pool.dispatch()
            total += spawned
        self._sync_guard_counters()
        return total


class HPAScaler:
    """Horizontal-pod-autoscaler baseline (Knative/Fission style).

    The paper's section 2.2.1 calls out open-source platforms whose
    "horizontal pod autoscaler [is] not aware of application execution
    times": scaling tracks *observed concurrency* against a fixed
    per-container target, with a stabilisation window before scaling in.
    No slack, no execution times, no prediction — the app-agnostic
    strawman Fifer improves upon.
    """

    def __init__(self, pools: Dict[str, PoolSurface]) -> None:
        self.pools = pools
        self._below_target: Dict[str, int] = {name: 0 for name in pools}
        self.events: List[ScalingEvent] = []

    def observed_concurrency(self, pool: PoolSurface) -> int:
        """In-flight requests at the stage: executing + locally queued +
        waiting in the global queue."""
        occupied = sum(c.occupied_slots for c in pool.live_containers)
        return occupied + pool.queue_length

    def desired_replicas(self, pool: PoolSurface) -> int:
        concurrency = self.observed_concurrency(pool)
        return max(1, math.ceil(concurrency / HPA_TARGET_CONCURRENCY))

    def tick(self, now_ms: float) -> int:
        """One autoscaler pass; returns net containers spawned."""
        spawned = 0
        for name, pool in self.pools.items():
            desired = self.desired_replicas(pool)
            current = pool.n_containers
            if desired > current:
                got = pool.spawn(desired - current)
                spawned += got
                self._below_target[name] = 0
                if got:
                    self.events.append(
                        ScalingEvent(
                            time_ms=now_ms, function=name, kind="hpa-up",
                            spawned=got, queue_length=pool.queue_length,
                        )
                    )
                    pool.dispatch()
            elif desired < current:
                self._below_target[name] += 1
                if self._below_target[name] >= HPA_STABILIZATION_TICKS:
                    removed = 0
                    for _ in range(current - desired):
                        if not pool.reclaim_one_idle():
                            break
                        removed += 1
                    if removed:
                        self.events.append(
                            ScalingEvent(
                                time_ms=now_ms, function=name,
                                kind="hpa-down", spawned=-removed,
                            )
                        )
                    self._below_target[name] = 0
            else:
                self._below_target[name] = 0
        return spawned


def static_pool_sizes(
    pools: Dict[str, PoolSurface],
    avg_rate_rps: float,
    stage_shares: Dict[str, float],
    utilization_target: float = 1.0,
) -> Dict[str, int]:
    """SBatch sizing: fixed counts from the trace's average rate."""
    sizes = {}
    for name, pool in pools.items():
        sizes[name] = containers_for_rate(
            avg_rate_rps * stage_shares.get(name, 0.0),
            pool.service.mean_exec_ms,
            utilization_target=utilization_target,
            minimum=1,
        )
    return sizes
