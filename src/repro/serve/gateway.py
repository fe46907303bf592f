"""The admission gateway: where live requests enter the system.

One :class:`Gateway` fronts a tenant's worker pools.  The request path
itself — admit, deadline check, chain walk, terminal outcomes, crash
recovery — is the shared :class:`~repro.workflow.lifecycle
.RequestLifecycle`, driven here from ``loop.call_later`` on the scaled
wall clock.  What the gateway adds is the asyncio shell around it:
backpressure (beyond ``max_pending`` in-flight jobs new arrivals are
*shed* rather than queued without bound), the in-flight gauge and the
idle barrier ``drained`` waits on.

Shed requests still count as created (and therefore as SLO violations)
in the metrics: admission control protects the *system*, it must not
launder the numbers.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Optional

import numpy as np

from repro.metrics.collector import MetricsCollector
from repro.obs.registry import MetricsRegistry
from repro.prediction.windowed import WindowedMaxSampler
from repro.serve.clock import ScaledClock
from repro.serve.journal import RequestJournal
from repro.serve.recovery import JournaledJob
from repro.workflow.job import Job
from repro.workflow.lifecycle import LOST_BACKPRESSURE, RequestLifecycle
from repro.workflow.pool import FunctionPool
from repro.workloads.applications import Application
from repro.workloads.mixes import WorkloadMix


#: Counters the lifecycle bumps on the gateway's behalf.
_LIFECYCLE_SERIES = (
    "gateway_shed_total",
    "gateway_shed_deadline_total",
    "gateway_dead_lettered_total",
    "gateway_duplicate_completions_total",
    "gateway_backpressure_sheds_total",
    "gateway_stale_signals_total",
    "gateway_dead_sheds_total",
)


class Gateway:
    """Admission control + chain orchestration for one tenant."""

    def __init__(
        self,
        clock: ScaledClock,
        pools: Dict[str, FunctionPool],
        mix: WorkloadMix,
        metrics: MetricsCollector,
        sampler: WindowedMaxSampler,
        rng: np.random.Generator,
        max_pending: int = 0,
        input_scale_sampler: Optional[Callable[[np.random.Generator], float]] = None,
        shed_expired: bool = False,
        registry: Optional[MetricsRegistry] = None,
        journal: Optional[RequestJournal] = None,
    ) -> None:
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        self.clock = clock
        self.pools = pools
        self.mix = mix
        self.metrics = metrics
        self.sampler = sampler
        self.rng = rng
        self.max_pending = max_pending
        self.input_scale_sampler = input_scale_sampler
        # Admission counters live in the run's metrics registry (shared
        # with the pools and the collector unless told otherwise).
        self.registry = registry if registry is not None else metrics.registry
        #: The request path.  ``journal=None`` = durability off, with a
        #: code path bit-identical to the pre-journal gateway.
        self.lifecycle = RequestLifecycle(
            pools=pools,
            mix=mix,
            metrics=metrics,
            sampler=sampler,
            now=lambda: clock.now,
            later=self._later,
            shed_expired=shed_expired,
            journal=journal,
            registry=self.registry,
            on_settle=self._settle,
        )
        self.on_task_finished = self.lifecycle.on_task_finished
        self.on_task_failed = self.lifecycle.on_task_failed
        self._g_in_flight = self.registry.gauge("gateway_in_flight")
        self._c_admitted = self.registry.counter("gateway_admitted_total")
        # The lifecycle bumps its counters by name; registering them
        # here keeps the live plane's series present even at zero.
        for name in _LIFECYCLE_SERIES:
            self.registry.counter(name)
        self._idle = asyncio.Event()
        self._idle.set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def dead(self) -> bool:
        """Crash flag: a dead gateway drops everything — arrivals,
        pending hop timers, task callbacks.  Its replacement (built by
        the recovery path) takes over the shared registry gauges."""
        return self.lifecycle.dead

    @dead.setter
    def dead(self, value: bool) -> None:
        self.lifecycle.dead = value

    # -- registry-backed counters (read-only views) ------------------------

    @property
    def in_flight(self) -> int:
        return int(self._g_in_flight.value)

    @property
    def shed(self) -> int:
        return int(self.registry.value("gateway_shed_total"))

    @property
    def shed_deadline(self) -> int:
        """Arrivals shed because their slack was already gone (deadline
        shedding) — kept separate from backpressure sheds."""
        return int(self.registry.value("gateway_shed_deadline_total"))

    @property
    def dead_lettered(self) -> int:
        """Jobs terminally failed (retries exhausted, dead-lettered)."""
        return int(self.registry.value("gateway_dead_lettered_total"))

    @property
    def duplicate_completions(self) -> int:
        """Completion/failure signals for jobs already terminal — a
        symptom of a double-delivery bug; counted, never applied."""
        return int(self.registry.value("gateway_duplicate_completions_total"))

    @property
    def backpressure_sheds(self) -> int:
        """Arrivals shed by the ``max_pending`` in-flight bound alone
        (backpressure ⊂ ``shed``)."""
        return int(self.registry.value("gateway_backpressure_sheds_total"))

    @property
    def stale_signals(self) -> int:
        """Task signals from a pre-crash epoch, dropped by the live-job
        identity check (orphaned executions finishing after recovery)."""
        return int(self.registry.value("gateway_stale_signals_total"))

    # -- request path ------------------------------------------------------

    def admit(
        self,
        app: Optional[Application] = None,
        input_scale: Optional[float] = None,
    ) -> Optional[Job]:
        """Admit one request; returns the Job, or None if shed.

        Every arrival — shed or not — feeds the arrival-rate sampler
        (the predictor must see offered load, not admitted load) and the
        job counter (a shed request is an SLO violation, not a no-op).
        A dead gateway answers nothing: the lifecycle loses the request
        at the front door, undrawn and unseen by the sampler.
        """
        core = self.lifecycle
        if not core.dead:
            # The simulator's draw order: (app, scale) before any
            # admission check.  Live traffic never draws here — the
            # replayer passes both from its pre-drawn plan.
            if app is None:
                app = self.mix.sample_application(self.rng)
            if input_scale is None:
                input_scale = (
                    self.input_scale_sampler(self.rng)
                    if self.input_scale_sampler is not None
                    else 1.0
                )
            if self.max_pending and self.in_flight >= self.max_pending:
                core.lose_arrival(LOST_BACKPRESSURE)
                return None
        job = core.admit(app, input_scale)
        if job is not None:
            self._c_admitted.inc()
        return self._track(job)

    def _later(self, delay_ms: float, fn, *args) -> None:
        loop = self._loop
        if loop is None:
            # Bound once, at first use: every stage hop comes through
            # here, and the lookup cost as much as the call.
            loop = self._loop = asyncio.get_running_loop()
        loop.call_later(self.clock.to_wall_s(delay_ms), fn, *args)

    def _track(self, job: Optional[Job]) -> Optional[Job]:
        if job is not None:
            self._g_in_flight.inc()
            self._idle.clear()
        return job

    def _settle(self) -> None:
        self._g_in_flight.dec()
        if self.in_flight == 0:
            self._idle.set()

    # -- recovery ----------------------------------------------------------

    def requeue_recovered(self, entry: JournaledJob) -> Optional[Job]:
        """Re-admit a journaled-but-unfinished job after a crash (same
        id, arrival time and input scale: its SLO clock keeps running
        across the crash)."""
        return self._track(self.lifecycle.requeue_recovered(entry))

    def expire_recovered(self, entry: JournaledJob) -> Optional[Job]:
        """Shed a recovered job whose deadline already passed; counted
        outside ``in_flight`` — the job was never re-admitted."""
        return self.lifecycle.expire_recovered(entry)

    def reset_in_flight(self) -> None:
        """Zero the shared in-flight gauge before repopulating it.

        The gauge survives the crashed gateway (it lives in the run
        registry); the jobs it counted do not.  Called once by the
        recovery path on the *new* gateway, before requeues.
        """
        self._g_in_flight.set(0)
        self._idle.set()

    # -- drain -------------------------------------------------------------

    async def drained(self, timeout_ms: Optional[float] = None) -> bool:
        """Wait until no job is in flight; returns False on timeout.

        ``timeout_ms`` is model time (wall-scaled like everything else).
        """
        timeout_s = (
            self.clock.to_wall_s(timeout_ms) if timeout_ms is not None else None
        )
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=timeout_s)
            return True
        except asyncio.TimeoutError:
            return False
