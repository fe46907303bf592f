"""The request lifecycle: one implementation, three drivers.

A request's path through the system of Figure 5 — admit → deadline
check → enqueue stage → finish → hop / complete / shed / fail, plus the
crash-recovery transitions (requeue / expire) — is written once, here,
over two injected callables: ``now()`` (model milliseconds) and
``later(delay_ms, fn, *args)``.  The event-loop simulator drives it
from ``Simulator.schedule``, the live gateway from ``loop.call_later``
on the scaled wall clock, the sharded simulator from the same
``Simulator`` with stage hops routed through the ring.  Sim↔live parity
of the request path is therefore structural, not a tolerance test
(DESIGN.md, "One lifecycle, three drivers").

What stays with the drivers: drawing ``(app, input_scale)`` (always
before any admission check — the order the golden traces and
``TraceReplayer``'s plan pin), front-door closures that are not a crash
(the simulator's control-plane blackout, the gateway's backpressure
bound), and the asyncio idle barrier.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.workflow.job import Job, Task

#: Failure reasons stamped by the core's own terminal transitions.
SHED_EXPIRED_REASON = "shed-expired"
RECOVERY_EXPIRED_REASON = "recovery-expired"

#: Cause counters of an arrival lost at the front door; every loss also
#: bumps ``gateway_shed_total``.
LOST_DEAD = "gateway_dead_sheds_total"
LOST_DEADLINE = "gateway_shed_deadline_total"
LOST_BACKPRESSURE = "gateway_backpressure_sheds_total"
LOST_BLACKOUT = "control_plane_blackout_lost_total"


class RequestLifecycle:
    """Clock-agnostic transitions over job / stage state.

    Every transition emits to the metrics collector, to the optional
    *journal* (the :class:`~repro.serve.journal.JournalWriter`
    vocabulary) and to the optional *store* (the simulator's per-job
    ``StateStore`` rows).  Counters are looked up lazily, so a run only
    exports the series it actually bumped; a driver that wants a series
    registered up front (the live gateway) registers it itself.
    """

    def __init__(
        self,
        pools: Dict,
        mix,
        metrics,
        sampler,
        now: Callable[[], float],
        later: Callable[..., object],
        shed_expired: bool = False,
        journal=None,
        store=None,
        registry=None,
        on_settle: Optional[Callable[[], None]] = None,
    ) -> None:
        self.pools = pools
        self.metrics = metrics
        self.registry = registry if registry is not None else metrics.registry
        self.sampler = sampler
        self.now = now
        self.later = later
        self.shed_expired = shed_expired
        self.journal = journal
        self.store = store
        self.on_settle = on_settle
        self._apps = {app.name: app for app in mix.applications}
        #: Crash flag: a dead lifecycle answers nothing — arrivals are
        #: lost at the front door, pending hop timers and task signals
        #: are dropped.  Its in-flight jobs are owed to recovery.
        self.dead = False
        #: Live-job registry: job id -> the Job *object* admitted or
        #: recovered here.  Terminal jobs leave the map; a task signal
        #: whose job object is not the registered one is stale (it
        #: crossed a crash epoch) and is dropped, not applied.
        self.jobs: Dict[int, Job] = {}

    # -- front door --------------------------------------------------------

    def lose_arrival(self, cause: str, observed: bool = True) -> None:
        """An arrival that never becomes a job.

        Still created (a lost request is an SLO violation, not a no-op)
        and, while the control plane is up to see it, still offered
        load for the predictor's sampler.
        """
        self.metrics.record_job_created()
        if observed:
            self.sampler.record(self.now())
        self.registry.counter("gateway_shed_total").inc()
        self.registry.counter(cause).inc()

    def crash(self) -> None:
        """Die in place and forget the in-flight jobs: the journal owes
        them to recovery, and their zombie signals must stay stale even
        if this lifecycle is later revived."""
        self.dead = True
        self.jobs.clear()

    def deadline_expired(self, app) -> bool:
        """Deadline-aware admission: is this arrival already doomed?

        Shed only when the first stage's monitored queueing delay alone
        exceeds the chain's slack *and* no dispatchable capacity is
        free — a free slot means the observed backlog is already
        draining, so the delay signal is stale.
        """
        first_pool = self.pools.get(app.stage_names[0])
        if first_pool is None or first_pool.free_slots > 0:
            return False
        return first_pool.monitored_delay_ms() > app.slack_ms

    def admit(
        self, app, input_scale: float, extra_latency_ms: float = 0.0
    ) -> Optional[Job]:
        """Admit one request; returns the Job, or None if lost."""
        if self.dead:
            self.lose_arrival(LOST_DEAD, observed=False)
            return None
        if self.shed_expired and self.deadline_expired(app):
            self.lose_arrival(LOST_DEADLINE)
            return None
        now = self.now()
        self.metrics.record_job_created()
        self.sampler.record(now)
        job = Job(app=app, arrival_ms=now, input_scale=input_scale)
        self.jobs[job.job_id] = job
        if self.store is not None:
            self.store.insert(
                "jobs", job.job_id, {"app": app.name, "creationTime": now}
            )
        if self.journal is not None:
            self.journal.admit(job)
        # Ingress hop: the transition overhead precedes every stage.
        self.later(
            app.transition_overhead_ms + extra_latency_ms,
            self.enqueue_stage, job, 0,
        )
        return job

    # -- chain walk --------------------------------------------------------

    def enqueue_stage(self, job: Job, stage_index: int) -> None:
        if self.dead:
            # A pending hop fired into a crashed lifecycle: the job
            # stays journaled-but-unfinished and recovery requeues it.
            return
        now = self.now()
        if self.journal is not None and stage_index > 0:
            self.journal.hop(job, stage_index, now)
        task = Task(job=job, stage_index=stage_index, enqueue_ms=now)
        pool = self.pools[task.function]
        if (
            self.shed_expired
            and stage_index > 0
            and task.available_slack_ms(now) < 0
            and pool.free_slots == 0
        ):
            # Already dead (negative residual slack) at a saturated
            # stage: queueing it cannot meet the SLO and only burns
            # capacity.  The job ends as a journaled ``shed``.
            if not self._signal_dropped(job):
                pool.record_shed()
                self._fail(job, now, SHED_EXPIRED_REASON)
                if self.journal is not None:
                    self.journal.shed(job, now, reason=SHED_EXPIRED_REASON)
                self._settle(job)
            return
        pool.enqueue(task)

    def on_task_finished(self, task: Task) -> None:
        """Pool callback: advance the chain or complete the job."""
        job = task.job
        if self._signal_dropped(job):
            return
        if task.is_last_stage:
            now = self.now()
            job.completion_ms = now
            self.metrics.record_job_completed(job)
            if self.store is not None:
                self.store.update(
                    "jobs", job.job_id, {"completionTime": now}
                )
            if self.journal is not None:
                self.journal.complete(job, now)
            self._settle(job)
        else:
            self.later(
                job.app.transition_overhead_ms,
                self.enqueue_stage, job, task.stage_index + 1,
            )

    def on_task_failed(self, task: Task, reason: str) -> None:
        """Retry-layer callback: *task*'s job is beyond saving."""
        job = task.job
        if self._signal_dropped(job):
            return
        now = self.now()
        self._fail(job, now, reason)
        if self.journal is not None:
            self.journal.fail(job, now, reason=reason)
        self.registry.counter("gateway_dead_lettered_total").inc()
        self._settle(job)

    def _signal_dropped(self, job: Job) -> bool:
        """Double-delivery and crash-epoch guard on every task signal.

        A job already terminal (a retried attempt's ghost completion)
        is counted and dropped; so is one that is not the object
        registered under its id (a signal from a pre-crash epoch, or
        from a dead lifecycle's leftovers) — applying either would
        double-count the outcome.
        """
        if job.completion_ms >= 0 or job.failed_ms >= 0:
            self.registry.counter(
                "gateway_duplicate_completions_total").inc()
            return True
        if self.dead or self.jobs.get(job.job_id) is not job:
            self.registry.counter("gateway_stale_signals_total").inc()
            return True
        return False

    def _fail(self, job: Job, now: float, reason: str) -> None:
        job.failed_ms = now
        job.failure_reason = reason
        self.metrics.record_job_failed(job)
        if self.store is not None:
            self.store.update("jobs", job.job_id, {"failedTime": now})

    def _settle(self, job: Job) -> None:
        self.jobs.pop(job.job_id, None)
        if self.on_settle is not None:
            self.on_settle()

    # -- recovery ----------------------------------------------------------

    def _rebuild_job(self, entry) -> Optional[Job]:
        """Reconstruct a Job from its journal entry (same id, arrival
        and input scale — recovery must not launder latency)."""
        app = self._apps.get(entry.app)
        if app is None:
            # The WAL is a file another process wrote: count, never
            # silently drop.
            self.registry.counter("recovery_unknown_app_total").inc()
            return None
        return Job(
            app=app,
            arrival_ms=entry.arrival_ms,
            job_id=entry.job_id,
            input_scale=entry.input_scale,
        )

    def requeue_recovered(
        self, entry, extra_latency_ms: float = 0.0
    ) -> Optional[Job]:
        """Re-admit a journaled-but-unfinished job after a crash.

        It resumes at its furthest journaled stage (clamped into the
        chain), paying the ingress overhead once more.  Not re-journaled
        as an admit: the original record stands and exactly one terminal
        record will follow.
        """
        job = self._rebuild_job(entry)
        if job is None:
            return None
        self.jobs[job.job_id] = job
        stage = max(0, min(int(entry.last_stage), job.app.n_stages - 1))
        self.later(
            job.app.transition_overhead_ms + extra_latency_ms,
            self.enqueue_stage, job, stage,
        )
        return job

    def expire_recovered(self, entry) -> Optional[Job]:
        """Shed a recovered job whose deadline already passed.

        Re-running it cannot meet the SLO; it ends as a failed job with
        a journaled ``shed`` record, so admissions == completions +
        fails + sheds holds.  Never in flight — it was not re-admitted.
        """
        job = self._rebuild_job(entry)
        if job is None:
            return None
        now = self.now()
        self._fail(job, now, RECOVERY_EXPIRED_REASON)
        if self.journal is not None:
            self.journal.shed(job, now, reason=RECOVERY_EXPIRED_REASON)
        return job
