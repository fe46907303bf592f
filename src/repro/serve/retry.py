"""Retry policy, deadline budgets and the dead-letter queue.

The paper's resource manager assumes executions always succeed; a live
deployment sees crashed workers, hung handlers and killed nodes.  This
module decides what happens to the task a failed attempt leaves behind:

* :class:`RetryPolicy` — per-task attempt budget plus jittered
  exponential backoff.  A *deadline budget* (``deadline_grace_ms``)
  optionally caps retries by residual slack: when the task's remaining
  slack (``Task.available_slack_ms``, the same LSF quantity
  :mod:`repro.core.slack` derives the queue ordering from) cannot cover
  the planned backoff, retrying is pointless and the task is
  dead-lettered instead of thrashing the queue.
* :class:`DeadLetterQueue` — terminal parking lot for exhausted tasks,
  keeping per-reason counts so chaos experiments are measurable.
* :class:`RetryManager` — the live runtime's failure handler: requeues
  retryable tasks into their stage's global queue (least-slack-first
  ordering still applies on re-entry) after the backoff elapses, and
  routes exhausted ones to the DLQ + the gateway's failure callback so
  ``Gateway.in_flight`` always reaches zero.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

import numpy as np

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer, root_span_id, trace_id_for_job
from repro.serve.clock import ScaledClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.workflow.job import Task
    from repro.workflow.pool import FunctionPool


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget + jittered exponential backoff.

    Attributes:
        max_attempts: total execution attempts a task may consume
            (first try included); at ``max_attempts`` failures the task
            is dead-lettered.
        base_backoff_ms: backoff before the first retry (model ms).
        backoff_multiplier: exponential growth factor per retry.
        max_backoff_ms: ceiling on any single backoff.
        jitter: uniform +/- fraction applied to each backoff (0.25 =>
            the sampled backoff lands within 25% of the nominal value),
            de-synchronising retry storms after a mass failure.
        deadline_grace_ms: deadline budget.  When set, a retry is only
            scheduled if ``residual_slack + grace >= backoff``; tasks
            whose deadline is already unsalvageable go straight to the
            dead-letter queue.  ``None`` disables the deadline check
            (retry until attempts run out, the simulator's semantics).
    """

    max_attempts: int = 3
    base_backoff_ms: float = 25.0
    backoff_multiplier: float = 2.0
    max_backoff_ms: float = 1_000.0
    jitter: float = 0.25
    deadline_grace_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff_ms < 0:
            raise ValueError("base_backoff_ms must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.max_backoff_ms < self.base_backoff_ms:
            raise ValueError("max_backoff_ms must be >= base_backoff_ms")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be within [0, 1)")

    def backoff_ms(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before retry number *attempt* (1 = first retry)."""
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        nominal = self.base_backoff_ms * self.backoff_multiplier ** (attempt - 1)
        nominal = min(nominal, self.max_backoff_ms)
        if self.jitter <= 0.0 or nominal <= 0.0:
            return nominal
        spread = rng.uniform(-self.jitter, self.jitter)
        return max(0.0, nominal * (1.0 + spread))

    def allows_attempt(self, attempts_so_far: int) -> bool:
        """True while the attempt budget still covers another try."""
        return attempts_so_far < self.max_attempts


@dataclass
class DeadLetterEntry:
    """One exhausted task with its post-mortem."""

    task: "Task"
    reason: str
    time_ms: float
    attempts: int


class DeadLetterQueue:
    """Terminal queue for tasks whose retries ran out."""

    def __init__(self) -> None:
        self.entries: List[DeadLetterEntry] = []

    def add(self, task: "Task", reason: str, time_ms: float) -> DeadLetterEntry:
        entry = DeadLetterEntry(
            task=task, reason=reason, time_ms=time_ms, attempts=task.attempts
        )
        self.entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


class RetryManager:
    """Routes failed attempts to a backoff-requeue or the DLQ.

    One manager serves every pool of a runtime.  ``on_give_up`` is the
    gateway's failure callback (:meth:`repro.serve.gateway.Gateway
    .on_task_failed`): invoking it marks the job terminally failed so
    drain always converges.
    """

    def __init__(
        self,
        policy: RetryPolicy,
        clock: ScaledClock,
        rng: np.random.Generator,
        on_give_up: Callable[["Task", str], None],
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        journal=None,
    ) -> None:
        self.policy = policy
        self.clock = clock
        self.rng = rng
        self.on_give_up = on_give_up
        self.tracer = tracer
        #: Optional write-ahead journal (``RequestJournal``): each
        #: scheduled retry is recorded so recovery knows the attempt
        #: count a requeued job had already burned.
        self.journal = journal
        self.registry = registry or MetricsRegistry()
        self._c_scheduled = self.registry.counter("retry_scheduled_total")
        self._c_dead_lettered = self.registry.counter(
            "retry_dead_lettered_total")
        self._g_pending = self.registry.gauge("retry_pending_backoffs")
        self.dlq = DeadLetterQueue()

    def handle_failure(
        self, pool: "FunctionPool", task: "Task", reason: str
    ) -> None:
        """One attempt on *task* failed for *reason*; decide its fate."""
        task.attempts += 1
        if not self.policy.allows_attempt(task.attempts):
            self._dead_letter(pool, task, f"{reason}:attempts-exhausted")
            return
        backoff = self.policy.backoff_ms(task.attempts, self.rng)
        grace = self.policy.deadline_grace_ms
        if grace is not None:
            residual = task.available_slack_ms(self.clock.now)
            if residual + grace < backoff:
                self._dead_letter(pool, task, f"{reason}:deadline-exceeded")
                return
        self._c_scheduled.inc()
        self._g_pending.inc()
        if self.journal is not None:
            self.journal.retry(task, self.clock.now)
        if self.tracer is not None:
            # The one request-path event invisible to the job's latency
            # records: the planned backoff window before the retry.
            now = self.clock.now
            trace_id = trace_id_for_job(task.job)
            self.tracer.span(
                "backoff", trace_id,
                f"{trace_id}/{task.stage_index}/backoff/{task.attempts}",
                now, now + backoff, root_span_id(trace_id),
                function=task.function,
                stage_index=task.stage_index,
                attempt=task.attempts,
                reason=reason,
            )
        if backoff <= 0.0:
            self._requeue(pool, task)
        else:
            asyncio.get_running_loop().call_later(
                self.clock.to_wall_s(backoff), self._requeue, pool, task
            )

    def _requeue(self, pool: "FunctionPool", task: "Task") -> None:
        self._g_pending.dec()
        record = task.record
        record.start_ms = -1.0
        record.cold_start_wait_ms = 0.0
        pool.task_retries += 1
        pool.forget_waiting(task)
        # enqueue() (not a bare queue push) so the backlog signals, the
        # on-demand spawner and greedy dispatch all see the retry.
        pool.enqueue(task)

    def _dead_letter(self, pool: "FunctionPool", task: "Task", reason: str) -> None:
        pool.tasks_dead_lettered += 1
        self._c_dead_lettered.inc()
        self.dlq.add(task, reason, self.clock.now)
        self.on_give_up(task, reason)
