"""Retry policy, deadline budgets and the dead-letter queue.

The paper's resource manager assumes executions always succeed; a live
deployment sees crashed workers, hung handlers and killed nodes.  This
module decides what happens to the task a failed attempt leaves behind:

* :class:`RetryPolicy` — per-task attempt budget, plus an optional
  *deadline budget* (``deadline_grace_ms``) that caps retries by
  residual slack: when the task's remaining slack
  (``Task.available_slack_ms``, the same LSF quantity
  :mod:`repro.core.slack` derives the queue ordering from) plus the
  grace is negative, retrying is pointless and the task is
  dead-lettered instead of thrashing the queue.
* :class:`DeadLetterQueue` — terminal parking lot for exhausted tasks,
  keeping per-reason counts so chaos experiments are measurable.
* :class:`RetryManager` — the live runtime's failure handler: puts a
  retryable task straight back into its stage's global queue
  (``FunctionPool.requeue``, the simulator's crash path; least-slack-
  first ordering still applies on re-entry), and routes exhausted ones
  to the DLQ + the gateway's failure callback so ``Gateway.in_flight``
  always reaches zero.  There is no backoff: the stage queue hands work
  only to free slots, so a retry has no downstream service to spare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.obs.registry import MetricsRegistry
from repro.serve.clock import ScaledClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.workflow.job import Task
    from repro.workflow.pool import FunctionPool


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget + deadline budget.

    Attributes:
        max_attempts: total execution attempts a task may consume
            (first try included); at ``max_attempts`` failures the task
            is dead-lettered.
        deadline_grace_ms: deadline budget.  When set, a retry is only
            made if ``residual_slack + grace >= 0``; tasks whose
            deadline is already unsalvageable go straight to the
            dead-letter queue.  ``None`` disables the deadline check
            (retry until attempts run out, the simulator's semantics).
    """

    max_attempts: int = 3
    deadline_grace_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

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
    """Routes failed attempts back to their stage queue or to the DLQ.

    One manager serves every pool of a runtime.  ``on_give_up`` is the
    gateway's failure callback (:meth:`repro.serve.gateway.Gateway
    .on_task_failed`): invoking it marks the job terminally failed so
    drain always converges.
    """

    def __init__(
        self,
        policy: RetryPolicy,
        clock: ScaledClock,
        on_give_up: Callable[["Task", str], None],
        registry: Optional[MetricsRegistry] = None,
        journal=None,
    ) -> None:
        self.policy = policy
        self.clock = clock
        self.on_give_up = on_give_up
        #: Optional write-ahead journal (``RequestJournal``): each
        #: retry is recorded so recovery knows the attempt count a
        #: requeued job had already burned.
        self.journal = journal
        self.registry = registry or MetricsRegistry()
        self._c_scheduled = self.registry.counter("retry_scheduled_total")
        self._c_dead_lettered = self.registry.counter(
            "retry_dead_lettered_total")
        self.dlq = DeadLetterQueue()

    def handle_failure(
        self, pool: "FunctionPool", task: "Task", reason: str
    ) -> None:
        """One attempt on *task* failed for *reason*; decide its fate."""
        task.attempts += 1
        if not self.policy.allows_attempt(task.attempts):
            self._dead_letter(pool, task, f"{reason}:attempts-exhausted")
            return
        grace = self.policy.deadline_grace_ms
        if grace is not None \
                and task.available_slack_ms(self.clock.now) + grace < 0:
            self._dead_letter(pool, task, f"{reason}:deadline-exceeded")
            return
        self._c_scheduled.inc()
        if self.journal is not None:
            self.journal.retry(task, self.clock.now)
        pool.requeue(task)

    def _dead_letter(self, pool: "FunctionPool", task: "Task", reason: str) -> None:
        pool.tasks_dead_lettered += 1
        self._c_dead_lettered.inc()
        self.dlq.add(task, reason, self.clock.now)
        self.on_give_up(task, reason)
