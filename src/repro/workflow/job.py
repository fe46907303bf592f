"""Jobs (function-chain invocations) and tasks (stage executions).

Terminology follows the paper's prototype section: a *job* is one
request for an application chain, the *tasks* are its stages.  Each
record keeps the full latency breakdown — queuing, cold-start-induced
wait, execution, transition overhead — that Figures 9 and 10 report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from repro.workloads.applications import Application

_job_ids = itertools.count()


@dataclass
class JobStage:
    """Latency record for one stage of one job."""

    function: str
    enqueue_ms: float = -1.0
    start_ms: float = -1.0
    end_ms: float = -1.0
    exec_ms: float = 0.0
    #: Portion of the queuing delay attributable to waiting for a
    #: container that was still cold-starting.
    cold_start_wait_ms: float = 0.0

    @property
    def queue_delay_ms(self) -> float:
        """Time between entering the stage queue and starting execution."""
        if self.start_ms < 0 or self.enqueue_ms < 0:
            return 0.0
        return self.start_ms - self.enqueue_ms

    @property
    def batching_wait_ms(self) -> float:
        """Queue delay not caused by cold starts (waiting behind a batch)."""
        return max(0.0, self.queue_delay_ms - self.cold_start_wait_ms)


@dataclass
class Job:
    """One end-to-end request for an application chain.

    ``input_scale`` models request payload size (image resolution,
    speech-query length): execution time scales linearly with it
    (section 2.2.2's profiled relationship).
    """

    app: Application
    arrival_ms: float
    job_id: int = field(default_factory=lambda: next(_job_ids))
    stages: List[JobStage] = field(default_factory=list)
    completion_ms: float = -1.0
    input_scale: float = 1.0
    #: Set when the job is dead-lettered: retries exhausted (or deadline
    #: budget blown) on one of its stages.  A failed job is terminal —
    #: it never completes and counts as an SLO violation.
    failed_ms: float = -1.0
    failure_reason: Optional[str] = None

    def __post_init__(self) -> None:
        if self.input_scale <= 0:
            raise ValueError("input_scale must be positive")
        if not self.stages:
            self.stages = [JobStage(function=s.name) for s in self.app.stages]

    @property
    def deadline_ms(self) -> float:
        return self.arrival_ms + self.app.slo_ms

    @property
    def completed(self) -> bool:
        return self.completion_ms >= 0

    @property
    def failed(self) -> bool:
        return self.failed_ms >= 0

    @property
    def terminal(self) -> bool:
        """The job reached exactly one end state (completed or failed)."""
        return self.completed or self.failed

    @property
    def outcome(self) -> str:
        if self.completed:
            return "completed"
        if self.failed:
            return "failed"
        return "in-flight"

    @property
    def response_latency_ms(self) -> float:
        if not self.completed:
            raise RuntimeError(f"job {self.job_id} has not completed")
        return self.completion_ms - self.arrival_ms

    @property
    def violated_slo(self) -> bool:
        return self.response_latency_ms > self.app.slo_ms

    # The four totals add left to right in explicit loops, never with
    # builtin ``sum()``: since Python 3.12 that is a compensated sum, so
    # the last bit would depend on the interpreter and part company
    # with the vector engine's ``core.vectorized.segment_totals``.

    @property
    def total_queue_delay_ms(self) -> float:
        total = 0.0
        for s in self.stages:
            total += s.queue_delay_ms
        return total

    @property
    def total_cold_start_wait_ms(self) -> float:
        total = 0.0
        for s in self.stages:
            total += s.cold_start_wait_ms
        return total

    @property
    def total_batching_wait_ms(self) -> float:
        total = 0.0
        for s in self.stages:
            total += s.batching_wait_ms
        return total

    @property
    def total_exec_ms(self) -> float:
        total = 0.0
        for s in self.stages:
            total += s.exec_ms
        return total

    def remaining_work_ms(self, from_stage: int) -> float:
        """Mean execution + overhead still ahead from *from_stage* on."""
        if from_stage >= self.app.n_stages:
            return 0.0
        return self.app.remaining_work_ms(from_stage)


@dataclass
class Task:
    """One stage of one job, as enqueued at a function pool.

    ``slack_key`` is the LSF ordering key: ``deadline - remaining_work``.
    Because every queued task's *remaining available slack at time t* is
    ``slack_key - t``, the relative order is time-invariant, so the
    pool's priority queue never needs re-sorting.
    """

    job: Job
    stage_index: int
    enqueue_ms: float
    #: Failed execution attempts so far (crash / timeout / lost worker).
    #: The retry layer increments this and compares it against the
    #: attempt budget before requeueing.
    attempts: int = 0

    @property
    def function(self) -> str:
        return self.job.app.stages[self.stage_index].name

    @property
    def record(self) -> JobStage:
        return self.job.stages[self.stage_index]

    @property
    def slack_key(self) -> float:
        return self.job.deadline_ms - self.job.remaining_work_ms(self.stage_index)

    def available_slack_ms(self, now_ms: float) -> float:
        """Slack left if this task were to start right now."""
        return self.slack_key - now_ms

    @property
    def is_last_stage(self) -> bool:
        return self.stage_index == self.job.app.n_stages - 1
