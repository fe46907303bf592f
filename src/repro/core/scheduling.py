"""Task scheduling policies: FIFO and Least-Slack-First (section 4.3).

Shared functions serve queries from multiple applications whose
remaining slack differs; FIFO there causes SLO violations, so Fifer
executes "the application query with the least available slack from the
queue at every stage".

LSF exploits an invariant of linear chains: a task's *available slack at
time t* is ``slack_key - t`` where ``slack_key = deadline -
remaining_work`` is fixed at enqueue time.  Relative order between
queued tasks therefore never changes, and the queue can be a plain
binary heap with O(log n) operations (the paper reports 0.35 ms per
scheduling decision; ours is microseconds).
"""

from __future__ import annotations

import abc
import enum
import heapq
import itertools
from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - type-only import avoids a cycle
    from repro.workflow.job import Task


class SchedulingPolicy(enum.Enum):
    FIFO = "fifo"
    LSF = "lsf"


class TaskQueue(abc.ABC):
    """A stage's global request queue."""

    @abc.abstractmethod
    def push(self, task: "Task") -> None: ...

    @abc.abstractmethod
    def pop(self) -> Optional["Task"]: ...

    @abc.abstractmethod
    def peek(self) -> Optional["Task"]: ...

    @abc.abstractmethod
    def __len__(self) -> int: ...


class FIFOQueue(TaskQueue):
    """Arrival-order service (the baseline's policy)."""

    def __init__(self) -> None:
        self._queue: Deque["Task"] = deque()

    def push(self, task: "Task") -> None:
        self._queue.append(task)

    def pop(self) -> Optional["Task"]:
        return self._queue.popleft() if self._queue else None

    def peek(self) -> Optional["Task"]:
        return self._queue[0] if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)

    # Truth without ``__len__``: the dispatch loop tests it per task.
    def __bool__(self) -> bool:
        return bool(self._queue)


class LSFQueue(TaskQueue):
    """Least-Slack-First service (Fifer's policy).

    Ordered by ``task.slack_key``; FIFO among equal keys (the insertion
    counter both breaks ties and prevents starvation among identical
    chains).
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, "Task"]] = []
        self._counter = itertools.count()

    def push(self, task: "Task") -> None:
        heapq.heappush(self._heap, (task.slack_key, next(self._counter), task))

    def pop(self) -> Optional["Task"]:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def peek(self) -> Optional["Task"]:
        return self._heap[0][2] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


def make_queue(policy: SchedulingPolicy) -> TaskQueue:
    """Instantiate the queue for *policy*."""
    if policy == SchedulingPolicy.FIFO:
        return FIFOQueue()
    if policy == SchedulingPolicy.LSF:
        return LSFQueue()
    raise ValueError(f"unknown scheduling policy: {policy}")
