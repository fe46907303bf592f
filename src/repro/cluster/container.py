"""Containers (pods) executing serverless function invocations.

A container serves exactly one microservice.  Its *batch size* is the
length of its local processing queue (section 3): a slack-aware RM sets
``B_size = stage_slack / stage_exec_time`` so queued requests still meet
the SLO; the baseline RM uses ``B_size = 1`` (one request per container,
AWS-style).  Requests in the local queue are processed sequentially.

:class:`Container` is the one container state machine.  It is written
against a clock (``sim.now``) and an injected ``later(delay_ms, fn,
*args)``; how one execution is launched and settled is the
:meth:`Container._launch` hook.  Here both are the simulator's (one
scheduled event per execution); the live plane's
:class:`repro.serve.pool.WorkerSlot` overrides only the hook.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from typing import Callable, Deque, Optional, TYPE_CHECKING

import numpy as np

from repro.sim.engine import Simulator
from repro.workloads.microservices import Microservice

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.workflow.job import Task

_container_ids = itertools.count()


class ContainerState(enum.Enum):
    SPAWNING = "spawning"
    IDLE = "idle"
    BUSY = "busy"
    #: Died mid-execution (work-function exception, enforced execution
    #: timeout, or injected fault).  Like TERMINATED the container is
    #: gone, but the distinction lets supervisors and metrics tell
    #: scale-in from failure.
    CRASHED = "crashed"
    TERMINATED = "terminated"


#: States in which a container no longer exists on its node.
DEAD_STATES = (ContainerState.CRASHED, ContainerState.TERMINATED)


class Container:
    """One warm-able container instance bound to a node."""

    def __init__(
        self,
        sim: Simulator,
        service: Microservice,
        batch_size: int,
        cold_start_ms: float,
        node: "Node",
        rng: np.random.Generator,
        on_ready: Callable[["Container"], None],
        on_task_done: Callable[["Container", "Task"], None],
        fault_model=None,
        on_crashed: Optional[Callable[["Container", "Task", str], None]] = None,
        later: Optional[Callable[..., object]] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if cold_start_ms < 0:
            raise ValueError("cold_start_ms must be non-negative")
        self.container_id = next(_container_ids)
        self.sim = sim
        self._later = later if later is not None else sim.schedule
        self.service = service
        self.batch_size = batch_size
        self.node = node
        self.rng = rng
        self._on_ready = on_ready
        self._on_task_done = on_task_done
        self.fault_model = fault_model
        self._on_crashed = on_crashed
        self.crashes = 0
        self.state = ContainerState.SPAWNING
        self.spawned_ms = sim.now
        self.ready_at_ms = sim.now + cold_start_ms
        self.cold_start_ms = cold_start_ms
        self.local_queue: Deque["Task"] = deque()
        self.current_task: Optional["Task"] = None
        self.tasks_executed = 0
        self.last_used_ms = sim.now
        self.busy_time_ms = 0.0
        self._later(cold_start_ms, self._become_ready)

    # -- capacity ---------------------------------------------------------

    @property
    def function(self) -> str:
        return self.service.name

    @property
    def occupied_slots(self) -> int:
        return len(self.local_queue) + (1 if self.current_task is not None else 0)

    @property
    def free_slots(self) -> int:
        return self.batch_size - self.occupied_slots

    @property
    def is_ready(self) -> bool:
        return self.state in (ContainerState.IDLE, ContainerState.BUSY)

    @property
    def is_reapable(self) -> bool:
        """Idle with an empty queue — safe to scale in."""
        return self.state == ContainerState.IDLE and not self.local_queue

    # -- lifecycle ----------------------------------------------------------

    def _become_ready(self) -> None:
        if self.state in DEAD_STATES:
            return
        self.state = ContainerState.IDLE
        self.last_used_ms = self.sim.now
        self._on_ready(self)
        self._maybe_start()

    def assign(self, task: "Task") -> None:
        """Add *task* to the local queue (caller checked free_slots)."""
        if self.state in DEAD_STATES:
            raise RuntimeError(f"container {self.container_id} is dead")
        if self.free_slots <= 0:
            raise RuntimeError(f"container {self.container_id} has no free slot")
        self.local_queue.append(task)
        self._maybe_start()

    def _maybe_start(self) -> None:
        if (
            self.state == ContainerState.IDLE
            and self.current_task is None
            and self.local_queue
        ):
            self._start_next()

    def _start_next(self) -> None:
        task = self.local_queue.popleft()
        self.current_task = task
        self.state = ContainerState.BUSY
        record = task.record
        record.start_ms = self.sim.now
        # Attribute the portion of the wait spent on this container's
        # cold start (Figure 9's breakdown).
        if self.ready_at_ms > record.enqueue_ms:
            record.cold_start_wait_ms = min(
                self.ready_at_ms, record.start_ms
            ) - record.enqueue_ms
        exec_ms = self.service.exec_time_ms(
            self.rng, input_scale=task.job.input_scale
        )
        record.exec_ms = exec_ms
        self._launch(task, exec_ms)

    def _launch(self, task: "Task", exec_ms: float) -> None:
        """Start *task*'s execution and arrange for it to be settled by
        :meth:`_complete` or :meth:`_crash`.  Drivers override this; the
        fate is drawn after the execution time, in every driver."""
        if self.fault_model is not None and self.fault_model.should_crash(self.rng):
            # The container dies mid-execution; the work is lost.
            self._later(exec_ms * self.fault_model.crash_point, self._crash)
        else:
            self._later(exec_ms, self._complete)

    def _crash(self, reason: str = "crash") -> None:
        if self.state in DEAD_STATES:
            return
        task = self.current_task
        self.current_task = None
        self.crashes += 1
        self.state = ContainerState.CRASHED
        if self._on_crashed is not None:
            self._on_crashed(self, task, reason)

    def _complete(self) -> None:
        if self.state in DEAD_STATES or self.current_task is None:
            # The container was killed (node failure / crash) while this
            # completion event was in flight; the task was re-enqueued.
            return
        task = self.current_task
        record = task.record
        record.end_ms = self.last_used_ms = self.sim.now
        self.busy_time_ms += record.exec_ms
        self.tasks_executed += 1
        self.current_task = None
        if self.local_queue:
            self._start_next()
        else:
            self.state = ContainerState.IDLE
        self._on_task_done(self, task)

    def terminate(self) -> None:
        """Scale this container in (must not be executing)."""
        if self.current_task is not None or self.local_queue:
            raise RuntimeError(
                f"container {self.container_id} still has work; cannot terminate"
            )
        self.state = ContainerState.TERMINATED

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Container {self.container_id} fn={self.function} "
            f"state={self.state.value} slots={self.occupied_slots}/{self.batch_size}>"
        )
