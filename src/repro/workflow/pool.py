"""Function pools: per-microservice queues, containers and scaling hooks.

One pool exists per microservice (function).  It owns the *global
request queue* for that stage — "we implement a global request queue for
every stage ... which holds all the incoming tasks before being
scheduled to a container in that stage" (section 5.1) — plus the
containers serving it.  What the resource managers compose (spawning,
scale-out, idle reaping) is :class:`repro.core.poolsurface.PoolSurface`;
this module is the object representation under it: task queue, monitor
windows, greedy dispatch and the container callbacks.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.coldstart import ColdStartModel
from repro.cluster.container import Container, ContainerState, DEAD_STATES
from repro.core.poolsurface import PoolSurface
from repro.core.scheduling import SchedulingPolicy, TaskQueue, make_queue
from repro.sim.engine import Simulator
from repro.workflow.job import Task
from repro.workloads.microservices import Microservice


class FunctionPool(PoolSurface):
    """Containers + global queue for one serverless function (optional
    keywords are :class:`PoolSurface`'s, passed through ``**surface``)."""

    def __init__(
        self,
        sim: Simulator,
        service: Microservice,
        cluster: Cluster,
        batch_size: int,
        stage_slack_ms: float,
        stage_response_ms: float,
        scheduling: SchedulingPolicy,
        cold_start: ColdStartModel,
        rng: np.random.Generator,
        on_task_finished: Callable[[Task], None],
        fault_model=None,
        **surface,
    ) -> None:
        super().__init__(
            service, cluster, batch_size, stage_slack_ms, stage_response_ms,
            cold_start, rng, **surface)
        self.sim = sim
        self.queue: TaskQueue = make_queue(scheduling)
        self._on_task_finished = on_task_finished
        #: Tasks still waiting in the global queue, in enqueue order
        #: (lazily pruned) — powers the queue-age part of the monitor.
        self._waiting: Deque[Task] = deque()
        #: Optional ContainerFaultModel (chaos injection / resilience
        #: tests); the simulator and the live runtime share this model.
        self.fault_model = fault_model
        #: (completion time, queue delay) of recent tasks, for the monitor.
        self._recent_delays: Deque[Tuple[float, float]] = deque()
        #: Enqueue timestamps within the monitor window (arrival rate).
        self._recent_enqueues: Deque[float] = deque()

    # -- representation: clock, capacity views ---------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def live_containers(self) -> List[Container]:
        return [c for c in self.containers if c.state not in DEAD_STATES]

    @property
    def free_slots(self) -> int:
        return sum(c.free_slots for c in self.live_containers if c.is_ready)

    @property
    def pending_capacity(self) -> int:
        return sum(
            c.free_slots
            for c in self.live_containers
            if c.state == ContainerState.SPAWNING
        )

    @property
    def queue_length(self) -> int:
        return len(self.queue)

    # -- request path ---------------------------------------------------------

    def enqueue(self, task: Task) -> None:
        """Accept one task into the global stage queue."""
        task.record.enqueue_ms = self.sim.now
        self.queue.push(task)
        self._waiting.append(task)
        self.tasks_enqueued += 1
        self._recent_enqueues.append(self.sim.now)
        horizon = self.sim.now - self.delay_window_ms
        while self._recent_enqueues and self._recent_enqueues[0] < horizon:
            self._recent_enqueues.popleft()
        if self.spawn_on_demand:
            self._spawn_for_backlog()
        self.dispatch()

    def _pin_head(self, container: Container) -> None:
        """Pin the queue head to *container* (still cold: it only queues)."""
        container.assign(self.queue.pop())

    def dispatch(self) -> None:
        """Drain the global queue into ready containers with free slots.

        Greedy container selection (Algorithm 1(d)): the candidate with
        the least remaining free slots wins, which empties lightly
        loaded containers for early scale-in.  Still-spawning containers
        are never targeted — a task waits in the global queue and rides
        whichever container frees (or readies) first.
        """
        while self.queue:
            target = self._select_container()
            if target is None:
                return
            task = self.queue.pop()
            assert task is not None
            target.assign(task)

    def _select_container(self) -> Optional[Container]:
        # Hot path: this scan runs for every dispatch attempt, so the
        # readiness/occupancy checks are inlined (state compare + queue
        # length) instead of going through the is_ready/free_slots
        # properties.  Selection key is unchanged: least free slots,
        # then lowest container id.
        best: Optional[Container] = None
        best_free = 0
        best_id = 0
        for container in self.containers:
            state = container.state
            if state is not ContainerState.IDLE and state is not ContainerState.BUSY:
                continue
            free = container.batch_size - len(container.local_queue)
            if container.current_task is not None:
                free -= 1
            if free <= 0:
                continue
            if (
                best is None
                or free < best_free
                or (free == best_free and container.container_id < best_id)
            ):
                best = container
                best_free = free
                best_id = container.container_id
        return best

    # -- containers -----------------------------------------------------------

    def _make_container(self, node, cold_start_ms: float) -> Container:
        """Container factory; the live serving runtime overrides this to
        create wall-clock worker slots instead of simulated containers."""
        return Container(
            sim=self.sim,
            service=self.service,
            batch_size=self.batch_size,
            cold_start_ms=cold_start_ms,
            node=node,
            rng=self.rng,
            on_ready=self._on_container_ready,
            on_task_done=self._on_task_done,
            fault_model=self.fault_model,
            on_crashed=self._on_container_crashed,
        )

    def purge_queued(self) -> int:
        """Drop every queued-but-not-executing task (crash semantics);
        returns how many.

        Executing slots are left alone: their work is still running and
        must be allowed to finish — the recovered lifecycle's identity
        check then drops the orphaned completions, exactly like a
        restarted process ignoring responses addressed to its
        predecessor.
        """
        purged = 0
        while self.queue:
            self.queue.pop()
            purged += 1
        self._waiting.clear()
        for slot in self.containers:
            purged += len(slot.local_queue)
            slot.local_queue.clear()
        return purged

    def forget_waiting(self, task: Task) -> None:
        """Drop *task* from the waiting view (identity match).

        Requeue paths call this before re-appending the task so a retry
        never leaves a duplicate entry behind: the lazy head-prune in
        :meth:`oldest_waiting_age_ms` cannot remove a stale copy once
        the retry resets ``record.start_ms`` to -1.
        """
        if any(t is task for t in self._waiting):
            self._waiting = deque(t for t in self._waiting if t is not task)

    def requeue(self, task: Task, count_retry: bool = True) -> None:
        """Put a previously dispatched task back into the global queue.

        Resets the stage record (the lost attempt's timings are
        discarded; the queue wait restarts at the original enqueue time)
        and re-inserts the task without double-counting it as a fresh
        arrival in the monitor's rate signal.
        """
        record = task.record
        record.start_ms = -1.0
        record.cold_start_wait_ms = 0.0
        self.forget_waiting(task)
        self.queue.push(task)
        self._waiting.append(task)
        if count_retry:
            self.task_retries += 1

    # -- monitor data ------------------------------------------------------------

    def recent_arrival_rate_rps(self) -> float:
        """Task arrival rate at this stage over the monitor window."""
        horizon = self.sim.now - self.delay_window_ms
        while self._recent_enqueues and self._recent_enqueues[0] < horizon:
            self._recent_enqueues.popleft()
        window_s = self.delay_window_ms / 1000.0
        return len(self._recent_enqueues) / window_s if window_s > 0 else 0.0

    def oldest_waiting_age_ms(self) -> float:
        """Age of the longest-waiting task still in the global queue."""
        while self._waiting and self._waiting[0].record.start_ms >= 0:
            self._waiting.popleft()
        if not self._waiting:
            return 0.0
        return self.sim.now - self._waiting[0].record.enqueue_ms

    def recent_queue_delay_ms(self) -> float:
        """Mean queuing delay of tasks finished in the last window
        (``Calculate_Delay(last_10s_jobs)`` in Algorithm 1(a))."""
        self._prune_delays()
        if not self._recent_delays:
            return 0.0
        # Left to right, as VectorPool adds them (builtin sum() is
        # compensated since Python 3.12: see Job.total_exec_ms).
        total = 0.0
        for _, d in self._recent_delays:
            total += d
        return total / len(self._recent_delays)

    def _prune_delays(self) -> None:
        horizon = self.sim.now - self.delay_window_ms
        while self._recent_delays and self._recent_delays[0][0] < horizon:
            self._recent_delays.popleft()

    # -- container callbacks --------------------------------------------------------

    def _on_container_ready(self, container: Container) -> None:
        self.dispatch()

    def _on_container_crashed(
        self, container: Container, task: Optional[Task], reason: str = "crash"
    ) -> None:
        """A container died mid-execution: release its node, retry the
        lost task (and anything in its local queue)."""
        self.container_crashes += 1
        self._release(container)
        orphans = list(container.local_queue)
        if task is not None:
            orphans.insert(0, task)
        container.local_queue.clear()
        for orphan in orphans:
            self._retry_orphan(orphan, reason)
        self._compact()
        if self.spawn_on_demand:
            self._spawn_for_backlog()
        self.dispatch()

    def _retry_orphan(self, task: Task, reason: str) -> None:
        """Where a crashed container's task goes: straight back into the
        global queue (the live pool routes it through its retry layer)."""
        self.requeue(task)

    def _on_task_done(self, container: Container, task: Task) -> None:
        self.tasks_completed += 1
        self._recent_delays.append((self.sim.now, task.record.queue_delay_ms))
        self._prune_delays()
        if self.single_use and container.is_reapable:
            self._retire(container)
            self._compact()
        self._on_task_finished(task)
        self.dispatch()
