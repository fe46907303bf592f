"""Function pools: per-microservice queues, containers and scaling hooks.

One pool exists per microservice (function).  It owns the *global
request queue* for that stage — "we implement a global request queue for
every stage ... which holds all the incoming tasks before being
scheduled to a container in that stage" (section 5.1) — plus the
containers serving it, and exposes the operations the resource managers
compose: greedy dispatch, on-demand spawning, reactive and proactive
scale-out, and idle reaping.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.coldstart import ColdStartModel
from repro.cluster.container import Container, ContainerState, DEAD_STATES
from repro.core.scheduling import SchedulingPolicy, TaskQueue, make_queue
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Simulator
from repro.workflow.job import Task
from repro.workloads.microservices import Microservice


class FunctionPool:
    """Containers + global queue for one serverless function."""

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
        spawn_on_demand: bool = False,
        reap_exempt: bool = False,
        delay_window_ms: float = 10_000.0,
        single_use: bool = False,
        fault_model=None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.sim = sim
        self.service = service
        # The run-wide metrics registry backs every counter this pool
        # exposes (a private registry is created when none is shared):
        # the attribute names below stay readable/writable, but the
        # values live in registry counters labelled by pool, so run
        # totals always reconcile with the per-pool sums.
        self.registry = registry or MetricsRegistry()
        label = {"pool": service.name}
        self._c_crashes = self.registry.counter(
            "pool_container_crashes_total", **label)
        self._c_retries = self.registry.counter(
            "pool_task_retries_total", **label)
        self._c_timeouts = self.registry.counter(
            "pool_task_timeouts_total", **label)
        self._c_dead_lettered = self.registry.counter(
            "pool_tasks_dead_lettered_total", **label)
        self._c_spawns = self.registry.counter("pool_spawns_total", **label)
        self._c_failed_spawns = self.registry.counter(
            "pool_failed_spawns_total", **label)
        self._c_enqueued = self.registry.counter(
            "pool_tasks_enqueued_total", **label)
        self._c_shed = self.registry.counter(
            "pool_tasks_shed_total", **label)
        self._c_completed = self.registry.counter(
            "pool_tasks_completed_total", **label)
        self._g_containers = self.registry.gauge(
            "pool_live_containers", **label)
        self.cluster = cluster
        self.batch_size = batch_size
        self.stage_slack_ms = stage_slack_ms
        self.stage_response_ms = stage_response_ms
        self.cold_start = cold_start
        self.rng = rng
        self.queue: TaskQueue = make_queue(scheduling)
        self.containers: List[Container] = []
        self.spawn_on_demand = spawn_on_demand
        self.reap_exempt = reap_exempt
        #: Brigade's default mode: "creates a worker pod for each job ...
        #: and destroys the containers after job completion" — each
        #: container serves exactly one task, then terminates.
        self.single_use = single_use
        self.delay_window_ms = delay_window_ms
        self._on_task_finished = on_task_finished
        #: Invoked when placement fails; should free capacity elsewhere
        #: (the system wires this to cross-pool idle reclaim) and return
        #: True when a retry is worthwhile.
        self.reclaim_callback: Optional[Callable[[], bool]] = None
        #: Tasks still waiting in the global queue, in enqueue order
        #: (lazily pruned) — powers the queue-age part of the monitor.
        self._waiting: Deque[Task] = deque()
        #: Optional ContainerFaultModel (chaos injection / resilience
        #: tests); the simulator and the live runtime share this model.
        self.fault_model = fault_model
        self.container_crashes = 0
        #: Tasks put back into the global queue after a failed attempt
        #: (container crash, execution timeout, node kill).
        self.task_retries = 0
        #: Executions killed by the per-task timeout (hung workers).
        self.task_timeouts = 0
        #: Tasks routed to the dead-letter queue (retries exhausted).
        self.tasks_dead_lettered = 0
        # Metrics.
        self.prewarmed = 0
        self.total_spawns = 0
        self.spawn_times_ms: List[float] = []
        self.tasks_enqueued = 0
        self.tasks_completed = 0
        self.retired_task_counts: List[int] = []
        self.failed_spawns = 0
        #: (completion time, queue delay) of recent tasks, for the monitor.
        self._recent_delays: Deque[Tuple[float, float]] = deque()
        #: Enqueue timestamps within the monitor window (arrival rate).
        self._recent_enqueues: Deque[float] = deque()

    # -- registry-backed counters -------------------------------------------
    # Exposed as int attributes for compatibility (``pool.task_retries
    # += 1`` keeps working everywhere, including the retry layer and
    # fault injectors), but the single source of truth is the registry.

    @property
    def container_crashes(self) -> int:
        return int(self._c_crashes.value)

    @container_crashes.setter
    def container_crashes(self, value: int) -> None:
        self._c_crashes.set_value(float(value))

    @property
    def task_retries(self) -> int:
        return int(self._c_retries.value)

    @task_retries.setter
    def task_retries(self, value: int) -> None:
        self._c_retries.set_value(float(value))

    @property
    def task_timeouts(self) -> int:
        return int(self._c_timeouts.value)

    @task_timeouts.setter
    def task_timeouts(self, value: int) -> None:
        self._c_timeouts.set_value(float(value))

    @property
    def tasks_dead_lettered(self) -> int:
        return int(self._c_dead_lettered.value)

    @tasks_dead_lettered.setter
    def tasks_dead_lettered(self, value: int) -> None:
        self._c_dead_lettered.set_value(float(value))

    @property
    def total_spawns(self) -> int:
        return int(self._c_spawns.value)

    @total_spawns.setter
    def total_spawns(self, value: int) -> None:
        self._c_spawns.set_value(float(value))

    @property
    def tasks_shed(self) -> int:
        """Tasks dropped at this stage by slack-aware admission control
        (residual slack already negative with no free capacity)."""
        return int(self._c_shed.value)

    def record_shed(self) -> None:
        """Count one stage-level shed against this pool's counter —
        the single place the ``pool_tasks_shed_total`` series is fed,
        so sim and live shed events land under identical labels."""
        self._c_shed.inc()

    @property
    def failed_spawns(self) -> int:
        return int(self._c_failed_spawns.value)

    @failed_spawns.setter
    def failed_spawns(self, value: int) -> None:
        self._c_failed_spawns.set_value(float(value))

    @property
    def tasks_enqueued(self) -> int:
        return int(self._c_enqueued.value)

    @tasks_enqueued.setter
    def tasks_enqueued(self, value: int) -> None:
        self._c_enqueued.set_value(float(value))

    @property
    def tasks_completed(self) -> int:
        return int(self._c_completed.value)

    @tasks_completed.setter
    def tasks_completed(self, value: int) -> None:
        self._c_completed.set_value(float(value))

    # -- capacity views ------------------------------------------------------

    @property
    def function(self) -> str:
        return self.service.name

    @property
    def live_containers(self) -> List[Container]:
        return [c for c in self.containers if c.state not in DEAD_STATES]

    @property
    def n_containers(self) -> int:
        return len(self.live_containers)

    @property
    def capacity_requests(self) -> int:
        """``current_req`` of Algorithm 1: containers x batch size."""
        return self.n_containers * self.batch_size

    @property
    def free_slots(self) -> int:
        """Free slots on *ready* containers (dispatchable right now)."""
        return sum(c.free_slots for c in self.live_containers if c.is_ready)

    @property
    def pending_capacity(self) -> int:
        """Slots that will appear when in-flight spawns become ready."""
        return sum(
            c.free_slots
            for c in self.live_containers
            if c.state == ContainerState.SPAWNING
        )

    @property
    def queue_length(self) -> int:
        """``PQ_len``: pending requests in the global queue."""
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

    def _spawn_for_backlog(self) -> None:
        """AWS-style provisioning: a fresh container for every queued
        request beyond current *and already-incoming* capacity (one-to-
        one for B=1).  Counting in-flight spawns prevents the storm of
        one-spawn-per-arrival during a cold-start window.

        The requests that triggered the spawn are *pinned* to the new
        cold containers, reproducing the platform behaviour of Figure 2:
        a request that finds no warm container rides the container
        spawned for it and pays the full cold-start latency.
        """
        deficit = self.queue_length - self.free_slots - self.pending_capacity
        if deficit <= 0:
            return
        new_containers = self._spawn_list(math.ceil(deficit / self.batch_size))
        for container in new_containers:
            while container.free_slots > 0 and self.queue:
                task = self.queue.pop()
                assert task is not None
                container.assign(task)

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

    # -- scaling ---------------------------------------------------------------

    def spawn(self, count: int = 1) -> int:
        """Start *count* cold containers; returns how many got placed."""
        return len(self._spawn_list(count))

    def _spawn_list(self, count: int) -> List[Container]:
        """Start *count* cold containers; returns the new instances.

        When the cluster is full, the reclaim callback (if wired) may
        free an idle container elsewhere — modelling the platform
        reclaiming warm sandboxes under capacity pressure — after which
        placement is retried once.
        """
        new_containers: List[Container] = []
        for _ in range(count):
            node = self.cluster.place(
                cpu=self.service.cpu_cores, memory_mb=self.service.memory_mb
            )
            if node is None and self.reclaim_callback is not None:
                if self.reclaim_callback():
                    node = self.cluster.place(
                        cpu=self.service.cpu_cores,
                        memory_mb=self.service.memory_mb,
                    )
            if node is None:
                self.failed_spawns += 1
                continue
            container = self._make_container(
                node, self.cold_start.sample_ms(self.function, self.rng)
            )
            self.containers.append(container)
            self.total_spawns += 1
            self.spawn_times_ms.append(self.sim.now)
            new_containers.append(container)
        return new_containers

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

    def scale_up_to(self, n_target: int) -> int:
        """Ensure at least *n_target* live containers; returns spawns."""
        deficit = n_target - self.n_containers
        return self.spawn(deficit) if deficit > 0 else 0

    def prewarm(self, count: int) -> int:
        """Create *count* already-warm containers (zero cold start).

        Models platform state carried over from steady operation before
        the measured run begins; pre-warmed containers are not counted
        as cold starts.  Returns how many got placed.
        """
        placed = 0
        for _ in range(count):
            node = self.cluster.place(
                cpu=self.service.cpu_cores, memory_mb=self.service.memory_mb
            )
            if node is None:
                break
            container = self._make_container(node, 0.0)
            self.containers.append(container)
            self.prewarmed += 1
            placed += 1
        return placed

    def reap_idle(self, idle_timeout_ms: float) -> int:
        """Terminate containers idle longer than *idle_timeout_ms*."""
        if self.reap_exempt:
            return 0
        reaped = 0
        now = self.sim.now
        for container in self.containers:
            if (
                container.is_reapable
                and now - container.last_used_ms >= idle_timeout_ms
            ):
                self._retire(container)
                reaped += 1
        if reaped:
            self._compact()
        return reaped

    def _retire(self, container: Container) -> None:
        container.terminate()
        self.retired_task_counts.append(container.tasks_executed)
        self.cluster.release(
            container.node,
            self.sim.now,
            cpu=self.service.cpu_cores,
            memory_mb=self.service.memory_mb,
        )

    def _compact(self) -> None:
        self.containers = [
            c for c in self.containers if c.state not in DEAD_STATES
        ]

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

    def monitored_delay_ms(self) -> float:
        """The load monitor's queuing-delay signal: the worse of the
        recently observed delays and the current head-of-queue age —
        the latter bootstraps scaling when nothing completes at all."""
        return max(self.recent_queue_delay_ms(), self.oldest_waiting_age_ms())

    def reclaim_one_idle(self, exclude_busy_window_ms: float = 0.0) -> bool:
        """Terminate this pool's longest-idle reapable container.

        Returns True if one was freed.  Used by the cross-pool reclaim
        path when the cluster runs out of placement capacity.
        """
        best = None
        for container in self.containers:
            if not container.is_reapable:
                continue
            if best is None or container.last_used_ms < best.last_used_ms:
                best = container
        if best is None:
            return False
        if exclude_busy_window_ms > 0.0 and (
            self.sim.now - best.last_used_ms < exclude_busy_window_ms
        ):
            return False
        self._retire(best)
        self._compact()
        return True

    def recent_queue_delay_ms(self) -> float:
        """Mean queuing delay of tasks finished in the last window
        (``Calculate_Delay(last_10s_jobs)`` in Algorithm 1(a))."""
        self._prune_delays()
        if not self._recent_delays:
            return 0.0
        return sum(d for _, d in self._recent_delays) / len(self._recent_delays)

    def _prune_delays(self) -> None:
        horizon = self.sim.now - self.delay_window_ms
        while self._recent_delays and self._recent_delays[0][0] < horizon:
            self._recent_delays.popleft()

    def tasks_per_container(self) -> float:
        """Requests-per-container (RPC, Figure 12a) over the whole run."""
        counts = list(self.retired_task_counts) + [
            c.tasks_executed for c in self.containers
            if c.state not in DEAD_STATES
        ]
        if not counts:
            return 0.0
        return sum(counts) / len(counts)

    # -- container callbacks --------------------------------------------------------

    def _on_container_ready(self, container: Container) -> None:
        self.dispatch()

    def _on_container_crashed(
        self, container: Container, task: Optional[Task], reason: str = "crash"
    ) -> None:
        """A container died mid-execution: release its node, retry the
        lost task (and anything in its local queue)."""
        self.container_crashes += 1
        self.retired_task_counts.append(container.tasks_executed)
        self.cluster.release(
            container.node,
            self.sim.now,
            cpu=self.service.cpu_cores,
            memory_mb=self.service.memory_mb,
        )
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
