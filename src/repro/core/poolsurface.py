"""The per-stage pool contract, written once (section 5.1, Algorithm 1).

What the scalers, the control plane, the metrics collector and the
shard orchestrator read and actuate on a pool is :class:`PoolSurface`:
the ten ``pool_*`` registry series, the capacity reads, the
``Calculate_Delay`` signal and the whole actuation policy (spawn with
reclaim-and-retry, prewarm, backlog spawning with pinning, idle reap,
cross-pool reclaim, retire).  ``workflow.pool.FunctionPool`` (hence
``serve.pool.WorkerPool``) and ``runtime.vector.VectorPool`` inherit it
and supply only a *representation* — queue, monitor windows, containers
and the hot paths over them; DESIGN.md section 13 has the measurement
that keeps those per engine.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from repro.obs.registry import MetricsRegistry


class _PoolCounter:
    """One ``pool_*`` counter exposed as an int attribute: ``pool.x``
    reads and ``pool.x += 1`` writes the registry series labelled by
    pool, so run totals always reconcile with the per-pool sums."""

    def __init__(self, series: str) -> None:
        self.series = series

    def __get__(self, pool, owner=None):
        if pool is None:
            return self
        return int(pool._counters[self.series].value)

    def __set__(self, pool, value: int) -> None:
        pool._counters[self.series].set_value(float(value))


class PoolSurface:
    """What every consumer of a pool may rely on, over a representation.

    A subclass stores the queue, the monitor windows and the containers
    its own way and provides the members annotated first below, plus
    the hooks ``_make_container(node, cold_start_ms)`` and
    ``_pin_head(container)``.  Its containers expose ``free_slots``,
    ``occupied_slots``, ``is_reapable``, ``last_used_ms``,
    ``tasks_executed``, ``node`` and ``terminate()``.
    """

    now: float                   #: the engine's clock (ms)
    queue_length: int            #: ``PQ_len``: tasks in the global queue
    live_containers: List
    free_slots: int              #: on ready containers (dispatchable now)
    pending_capacity: int        #: on containers still spawning
    recent_arrival_rate_rps: Callable[[], float]
    recent_queue_delay_ms: Callable[[], float]
    oldest_waiting_age_ms: Callable[[], float]
    dispatch: Callable[[], None]

    # Registration order is export order: keep it.
    container_crashes = _PoolCounter("pool_container_crashes_total")
    #: Tasks put back into the global queue after a failed attempt
    #: (container crash, execution timeout, node kill).
    task_retries = _PoolCounter("pool_task_retries_total")
    #: Executions killed by the per-task timeout (hung workers).
    task_timeouts = _PoolCounter("pool_task_timeouts_total")
    #: Tasks routed to the dead-letter queue (retries exhausted).
    tasks_dead_lettered = _PoolCounter("pool_tasks_dead_lettered_total")
    total_spawns = _PoolCounter("pool_spawns_total")
    failed_spawns = _PoolCounter("pool_failed_spawns_total")
    tasks_enqueued = _PoolCounter("pool_tasks_enqueued_total")
    #: Tasks dropped at this stage by slack-aware admission control
    #: (residual slack already negative with no free capacity).
    tasks_shed = _PoolCounter("pool_tasks_shed_total")
    tasks_completed = _PoolCounter("pool_tasks_completed_total")

    def __init__(
        self,
        service,
        cluster,
        batch_size: int,
        stage_slack_ms: float,
        stage_response_ms: float,
        cold_start,
        rng,
        spawn_on_demand: bool = False,
        reap_exempt: bool = False,
        delay_window_ms: float = 10_000.0,
        single_use: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.service = service
        self.cluster = cluster
        self.batch_size = batch_size
        self.stage_slack_ms = stage_slack_ms
        self.stage_response_ms = stage_response_ms
        self.cold_start = cold_start
        self.rng = rng
        self.spawn_on_demand = spawn_on_demand
        self.reap_exempt = reap_exempt
        self.delay_window_ms = delay_window_ms
        #: Brigade's default mode: "creates a worker pod for each job ...
        #: and destroys the containers after job completion" — each
        #: container serves exactly one task, then terminates.
        self.single_use = single_use
        # The run-wide registry backs every counter above (a private one
        # is created when none is shared).
        self.registry = registry or MetricsRegistry()
        self._counters = {
            member.series: self.registry.counter(
                member.series, pool=service.name)
            for member in vars(PoolSurface).values()
            if isinstance(member, _PoolCounter)
        }
        self._g_containers = self.registry.gauge(
            "pool_live_containers", pool=service.name)
        #: Invoked when placement fails; should free capacity elsewhere
        #: (the system wires this to cross-pool idle reclaim) and return
        #: True when a retry is worthwhile.
        self.reclaim_callback: Optional[Callable[[], bool]] = None
        self.containers: List = []
        self.prewarmed = 0
        self.spawn_times_ms: List[float] = []
        self.retired_task_counts: List[int] = []

    # -- identity / capacity ---------------------------------------------------

    @property
    def function(self) -> str:
        return self.service.name

    @property
    def n_containers(self) -> int:
        return len(self.live_containers)

    @property
    def capacity_requests(self) -> int:
        """``current_req`` of Algorithm 1: containers x batch size."""
        return self.n_containers * self.batch_size

    def sample_containers(self) -> int:
        """The collector's monitor sample: live containers, gauged."""
        n = self.n_containers
        self._g_containers.set(n)
        return n

    def record_shed(self) -> None:
        """Count one stage-level shed, on every plane."""
        self.tasks_shed += 1

    # -- monitor ---------------------------------------------------------------

    def monitored_delay_ms(self) -> float:
        """The load monitor's queuing-delay signal: the worse of the
        recently observed delays and the current head-of-queue age —
        the latter bootstraps scaling when nothing completes at all."""
        return max(self.recent_queue_delay_ms(), self.oldest_waiting_age_ms())

    def tasks_per_container(self) -> float:
        """Requests-per-container (RPC, Figure 12a) over the whole run."""
        counts = self.retired_task_counts + [
            c.tasks_executed for c in self.live_containers]
        if not counts:
            return 0.0
        return sum(counts) / len(counts)

    # -- actuation -------------------------------------------------------------

    def _place(self):
        return self.cluster.place(
            cpu=self.service.cpu_cores, memory_mb=self.service.memory_mb)

    def _draw_cold_start_ms(self) -> float:
        return self.cold_start.sample_ms(self.function, self.rng)

    def spawn(self, count: int = 1) -> int:
        """Start *count* cold containers; returns how many got placed."""
        return len(self._spawn_list(count))

    def _spawn_list(self, count: int) -> List:
        """Start *count* cold containers; returns the new instances.

        When the cluster is full, the reclaim callback (if wired) may
        free an idle container elsewhere — modelling the platform
        reclaiming warm sandboxes under capacity pressure — after which
        placement is retried once.
        """
        new_containers = []
        for _ in range(count):
            node = self._place()
            if node is None and self.reclaim_callback is not None:
                if self.reclaim_callback():
                    node = self._place()
            if node is None:
                self.failed_spawns += 1
                continue
            container = self._make_container(node, self._draw_cold_start_ms())
            self.containers.append(container)
            self.total_spawns += 1
            self.spawn_times_ms.append(self.now)
            new_containers.append(container)
        return new_containers

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
            node = self._place()
            if node is None:
                break
            self.containers.append(self._make_container(node, 0.0))
            self.prewarmed += 1
            placed += 1
        return placed

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
        for container in self._spawn_list(math.ceil(deficit / self.batch_size)):
            while container.free_slots > 0 and self.queue_length:
                self._pin_head(container)

    def reap_idle(self, idle_timeout_ms: float) -> int:
        """Terminate containers idle longer than *idle_timeout_ms*."""
        if self.reap_exempt:
            return 0
        reaped = 0
        now = self.now
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
            self.now - best.last_used_ms < exclude_busy_window_ms
        ):
            return False
        self._retire(best)
        self._compact()
        return True

    def _retire(self, container) -> None:
        container.terminate()
        self._release(container)

    def _release(self, container) -> None:
        """Book a container that is gone (retired or crashed): its task
        count joins the RPC record and its node gets the resources back."""
        self.retired_task_counts.append(container.tasks_executed)
        self.cluster.release(
            container.node,
            self.now,
            cpu=self.service.cpu_cores,
            memory_mb=self.service.memory_mb,
        )

    def _compact(self) -> None:
        self.containers = self.live_containers


#: Every member name of the contract; ``tests/test_pool_contract.py``
#: holds the pool classes to one definition of each, bar the annotated.
SURFACE = tuple(
    name for name in (*PoolSurface.__annotations__, *vars(PoolSurface))
    if not name.startswith("__"))
