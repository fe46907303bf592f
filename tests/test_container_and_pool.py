"""Tests for container lifecycle and function pools."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.coldstart import ColdStartModel
from repro.cluster.container import Container, ContainerState
from repro.core.policies import Provisioning
from repro.core.scheduling import SchedulingPolicy
from repro.sim.engine import Simulator
from repro.workflow.job import Job, Task
from repro.workflow.pool import FunctionPool
from repro.workloads import get_application, get_microservice


def _make_container(sim, batch_size=4, cold_start_ms=100.0, service="ASR"):
    cluster = Cluster(n_nodes=1)
    node = cluster.place()
    done = []
    container = Container(
        sim=sim,
        service=get_microservice(service),
        batch_size=batch_size,
        cold_start_ms=cold_start_ms,
        node=node,
        rng=np.random.default_rng(0),
        on_ready=lambda c: None,
        on_task_done=lambda c, t: done.append(t),
    )
    return container, done


def _task(app="ipa", stage=0, arrival=0.0, enqueue=0.0):
    job = Job(app=get_application(app), arrival_ms=arrival)
    task = Task(job=job, stage_index=stage, enqueue_ms=enqueue)
    task.record.enqueue_ms = enqueue
    return task


class TestContainer:
    def test_starts_spawning_then_ready(self):
        sim = Simulator()
        container, _ = _make_container(sim, cold_start_ms=500.0)
        assert container.state == ContainerState.SPAWNING
        assert not container.is_ready
        sim.run(until=600.0)
        assert container.state == ContainerState.IDLE
        assert container.is_ready

    def test_executes_assigned_task(self):
        sim = Simulator()
        container, done = _make_container(sim, cold_start_ms=100.0)
        task = _task()
        container.assign(task)
        sim.run(until=5000.0)
        assert done == [task]
        assert task.record.end_ms > task.record.start_ms >= 100.0
        assert container.tasks_executed == 1
        assert container.state == ContainerState.IDLE

    def test_cold_start_wait_attribution(self):
        sim = Simulator()
        container, _ = _make_container(sim, cold_start_ms=800.0)
        task = _task(enqueue=0.0)
        container.assign(task)
        sim.run(until=5000.0)
        # Task waited the full cold start.
        assert task.record.cold_start_wait_ms == pytest.approx(800.0)
        assert task.record.queue_delay_ms == pytest.approx(800.0)
        assert task.record.batching_wait_ms == pytest.approx(0.0)

    def test_batching_wait_attribution(self):
        sim = Simulator()
        container, _ = _make_container(sim, cold_start_ms=0.0)
        sim.run(until=1.0)  # become ready
        t1 = _task(enqueue=1.0)
        t2 = _task(enqueue=1.0)
        container.assign(t1)
        container.assign(t2)
        sim.run(until=5000.0)
        # Second task queued behind the first: pure batching delay.
        assert t2.record.cold_start_wait_ms == 0.0
        assert t2.record.batching_wait_ms > 0.0

    def test_sequential_processing(self):
        sim = Simulator()
        container, done = _make_container(sim, batch_size=3, cold_start_ms=0.0)
        tasks = [_task() for _ in range(3)]
        for t in tasks:
            container.assign(t)
        sim.run(until=10_000.0)
        assert done == tasks
        starts = [t.record.start_ms for t in tasks]
        ends = [t.record.end_ms for t in tasks]
        for i in range(1, 3):
            assert starts[i] == pytest.approx(ends[i - 1])

    def test_free_slots_accounting(self):
        sim = Simulator()
        container, _ = _make_container(sim, batch_size=2, cold_start_ms=0.0)
        assert container.free_slots == 2
        container.assign(_task())
        assert container.free_slots == 1
        container.assign(_task())
        assert container.free_slots == 0
        with pytest.raises(RuntimeError):
            container.assign(_task())

    def test_free_tally_through_start_complete_and_crash(self):
        sim = Simulator()
        container, done = _make_container(sim, batch_size=3, cold_start_ms=0.0)

        def tally_holds():
            return container.free == (
                container.batch_size - len(container.local_queue)
                - (container.current_task is not None))

        sim.run(until=1.0)
        for _ in range(3):
            container.assign(_task())
            assert tally_holds()
        assert container.free == 0 and len(container.local_queue) == 2
        while not done:
            sim.run(max_events=sim.events_executed + 1)
        assert tally_holds() and container.free == 1
        # No crash callback wired: the container keeps its own tally.
        container._crash()
        assert tally_holds() and container.free == 2

    def test_terminate_idle(self):
        sim = Simulator()
        container, _ = _make_container(sim, cold_start_ms=0.0)
        sim.run(until=1.0)
        container.terminate()
        assert container.state == ContainerState.TERMINATED
        with pytest.raises(RuntimeError):
            container.assign(_task())

    def test_terminate_busy_raises(self):
        sim = Simulator()
        container, _ = _make_container(sim, cold_start_ms=0.0)
        container.assign(_task())
        sim.run(until=1.0)
        with pytest.raises(RuntimeError):
            container.terminate()

    def test_invalid_batch_size(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            _make_container(sim, batch_size=0)


def _make_pool(
    sim,
    scheduling=SchedulingPolicy.LSF,
    batch_size=4,
    provisioning=Provisioning.RSCALE,
    n_nodes=2,
    service="ASR",
):
    cluster = Cluster(n_nodes=n_nodes)
    finished = []
    pool = FunctionPool(
        sim=sim,
        service=get_microservice(service),
        cluster=cluster,
        batch_size=batch_size,
        stage_slack_ms=300.0,
        stage_response_ms=350.0,
        scheduling=scheduling,
        cold_start=ColdStartModel(jitter_sigma=0.0),
        rng=np.random.default_rng(0),
        on_task_finished=finished.append,
        provisioning=provisioning,
    )
    return pool, cluster, finished


class TestFunctionPool:
    def test_enqueue_without_containers_queues(self):
        sim = Simulator()
        pool, _, _ = _make_pool(sim)
        pool.enqueue(_task())
        assert pool.queue_length == 1
        assert pool.n_containers == 0

    def test_prewarm_serves_immediately(self):
        sim = Simulator()
        pool, _, finished = _make_pool(sim)
        pool.prewarm(1)
        assert pool.total_spawns == 0  # prewarm is not a cold start
        assert pool.prewarmed == 1
        pool.enqueue(_task())
        sim.run(until=1000.0)
        assert len(finished) == 1
        assert finished[0].record.cold_start_wait_ms == 0.0

    def test_spawn_counts_cold_starts(self):
        sim = Simulator()
        pool, _, _ = _make_pool(sim)
        assert pool.spawn(2) == 2
        assert pool.total_spawns == 2
        assert len(pool.spawn_times_ms) == 2

    def test_spawn_on_demand_pins_task_to_cold_container(self):
        sim = Simulator()
        pool, _, finished = _make_pool(
            sim, provisioning=Provisioning.ON_DEMAND, batch_size=1)
        pool.enqueue(_task())
        assert pool.n_containers == 1
        assert pool.queue_length == 0  # pinned into the container
        sim.run(until=60_000.0)
        assert len(finished) == 1
        # The pinned task paid the cold start (ASR ~ 5.75 s mean).
        assert finished[0].record.cold_start_wait_ms > 2000.0

    def test_spawn_on_demand_counts_pending_capacity(self):
        sim = Simulator()
        pool, _, _ = _make_pool(
            sim, provisioning=Provisioning.ON_DEMAND, batch_size=1)
        pool.enqueue(_task())
        pool.enqueue(_task())
        # Two tasks, two containers, no storm beyond the deficit.
        assert pool.n_containers == 2
        pool.enqueue(_task())
        assert pool.n_containers == 3

    def test_no_spawn_when_warm_capacity_free(self):
        sim = Simulator()
        pool, _, _ = _make_pool(
            sim, provisioning=Provisioning.ON_DEMAND, batch_size=1)
        pool.prewarm(2)
        sim.run(until=1.0)
        pool.enqueue(_task())
        assert pool.total_spawns == 0

    def test_greedy_dispatch_least_free_slots(self):
        sim = Simulator()
        pool, _, _ = _make_pool(sim, batch_size=3)
        pool.prewarm(2)
        sim.run(until=1.0)
        # Load container A with 1 task -> it has fewer free slots.
        first = _task()
        pool.enqueue(first)
        loaded = [c for c in pool.containers if c.occupied_slots][0]
        second = _task()
        pool.enqueue(second)
        # Greedy picks the loaded container again.
        assert loaded.occupied_slots == 2

    def test_dispatch_skips_spawning_containers(self):
        sim = Simulator()
        pool, _, _ = _make_pool(sim)
        pool.spawn(1)  # still cold
        pool.enqueue(_task())
        assert pool.queue_length == 1  # waits in the global queue

    def test_reap_idle_after_timeout(self):
        sim = Simulator()
        pool, cluster, _ = _make_pool(sim)
        pool.prewarm(2)
        sim.run(until=1.0)
        assert pool.reap_idle(idle_timeout_ms=10_000.0) == 0  # too fresh
        sim.run(until=20_000.0)
        assert pool.reap_idle(idle_timeout_ms=10_000.0) == 2
        assert pool.n_containers == 0
        assert cluster.total_containers == 0

    def test_reap_exempt_pool(self):
        sim = Simulator()
        pool, _, _ = _make_pool(sim, provisioning=Provisioning.STATIC)
        assert pool.reap_exempt
        pool.prewarm(1)
        sim.run(until=100_000.0)
        assert pool.reap_idle(idle_timeout_ms=1.0) == 0

    def test_busy_container_never_reaped(self):
        sim = Simulator()
        pool, _, _ = _make_pool(sim, batch_size=1)
        pool.prewarm(1)
        sim.run(until=1.0)
        pool.enqueue(_task())
        # Mid-execution: not reapable.
        assert pool.reap_idle(idle_timeout_ms=0.0) == 0

    def test_monitored_delay_includes_queue_age(self):
        sim = Simulator()
        pool, _, _ = _make_pool(sim)
        pool.enqueue(_task(enqueue=0.0))
        sim.run(until=5000.0)
        assert pool.oldest_waiting_age_ms() == pytest.approx(5000.0)
        assert pool.monitored_delay_ms() >= 5000.0

    def test_recent_queue_delay_window(self):
        sim = Simulator()
        pool, _, finished = _make_pool(sim, batch_size=2)
        pool.prewarm(1)
        pool.enqueue(_task())
        pool.enqueue(_task())
        sim.run(until=1000.0)
        assert len(finished) == 2
        assert pool.recent_queue_delay_ms() >= 0.0
        # After the window passes, the signal decays to zero.
        sim.run(until=60_000.0)
        assert pool.recent_queue_delay_ms() == 0.0

    def test_capacity_and_rpc_metrics(self):
        sim = Simulator()
        pool, _, _ = _make_pool(sim, batch_size=4)
        pool.prewarm(2)
        sim.run(until=1.0)
        assert pool.capacity_requests == 8
        for _ in range(6):
            pool.enqueue(_task())
        sim.run(until=10_000.0)
        assert pool.tasks_completed == 6
        assert pool.tasks_per_container() == pytest.approx(3.0)

    def test_rpc_includes_retired_containers(self):
        sim = Simulator()
        pool, _, _ = _make_pool(sim, batch_size=1)
        pool.prewarm(1)
        pool.enqueue(_task())
        sim.run(until=5000.0)
        pool.reap_idle(idle_timeout_ms=100.0)
        assert pool.tasks_per_container() == pytest.approx(1.0)

    def test_reclaim_one_idle(self):
        sim = Simulator()
        pool, cluster, _ = _make_pool(sim)
        pool.prewarm(2)
        sim.run(until=1.0)
        assert pool.reclaim_one_idle() is True
        assert pool.n_containers == 1
        pool.enqueue(_task())
        assert pool.reclaim_one_idle() in (True, False)

    def test_reclaim_callback_frees_capacity(self):
        sim = Simulator()
        pool, cluster, _ = _make_pool(sim, n_nodes=1, batch_size=1)
        # Fill the single node (32 containers at 0.5 cpu on 16 cores).
        pool.prewarm(32)
        sim.run(until=1.0)
        assert pool.spawn(1) == 0  # no callback wired -> fails
        pool.reclaim_callback = pool.reclaim_one_idle
        assert pool.spawn(1) == 1  # reclaims an idle sibling and places


class TestSameInstantDispatch:
    """An enqueue into an empty queue on a pool that does not spawn on
    demand is placed by one container scan, without the global queue's
    push/pop round trip (DESIGN.md section 10.1)."""

    @staticmethod
    def _warm_pool(batch_size=2, warm=2):
        sim = Simulator()
        pool, _, _ = _make_pool(sim, batch_size=batch_size)
        assert pool.prewarm(warm) == warm
        sim.run(until=1.0)
        scans = []
        select = pool._select_container

        def counted():
            scans.append(None)
            return select()

        pool._select_container = counted
        return pool, scans

    @staticmethod
    def _untouched(pool):
        # The LSF heap holds nothing and its insertion counter never moved.
        return pool.queue._heap == [] and repr(pool.queue._counter) == "count(0)"

    def test_idle_least_free_container_starts_the_task(self):
        pool, scans = self._warm_pool()
        first, second = pool.containers
        task = _task()
        pool.enqueue(task)
        assert self._untouched(pool) and len(scans) == 1
        # All tie at two free slots: the first in list order wins, and
        # the task starts there at once, never entering the waiting view.
        assert first.current_task is task and first.free == 1
        assert second.free == 2
        assert task.record.start_ms == 1.0
        assert list(pool._waiting) == []

    def test_busy_target_puts_the_task_on_waiting(self):
        pool, scans = self._warm_pool()
        first, second = pool.containers
        running, queued = _task(), _task()
        pool.enqueue(running)
        pool.enqueue(queued)
        # The least-free container (one slot left) takes it, behind the
        # running task: it has not started, so it is waiting.
        assert self._untouched(pool) and len(scans) == 2
        assert list(first.local_queue) == [queued] and first.free == 0
        assert second.free == 2
        assert queued.record.start_ms < 0
        assert list(pool._waiting) == [queued]
        # The next one goes to the other, idle container and starts.
        third = _task()
        pool.enqueue(third)
        assert second.current_task is third and second.free == 1
        assert list(pool._waiting) == [queued]

    def test_no_room_queues_the_task_exactly_once(self):
        pool, scans = self._warm_pool(batch_size=1)
        for _ in range(2):
            pool.enqueue(_task())
        assert self._untouched(pool)
        overflow = _task()
        pool.enqueue(overflow)
        assert len(scans) == 3  # one scan per enqueue, none after the push
        assert pool.queue_length == 1
        assert [entry[2] for entry in pool.queue._heap] == [overflow]
        assert repr(pool.queue._counter) == "count(1)"
        assert list(pool._waiting) == [overflow]

    def test_backlog_keeps_the_queue_path(self):
        pool, scans = self._warm_pool(batch_size=1)
        for _ in range(3):
            pool.enqueue(_task())
        # A non-empty queue goes through push + dispatch: the fourth task
        # is pushed behind the third.
        late = _task()
        pool.enqueue(late)
        assert pool.queue_length == 2
        assert repr(pool.queue._counter) == "count(2)"
        assert list(pool._waiting)[-1] is late
