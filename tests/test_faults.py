"""Failure-injection tests: crashes, node failures, registry brownouts."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.coldstart import ColdStartModel
from repro.cluster.faults import (
    ContainerFaultModel,
    RegistryDegradation,
    fail_node,
)
from repro.core.policies import Provisioning
from repro.core.scheduling import SchedulingPolicy
from repro.sim.engine import Simulator
from repro.workflow.job import Job, Task
from repro.workflow.pool import FunctionPool
from repro.workloads import get_application, get_microservice


def _pool(sim, cluster=None, batch_size=2,
          provisioning=Provisioning.RSCALE, fault_model=None):
    cluster = cluster or Cluster(n_nodes=2)
    finished = []
    pool = FunctionPool(
        sim=sim,
        service=get_microservice("ASR"),
        cluster=cluster,
        batch_size=batch_size,
        stage_slack_ms=300.0,
        stage_response_ms=350.0,
        scheduling=SchedulingPolicy.FIFO,
        cold_start=ColdStartModel(jitter_sigma=0.0),
        rng=np.random.default_rng(0),
        on_task_finished=finished.append,
        provisioning=provisioning,
    )
    pool.fault_model = fault_model
    return pool, cluster, finished


def _task(pool):
    job = Job(app=get_application("ipa"), arrival_ms=pool.sim.now)
    task = Task(job=job, stage_index=0, enqueue_ms=pool.sim.now)
    pool.enqueue(task)
    return task


class TestContainerFaultModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContainerFaultModel(crash_probability=1.5)
        with pytest.raises(ValueError):
            ContainerFaultModel(crash_point=0.0)

    def test_zero_probability_never_crashes(self):
        model = ContainerFaultModel(crash_probability=0.0)
        rng = np.random.default_rng(0)
        assert not any(model.should_crash(rng) for _ in range(100))

    def test_certain_crash(self):
        model = ContainerFaultModel(crash_probability=1.0)
        assert model.should_crash(np.random.default_rng(0))

    def test_crashed_task_is_retried(self):
        sim = Simulator()
        fault = ContainerFaultModel(crash_probability=1.0)
        pool, cluster, finished = _pool(sim, fault_model=fault)
        pool.prewarm(1)
        task = _task(pool)
        sim.run(until=100.0)
        # First attempt crashed; disable faults so the retry succeeds.
        assert pool.container_crashes >= 1
        assert not finished
        pool.fault_model = None
        pool.prewarm(1)
        sim.run(until=10_000.0)
        assert finished == [task]
        assert cluster.total_containers == pool.n_containers

    def test_crash_releases_node_capacity(self):
        sim = Simulator()
        fault = ContainerFaultModel(crash_probability=1.0)
        cluster = Cluster(n_nodes=1, cores_per_node=0.5)  # one slot
        pool, _, _ = _pool(sim, cluster=cluster, fault_model=fault)
        pool.prewarm(1)
        _task(pool)
        sim.run(until=1000.0)
        assert pool.container_crashes == 1
        # The dead container's core is free again.
        assert cluster.total_containers == 0
        assert cluster.place() is not None

    def test_intermittent_crashes_do_not_lose_jobs(self):
        sim = Simulator()
        fault = ContainerFaultModel(crash_probability=0.1)
        pool, _, finished = _pool(
            sim, batch_size=1, provisioning=Provisioning.ON_DEMAND,
            fault_model=fault
        )
        tasks = [_task(pool) for _ in range(40)]
        sim.run(until=600_000.0)
        assert len(finished) == 40
        assert pool.container_crashes > 0
        # Every job eventually completed exactly once.
        assert {t.job.job_id for t in finished} == {
            t.job.job_id for t in tasks
        }


class TestNodeFailure:
    def test_kills_containers_and_requeues_tasks(self):
        sim = Simulator()
        cluster = Cluster(n_nodes=1)
        pool, _, finished = _pool(sim, cluster=cluster, batch_size=4)
        pool.prewarm(2)
        sim.run(until=1.0)
        for _ in range(6):
            _task(pool)
        # Mid-execution, the node dies.
        sim.run(until=10.0)
        destroyed = fail_node(cluster.nodes[0], [pool], sim.now)
        assert destroyed == 2
        assert pool.n_containers == 0
        assert cluster.total_containers == 0
        assert pool.queue_length == 6  # everything back in the queue
        # Replacement capacity drains the backlog.
        pool.prewarm(2)
        sim.run(until=60_000.0)
        assert len(finished) == 6

    def test_inflight_completion_event_is_noop(self):
        sim = Simulator()
        cluster = Cluster(n_nodes=1)
        pool, _, finished = _pool(sim, cluster=cluster)
        pool.prewarm(1)
        sim.run(until=1.0)
        _task(pool)
        sim.run(until=2.0)  # execution started, completion pending
        fail_node(cluster.nodes[0], [pool], sim.now)
        # The stale completion event fires harmlessly.
        sim.run(until=60_000.0)
        assert finished == []
        assert pool.queue_length == 1

    def test_failing_empty_node_is_safe(self):
        sim = Simulator()
        cluster = Cluster(n_nodes=2)
        pool, _, _ = _pool(sim, cluster=cluster)
        assert fail_node(cluster.nodes[1], [pool], sim.now) == 0


class TestRegistryDegradation:
    def test_outside_window_matches_base(self):
        base = ColdStartModel(jitter_sigma=0.0)
        degraded = RegistryDegradation(
            base, start_ms=1000.0, end_ms=2000.0, factor=5.0,
            now_fn=lambda: 0.0,
        )
        assert degraded.sample_ms("ASR") == base.sample_ms("ASR")
        assert degraded.degraded_spawns == 0

    def test_inside_window_inflates(self):
        base = ColdStartModel(jitter_sigma=0.0)
        now = {"t": 1500.0}
        degraded = RegistryDegradation(
            base, start_ms=1000.0, end_ms=2000.0, factor=5.0,
            now_fn=lambda: now["t"],
        )
        assert degraded.sample_ms("ASR") == pytest.approx(
            5.0 * base.sample_ms("ASR")
        )
        assert degraded.degraded_spawns == 1
        now["t"] = 2500.0
        assert degraded.sample_ms("ASR") == base.sample_ms("ASR")

    def test_validation(self):
        with pytest.raises(ValueError):
            RegistryDegradation(factor=0.5)
        with pytest.raises(ValueError):
            RegistryDegradation(start_ms=10.0, end_ms=5.0)

    def test_brownout_slows_spawns_end_to_end(self):
        sim = Simulator()
        cluster = Cluster(n_nodes=2)
        degraded = RegistryDegradation(
            ColdStartModel(jitter_sigma=0.0),
            start_ms=0.0, end_ms=float("inf"), factor=4.0,
            now_fn=lambda: sim.now,
        )
        finished = []
        pool = FunctionPool(
            sim=sim,
            service=get_microservice("ASR"),
            cluster=cluster,
            batch_size=1,
            stage_slack_ms=300.0,
            stage_response_ms=350.0,
            scheduling=SchedulingPolicy.FIFO,
            cold_start=degraded,
            rng=np.random.default_rng(0),
            on_task_finished=finished.append,
            provisioning=Provisioning.ON_DEMAND,
        )
        job = Job(app=get_application("ipa"), arrival_ms=0.0)
        pool.enqueue(Task(job=job, stage_index=0, enqueue_ms=0.0))
        sim.run(until=120_000.0)
        assert len(finished) == 1
        # The pinned task waited ~4x the normal ASR cold start.
        wait = finished[0].record.cold_start_wait_ms
        assert wait > 3.0 * ColdStartModel().mean_ms("ASR")
