"""Stateful property-based testing of the pool/cluster/container core.

A hypothesis rule-based state machine drives a FunctionPool through
random interleavings of enqueue / spawn / prewarm / time-advance / reap
/ container crash / purge / node failure operations and checks the
conservation invariants after every step: tasks are never lost or
duplicated, cluster CPU accounting matches live containers, capacity
views stay consistent, and every container's ``free`` tally equals
what it stands for.
"""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.coldstart import ColdStartModel
from repro.cluster.container import ContainerState
from repro.cluster.faults import fail_node
from repro.core.policies import Provisioning
from repro.core.scheduling import SchedulingPolicy
from repro.sim.engine import Simulator
from repro.workflow.job import Job, Task
from repro.workflow.pool import FunctionPool
from repro.workloads import get_application, get_microservice


class PoolMachine(RuleBasedStateMachine):
    """Random operation sequences against one ASR pool on 2 nodes."""

    @initialize(
        batch_size=st.integers(min_value=1, max_value=6),
        provisioning=st.sampled_from(
            [Provisioning.RSCALE, Provisioning.ON_DEMAND]),
        scheduling=st.sampled_from(list(SchedulingPolicy)),
    )
    def setup(self, batch_size, provisioning, scheduling):
        self.sim = Simulator()
        self.cluster = Cluster(n_nodes=2, cores_per_node=4)
        self.finished = []
        self.submitted = 0
        self.purged = 0
        #: Every container the pool ever listed, dead ones included.
        self.seen = set()
        self.pool = FunctionPool(
            sim=self.sim,
            service=get_microservice("ASR"),
            cluster=self.cluster,
            batch_size=batch_size,
            stage_slack_ms=300.0,
            stage_response_ms=350.0,
            scheduling=scheduling,
            cold_start=ColdStartModel(jitter_sigma=0.0),
            rng=np.random.default_rng(0),
            on_task_finished=self.finished.append,
            provisioning=provisioning,
        )
        self.pool.reclaim_callback = self.pool.reclaim_one_idle

    # -- operations --------------------------------------------------------

    @rule(n=st.integers(min_value=1, max_value=5))
    def submit_tasks(self, n):
        for _ in range(n):
            job = Job(app=get_application("ipa"), arrival_ms=self.sim.now)
            self.pool.enqueue(
                Task(job=job, stage_index=0, enqueue_ms=self.sim.now)
            )
            self.submitted += 1

    @rule(n=st.integers(min_value=1, max_value=3))
    def spawn_containers(self, n):
        self.pool.spawn(n)

    @rule(n=st.integers(min_value=1, max_value=3))
    def prewarm_containers(self, n):
        self.pool.prewarm(n)

    @rule(ms=st.floats(min_value=1.0, max_value=20_000.0))
    def advance_time(self, ms):
        self.sim.run(until=self.sim.now + ms)

    @rule(timeout=st.floats(min_value=0.0, max_value=30_000.0))
    def reap_idle(self, timeout):
        self.pool.reap_idle(idle_timeout_ms=timeout)

    @rule()
    def reclaim_one(self):
        self.pool.reclaim_one_idle()

    @rule(index=st.integers(min_value=0, max_value=7))
    def crash_container(self, index):
        live = self.pool.live_containers
        if live:
            live[index % len(live)]._crash()

    @rule()
    def purge_queued(self):
        self.purged += self.pool.purge_queued()

    @rule(index=st.integers(min_value=0, max_value=1))
    def kill_node(self, index):
        fail_node(self.cluster.nodes[index], [self.pool], self.sim.now)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def no_task_lost_or_duplicated(self):
        in_queue = self.pool.queue_length
        in_containers = sum(
            c.occupied_slots
            for c in self.pool.containers
            if c.state != ContainerState.TERMINATED
        )
        done = len(self.finished)
        assert in_queue + in_containers + done + self.purged == self.submitted

    @invariant()
    def free_tally_matches_slots(self):
        self.seen.update(self.pool.containers)
        for container in self.seen:
            assert container.free == (
                container.batch_size - len(container.local_queue)
                - (container.current_task is not None))

    @invariant()
    def cluster_cpu_matches_live_containers(self):
        live = self.pool.n_containers
        expected_cpu = live * self.pool.service.cpu_cores
        assert abs(self.cluster.allocated_cpu - expected_cpu) < 1e-6
        assert self.cluster.total_containers == live

    @invariant()
    def capacity_views_consistent(self):
        for container in self.pool.live_containers:
            assert 0 <= container.occupied_slots <= container.batch_size
            assert container.free_slots == (
                container.batch_size - container.occupied_slots
            )
        assert self.pool.free_slots >= 0
        assert self.pool.pending_capacity >= 0

    @invariant()
    def terminated_containers_hold_no_work(self):
        for container in self.pool.containers:
            if container.state == ContainerState.TERMINATED:
                assert container.current_task is None
                assert not container.local_queue

    @invariant()
    def completed_tasks_have_consistent_records(self):
        for task in self.finished:
            record = task.record
            assert record.end_ms >= record.start_ms >= record.enqueue_ms
            assert record.exec_ms > 0
            assert record.cold_start_wait_ms >= 0
            assert record.queue_delay_ms >= record.cold_start_wait_ms - 1e-9

    def teardown(self):
        # Drain fully: with enough time and capacity every task finishes.
        self.pool.spawn(2)
        self.sim.run(until=self.sim.now + 300_000.0)
        self.pool.dispatch()
        self.sim.run(until=self.sim.now + 300_000.0)
        if self.cluster.total_containers == 0 and self.pool.queue_length:
            # Cluster had no capacity at all — acceptable terminal state.
            return
        assert len(self.finished) + self.purged == self.submitted


PoolMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestPoolStateMachine = PoolMachine.TestCase
