"""One pool contract under both of its representations.

One scripted sequence — opening prewarm, an enqueue burst past
capacity, backlog spawning with pinning, spawns against a full cluster
without and with a reclaim callback, completions (warm and behind a
cold start), idle, window expiry, ``reap_idle``, ``reclaim_one_idle``
with and without ``exclude_busy_window_ms``, a single-use retire — runs
over ``FunctionPool`` on a manual ``Simulator`` and over ``VectorPool``
through a ``VectorEngine`` stepped by hand.  After every step both
must give the same scaler-facing readings and the same ``pool_*``
registry series, float for float.

A coda, on ``FunctionPool`` alone (the vector engine injects no
container faults), carries on past the script through a container
crash, ``purge_queued`` and ``fail_node``; after every step of both,
every event-loop container's ``free`` tally equals what it stands for.

The structural test then holds the two classes to *one definition* of
every name in ``poolsurface.SURFACE``: whatever ``VectorPool`` does not
list, with its reason, in ``VECTOR_OVERRIDES`` must resolve to the very
function object ``FunctionPool`` resolves to.
"""

import inspect
import itertools
from functools import partial

import numpy as np
import pytest

from repro.cluster.faults import fail_node
from repro.core.controlplane import prewarm_opening_capacity
from repro.core.policies import make_policy_config
from repro.core.poolsurface import SURFACE, PoolSurface
from repro.core.scheduling import SchedulingPolicy
from repro.runtime.system import ClusterSpec, ServerlessSystem
from repro.runtime.vector import VectorEngine, VectorPool
from repro.serve.pool import WorkerPool
from repro.sim.engine import Simulator
from repro.traces.base import ArrivalTrace
from repro.workflow.job import Job, Task
from repro.workflow.pool import FunctionPool
from repro.workloads.applications import Application
from repro.workloads.microservices import MICROSERVICES
from repro.workloads.mixes import WorkloadMix

NAME = "QA"
#: One single-stage chain, so the engine under test holds exactly one
#: pool and a completed task is a completed job.
APP = Application(name="solo", stages=(MICROSERVICES[NAME],), slo_ms=250.0,
                  transition_overhead_ms=5.0)
MIX = WorkloadMix("solo", (APP,), (1.0,))
#: Room for four half-core containers, then the cluster is full.
CLUSTER = ClusterSpec(n_nodes=1, cores_per_node=2.0)
BURST = 8
ARRIVALS = [100.0 + 0.5 * i for i in range(BURST)] + [16_000.0]
TRACE = ArrivalTrace(np.array(ARRIVALS), name="script")

COUNTERS = (
    "container_crashes", "task_retries", "task_timeouts",
    "tasks_dead_lettered", "total_spawns", "failed_spawns",
    "tasks_enqueued", "tasks_shed", "tasks_completed",
)
#: Published by the vector engine only at ``finish()`` (hot-loop ints).
LAZY_SERIES = ("pool_tasks_enqueued_total", "pool_tasks_completed_total")


def make_system(scheduling, engine=None):
    # An idle timeout past the script's end (and, on the vector engine,
    # no scaler): the monitor ticks it fires at 10 s and 20 s only sample.
    config = make_policy_config(
        "rscale", idle_timeout_ms=1e12, scheduling=scheduling)
    return ServerlessSystem(config, MIX, CLUSTER, seed=3, engine=engine)


class SimDriver:
    def __init__(self, scheduling):
        system = make_system(scheduling)
        system._build_substrate()
        self.sim = Simulator()
        self.registry = system.registry
        self.pool = FunctionPool(
            sim=self.sim, on_task_finished=lambda task: None,
            **system._pool_args(NAME))
        prewarm_opening_capacity(
            {NAME: self.pool}, TRACE, system.config, system.stage_shares)
        for at in ARRIVALS:
            self.sim.schedule_at(
                at + APP.transition_overhead_ms, partial(self._enqueue, at))

    def _enqueue(self, arrival_ms):
        job = Job(app=APP, arrival_ms=arrival_ms)
        self.pool.enqueue(Task(job=job, stage_index=0, enqueue_ms=self.sim.now))

    def advance(self, until):
        self.sim.run(until=until)

    def finish(self):
        pass


class VectorDriver:
    def __init__(self, scheduling):
        self.eng = VectorEngine(make_system(scheduling, "vector"), TRACE)
        self.eng.control.scaler = None
        self.registry = self.eng.registry
        self.pool = self.eng.pools[NAME]

    def advance(self, until):
        self.eng.step_until(until)

    def finish(self):
        self.eng.finish()


def script(driver):
    """Yields a label after every step; the caller snapshots there."""
    pool = driver.pool
    assert pool.batch_size == 3 and BURST == 2 * pool.batch_size + 2
    yield "opening prewarm (one warm container at t=0)"
    assert pool.prewarm(1) == 1
    yield "prewarm"
    driver.advance(140.0)
    yield "burst: two containers full, two tasks queued, none done"
    pool._spawn_for_backlog()
    yield "backlog spawn: one cold container, both queued tasks pinned"
    pool.reclaim_callback = None
    assert pool.spawn(2) == 1
    yield "spawn(2) with room for one and no reclaim: one failed spawn"
    pool.reclaim_callback = pool.reclaim_one_idle
    assert pool.spawn(1) == 0
    yield "spawn(1), cluster full, nothing idle to reclaim: failed"
    driver.advance(1_000.0)
    yield "warm tasks complete; the pinned two still wait on the cold start"
    assert pool.spawn(1) == 1
    yield "spawn(1), cluster full: reclaims the longest-idle, retries once"
    driver.advance(6_000.0)
    yield "cold containers ready; pinned tasks ran with a cold-start wait"
    driver.advance(9_000.0)
    yield "idle, monitor windows still hold the burst"
    driver.advance(15_000.0)
    yield "monitor windows expired (a tick sampled at 10 s)"
    assert pool.reap_idle(13_000.0) == 1
    yield "reap_idle: only the warm container idled that long"
    assert pool.reclaim_one_idle(exclude_busy_window_ms=20_000.0) is False
    yield "reclaim_one_idle: longest-idle used inside the excluded window"
    assert pool.reclaim_one_idle() is True
    yield "reclaim_one_idle"
    pool.single_use = True
    driver.advance(17_000.0)
    yield "single-use: the late task's container retired on completion"
    driver.finish()
    yield "finished"


def fault_coda(driver):
    """Past the script, on the event loop only: faults that clear local
    queues and running tasks.  Yields a label after every step."""
    pool = driver.pool
    batch = pool.batch_size
    pool.single_use = False
    assert pool.prewarm(2) == 2
    driver.advance(17_001.0)
    for i in range(3 * batch + 2):
        driver._enqueue(17_001.0 + i)
    assert pool.queue_length == 2 and pool.free_slots == 0
    yield "coda: burst fills the three containers, two tasks queued"
    pool.containers[0]._crash()
    assert pool.queue_length == 2 + batch and pool.n_containers == 2
    yield "coda: a busy container crashed, its tasks back in the queue"
    assert pool.purge_queued() == 2 + batch + 2 * (batch - 1)
    assert pool.queue_length == 0 and pool.free_slots == 2 * (batch - 1)
    yield "coda: purge_queued dropped every queued task, runs kept"
    assert pool.spawn(1) == 1
    for i in range(2 * batch):
        driver._enqueue(17_001.0 + i)
    assert pool.queue_length == 2 and pool.free_slots == 0
    yield "coda: a cold spawn; the warm two refilled, two tasks queued"
    assert fail_node(pool.cluster.nodes[0], [pool], driver.sim.now) == 3
    assert pool.n_containers == 0 and pool.queue_length == 2 + 2 * batch
    yield "coda: fail_node killed every container, their tasks requeued"


def assert_free_tally(containers, label):
    """Each event-loop container's free-slot tally equals its slots."""
    assert [c.free for c in containers] == [
        c.batch_size - len(c.local_queue) - (c.current_task is not None)
        for c in containers], label


def readings(pool):
    """Everything a scaler, the control plane or the collector reads."""
    node = pool.cluster.nodes[0]
    return {
        "function": pool.function,
        "n_containers": pool.n_containers,
        "capacity_requests": pool.capacity_requests,
        "queue_length": pool.queue_length,
        "free_slots": pool.free_slots,
        "pending_capacity": pool.pending_capacity,
        "containers": [
            (c.free_slots, c.occupied_slots, c.is_reapable, c.last_used_ms,
             c.tasks_executed) for c in pool.live_containers],
        "listed": len(pool.containers),
        "arrival_rate": pool.recent_arrival_rate_rps(),
        "queue_delay": pool.recent_queue_delay_ms(),
        "oldest_waiting": pool.oldest_waiting_age_ms(),
        "monitored_delay": pool.monitored_delay_ms(),
        "rpc": pool.tasks_per_container(),
        "counters": {name: getattr(pool, name) for name in COUNTERS},
        "prewarmed": pool.prewarmed,
        "spawn_times_ms": list(pool.spawn_times_ms),
        "retired_task_counts": list(pool.retired_task_counts),
        "node_containers": node.container_count,
        "sampled": pool.sample_containers(),
    }


def pool_series(registry, lazy):
    return {
        (name, labels): metric.value
        for name, labels, metric in registry.collect()
        if name.startswith("pool_") and (lazy or name not in LAZY_SERIES)
    }


@pytest.mark.parametrize(
    "scheduling", [SchedulingPolicy.LSF, SchedulingPolicy.FIFO])
def test_one_script_same_readings_and_series(scheduling):
    sim, vec = SimDriver(scheduling), VectorDriver(scheduling)
    steps = 0
    for sim_label, vec_label in zip(script(sim), script(vec)):
        assert sim_label == vec_label
        assert readings(sim.pool) == readings(vec.pool), sim_label
        # The vector engine's free-slot tally never drifts from what it
        # stands for.
        assert [c.free for c in vec.pool.containers] == [
            c.batch - len(c.lq) - (c.cur_r >= 0)
            for c in vec.pool.containers], sim_label
        assert_free_tally(sim.pool.containers, sim_label)
        finished = sim_label == "finished"
        assert (pool_series(sim.registry, lazy=finished)
                == pool_series(vec.registry, lazy=finished)), sim_label
        steps += 1
    assert steps == 16
    # The script really went through what it names.
    final = readings(sim.pool)
    assert final["counters"]["failed_spawns"] == 2
    assert final["counters"]["total_spawns"] == 3
    assert final["counters"]["tasks_completed"] == BURST + 1
    assert final["retired_task_counts"] == [3, 3, 0, 3]
    assert len(pool_series(sim.registry, lazy=True)) == 10


@pytest.mark.parametrize(
    "scheduling", [SchedulingPolicy.LSF, SchedulingPolicy.FIFO])
def test_free_tally_holds_through_faults(scheduling):
    sim = SimDriver(scheduling)
    seen = []
    for label in itertools.chain(script(sim), fault_coda(sim)):
        seen.extend(c for c in sim.pool.containers if c not in seen)
        # Dead containers included: a crash or a node kill resets the
        # tally of the container it empties.
        assert_free_tally(seen, label)
    assert sim.pool.container_crashes == 1


#: The members ``VectorPool`` defines for itself, each with the reason.
#: Everything else in SURFACE is one function shared with FunctionPool.
VECTOR_OVERRIDES = {
    "now": "the engine's flat clock, not a Simulator",
    "queue_length": "the queue is a heap/deque of (job, stage) index pairs",
    "live_containers": "container state is a plain int, not ContainerState",
    "n_containers": "a tally the hot loop keeps, instead of a scan",
    "free_slots": "sum of the containers' free-slot tallies",
    "pending_capacity": "inlined scan over flat records",
    "recent_arrival_rate_rps": "head-pointer window: deques cost "
                               "sim-vector-wiki 11 % jobs_per_s (DESIGN 13)",
    "recent_queue_delay_ms": "head-pointer window, as above",
    "oldest_waiting_age_ms": "head-pointer window over record indices",
    "dispatch": "the engine's inlined greedy dispatch over flat records",
    "tasks_enqueued": "hot-loop int, published to the series at finish()",
    "tasks_completed": "hot-loop int, published to the series at finish()",
    "_draw_cold_start_ms": "one z-buffer serves cold-start and exec draws",
}


def test_one_definition_per_surface_member():
    assert len(VECTOR_OVERRIDES) <= 13 and set(VECTOR_OVERRIDES) <= set(SURFACE)
    for name in SURFACE:
        # The live pool never re-declares a surface member.
        assert inspect.getattr_static(WorkerPool, name) is inspect.getattr_static(FunctionPool, name)
        if name in VECTOR_OVERRIDES:
            assert name in vars(VectorPool), name
        else:
            assert name not in vars(VectorPool), f"unlisted override: {name}"
            assert inspect.getattr_static(VectorPool, name) is inspect.getattr_static(FunctionPool, name)
            assert name in vars(PoolSurface), name


def test_surface_covers_the_thirty_members_vectorpool_used_to_redeclare():
    redeclared = {
        "task_retries", "container_crashes", "task_timeouts",
        "tasks_dead_lettered", "function", "n_containers",
        "capacity_requests", "queue_length", "live_containers", "free_slots",
        "pending_capacity", "total_spawns", "failed_spawns", "tasks_shed",
        "tasks_enqueued", "tasks_completed", "recent_arrival_rate_rps",
        "recent_queue_delay_ms", "oldest_waiting_age_ms",
        "monitored_delay_ms", "tasks_per_container", "dispatch", "spawn",
        "scale_up_to", "prewarm", "record_shed", "reap_idle",
        "reclaim_one_idle", "_retire", "_compact",
    }
    assert len(redeclared) == 30 and redeclared <= set(SURFACE)
    assert len(redeclared & set(VECTOR_OVERRIDES)) <= 12
