"""The request lifecycle core under both of its clocks.

One scripted sequence is fed through ``RequestLifecycle`` twice — wired
exactly as ``ServerlessSystem._build`` wires it (virtual clock, memory
journal, the sharded sim's durability sink) and behind a live
``Gateway`` (asyncio timers on virtual time, file journal).  The two
planes must write the same journal and settle the collector the same
way: the structural replacement for "kept in sync by hand".
"""

import asyncio

import numpy as np

from repro.cluster.energy import EnergyMeter, NodePowerModel
from repro.core.policies import make_policy_config
from repro.metrics.collector import MetricsCollector
from repro.prediction.windowed import WindowedMaxSampler
from repro.runtime.system import ClusterSpec, ServerlessSystem
from repro.serve.clock import ScaledClock
from repro.serve.gateway import Gateway
from repro.serve.journal import (
    EV_ADMIT,
    EV_HOP,
    MemoryJournal,
    RequestJournal,
    journal_record,
)
from repro.serve.recovery import JournaledJob, build_recovery_plan
from repro.sim.engine import Simulator
from repro.workloads import get_mix

MIX = get_mix("medium")
APP = MIX.applications[0]          # ipa: ASR -> NLP -> QA, SLO 1000 ms
SLO = {app.name: app.slo_ms for app in MIX.applications}


class ScriptPool:
    """Holds what it is given; the test plays the worker."""

    def __init__(self):
        self.tasks = []
        self.free_slots = 1
        self.sheds = 0

    def enqueue(self, task):
        self.tasks.append(task)

    def monitored_delay_ms(self):
        return 0.0

    def record_shed(self):
        self.sheds += 1


class _Plane:
    """What the script needs from a plane; subclasses supply the clock,
    the journal and what a crash + recovery epoch looks like."""

    def __init__(self):
        self.pools = {name: ScriptPool() for name in MIX.function_names()}

    def finish(self, stage_index, epoch=None):
        """Complete the one task waiting at *stage_index* of APP."""
        (task,) = self.pools[APP.stage_names[stage_index]].tasks
        self.pools[APP.stage_names[stage_index]].tasks.clear()
        (epoch or self.core).on_task_finished(task)
        return task

    def recover(self):
        plan = build_recovery_plan(self.records(), self.now, SLO.get)
        for entry in plan.requeue:
            self.requeue(entry)
        for entry in plan.expired:
            self.expire(entry)

    def outcome(self):
        m = self.metrics
        return {
            "created": m.jobs_created,
            "completed": m.registry.value("jobs_completed_total"),
            "failed": [j.failure_reason for j in m.failed_jobs],
            "stage_sheds": {n: self.pools[n].sheds for n in APP.stage_names},
            "stale": m.registry.value("gateway_stale_signals_total"),
            "shed": m.registry.value("gateway_shed_total"),
            "unknown_app": m.registry.value("recovery_unknown_app_total"),
        }


class SimPlane(_Plane):
    """The core as ``ServerlessSystem._build`` wires it."""

    def __init__(self, tmp_path):
        super().__init__()
        self.sim = Simulator()
        self.system = ServerlessSystem(
            config=make_policy_config("rscale"), mix=MIX,
            cluster_spec=ClusterSpec(n_nodes=2), shed_expired=True)
        self.system._build(self.sim)
        self.system.pools.clear()          # same dict the core reads
        self.system.pools.update(self.pools)
        self.core = self.system.lifecycle
        self.core.journal = MemoryJournal()   # as the fault plane does
        self.metrics = self.system.metrics

    @property
    def now(self):
        return self.sim.now

    def admit(self):
        return self.core.admit(APP)

    async def advance(self, ms):
        self.sim.run(until=self.sim.now + ms)

    def crash(self):
        self.core.crash()
        return self.core

    def recover(self):
        self.core.dead = False             # ``recover_shard``
        super().recover()

    def requeue(self, entry):
        return self.core.requeue_recovered(entry)

    def expire(self, entry):
        return self.core.expire_recovered(entry)

    def records(self):
        return self.core.journal.records


class LivePlane(_Plane):
    """The core behind a ``Gateway``: asyncio timers, file WAL."""

    def __init__(self, tmp_path):
        super().__init__()
        self.clock = ScaledClock()
        self.metrics = MetricsCollector(EnergyMeter(model=NodePowerModel()))
        self.journal = RequestJournal(tmp_path / "journal.jsonl")
        self.gateway = self._epoch()

    def _epoch(self):
        return Gateway(
            clock=self.clock, pools=self.pools, mix=MIX,
            metrics=self.metrics, sampler=WindowedMaxSampler(),
            rng=np.random.default_rng(0), shed_expired=True,
            journal=self.journal)

    @property
    def core(self):
        return self.gateway

    @property
    def now(self):
        return self.clock.now

    def admit(self):
        return self.gateway.admit(app=APP)

    async def advance(self, ms):
        # Idempotent; the virtual loop still reads 0 at the first call.
        self.clock.start()
        await self.clock.sleep_ms(ms)

    def crash(self):
        old = self.gateway
        old.dead = True
        return old

    def recover(self):
        self.gateway = self._epoch()       # ``_recover_gateway``
        self.gateway.reset_in_flight()
        super().recover()

    def requeue(self, entry):
        return self.gateway.requeue_recovered(entry)

    def expire(self, entry):
        return self.gateway.expire_recovered(entry)

    def records(self):
        self.journal.flush()
        return RequestJournal.read_records(self.journal.path)


PLANES = (SimPlane, LivePlane)


async def _script(plane):
    """admit, hop, hop, complete; admit, stage-shed; crash, requeue,
    expire — plus one zombie completion from the dead epoch."""
    # Job A walks its whole chain.
    plane.admit()
    for stage in range(APP.n_stages):
        await plane.advance(100.0)
        plane.finish(stage)
    # Job B finishes stage 0 long past its deadline and hops into a
    # saturated stage 1: shed there.
    plane.admit()
    await plane.advance(100.0)
    await plane.advance(2000.0)
    plane.pools[APP.stage_names[1]].free_slots = 0
    plane.finish(0)
    await plane.advance(100.0)
    plane.pools[APP.stage_names[1]].free_slots = 1
    # Job D is stuck at stage 0 and will be past its SLO at recovery;
    # job C reaches stage 1 and will still be worth re-running.
    plane.admit()
    await plane.advance(900.0)
    plane.pools[APP.stage_names[0]].tasks.clear()     # D's worker is lost
    plane.admit()
    await plane.advance(100.0)
    plane.finish(0)
    await plane.advance(100.0)
    dead_epoch = plane.crash()
    await plane.advance(300.0)
    plane.recover()
    plane.finish(1, epoch=dead_epoch)                 # zombie: dropped
    for stage in (1, 2):
        await plane.advance(100.0)
        plane.finish(stage)


def _signature(records):
    index = {}
    return [
        (r["ev"], index.setdefault(r["job"], len(index)),
         r.get("stage"), r.get("reason"))
        for r in records
    ]


def test_both_planes_write_the_same_journal_and_settle_alike(tmp_path):
    signatures, outcomes = {}, {}
    for cls in PLANES:
        plane = cls(tmp_path)
        asyncio.run(_script(plane))
        signatures[cls] = _signature(plane.records())
        outcomes[cls] = plane.outcome()
    A, B, D, C = range(4)
    assert signatures[SimPlane] == [
        ("admit", A, None, None), ("hop", A, 1, None), ("hop", A, 2, None),
        ("complete", A, None, None),
        ("admit", B, None, None), ("hop", B, 1, None),
        ("shed", B, None, "shed-expired"),
        ("admit", D, None, None),
        ("admit", C, None, None), ("hop", C, 1, None),
        ("shed", D, None, "recovery-expired"),
        ("hop", C, 1, None), ("hop", C, 2, None),
        ("complete", C, None, None),
    ]
    assert signatures[LivePlane] == signatures[SimPlane]
    assert outcomes[SimPlane] == {
        "created": 4, "completed": 2,
        "failed": ["shed-expired", "recovery-expired"],
        "stage_sheds": {"ASR": 0, "NLP": 1, "QA": 0},
        "stale": 1, "shed": 0, "unknown_app": 0,
    }
    assert outcomes[LivePlane] == outcomes[SimPlane]


def test_recovery_clamps_a_foreign_stage_and_counts_an_unknown_app(tmp_path):
    """The WAL is a file another process wrote: a hop record past the
    end of the chain resumes at the last stage (not an IndexError inside
    a timer callback), and an app the mix does not know is counted."""

    async def scenario(plane):
        beyond = JournaledJob(job_id=9_000_001, app=APP.name,
                              arrival_ms=plane.now, last_stage=99)
        stranger = JournaledJob(job_id=9_000_002, app="no-such-app",
                                arrival_ms=plane.now)
        job = plane.requeue(beyond)
        assert job.job_id == 9_000_001
        assert plane.requeue(stranger) is None
        assert plane.expire(stranger) is None
        await plane.advance(100.0)
        last = APP.n_stages - 1
        assert [len(plane.pools[n].tasks)
                for n in APP.stage_names] == [0, 0, 1]
        assert plane.finish(last).stage_index == last
        assert job.completed

    for cls in PLANES:
        plane = cls(tmp_path / cls.__name__)
        asyncio.run(scenario(plane))
        outcome = plane.outcome()
        assert outcome["completed"] == 1 and outcome["unknown_app"] == 2
        if cls is LivePlane:
            assert plane.gateway.in_flight == 0
            assert plane.gateway._idle.is_set()


def test_memory_sink_and_file_wal_share_one_record_constructor(tmp_path):
    memory = MemoryJournal()
    wal = RequestJournal(tmp_path / "journal.jsonl")
    for journal in (memory, wal):
        journal.append(EV_ADMIT, 7, 12.3456, app="ipa")
        journal.append(EV_HOP, 7, 80.0, stage=1)
    wal.close()
    assert memory.records == RequestJournal.read_records(wal.path)
    assert memory.records[0] == journal_record(
        EV_ADMIT, 7, 12.3456, app="ipa")
    assert memory.records[0]["t"] == 12.346


def test_purge_queued_drops_waiting_work_and_spares_executing_slots():
    system = ServerlessSystem(
        config=make_policy_config("rscale"), mix=MIX,
        cluster_spec=ClusterSpec(n_nodes=1, cores_per_node=2.0), seed=1)
    sim = Simulator()
    system._build(sim)
    first = APP.stage_names[0]
    pool = system.pools[first]
    pool.prewarm(1)
    sim.run(until=1.0)
    for _ in range(3 * pool.batch_size):
        system.lifecycle.admit(APP)
    sim.run(until=APP.transition_overhead_ms + 1.0)
    executing = [c for c in pool.containers if c.current_task is not None]
    assert executing and pool.queue_length > 0
    purged = pool.purge_queued()
    assert purged == 3 * pool.batch_size - len(executing)
    assert pool.queue_length == 0 and not pool._waiting
    assert all(not c.local_queue for c in pool.containers)
    assert [c for c in pool.containers
            if c.current_task is not None] == executing
    assert pool.purge_queued() == 0
