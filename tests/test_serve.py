"""Tests for the live serving runtime (``repro.serve``).

Every scenario runs on virtual time (``tests/virtual_time.py``): the
loop jumps to its next timer, so a wait is one sleep to a model instant
and the whole file exercises the real asyncio runtime in about a second.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.coldstart import ColdStartModel
from repro.cluster.energy import EnergyMeter, NodePowerModel
from repro.core.scheduling import SchedulingPolicy
from repro.metrics.collector import MetricsCollector
from repro.prediction.windowed import WindowedMaxSampler
from repro.serve import (
    Gateway,
    PlannedArrival,
    ScaledClock,
    ServeOptions,
    ServingRuntime,
    TraceReplayer,
    WorkerPool,
    serve_trace,
)
from repro.traces import poisson_trace
from repro.workloads import get_microservice, get_mix
from tests.virtual_time import loop_test

# ---------------------------------------------------------------------------
# helpers


def _worker_pool(clock, lane=None, batch_size=2, n_nodes=4, on_finished=None):
    return WorkerPool(
        clock=clock,
        lane=lane,
        service=get_microservice("ASR"),
        cluster=Cluster(n_nodes=n_nodes),
        batch_size=batch_size,
        stage_slack_ms=300.0,
        stage_response_ms=350.0,
        scheduling=SchedulingPolicy.LSF,
        cold_start=ColdStartModel(jitter_sigma=0.0),
        rng=np.random.default_rng(0),
        on_task_finished=on_finished or (lambda t: None),
    )


def _gateway(clock, pools, mix, max_pending=0):
    metrics = MetricsCollector(
        EnergyMeter(model=NodePowerModel()), keep_completed=True)
    return Gateway(
        clock=clock,
        pools=pools,
        mix=mix,
        metrics=metrics,
        sampler=WindowedMaxSampler(),
        rng=np.random.default_rng(0),
        max_pending=max_pending,
    )


# ---------------------------------------------------------------------------
# clock


class TestScaledClock:
    def test_not_started_reads_zero(self):
        clock = ScaledClock(1.0)
        assert clock.now == 0.0
        assert not clock.started

    @loop_test
    async def test_start_is_idempotent(self):
        clock = ScaledClock(0.001)
        clock.start()
        await clock.sleep_ms(10_000.0)
        clock.start()  # must NOT re-anchor t=0
        assert clock.now == pytest.approx(10_000.0)

    @loop_test
    async def test_scaling_of_wall_time(self):
        # 10x compression: 100 model ms pass in 10 loop ms.
        loop = asyncio.get_running_loop()
        clock = ScaledClock(0.1)
        clock.start()
        start = loop.time()
        await clock.sleep_ms(100.0)
        assert clock.now == pytest.approx(100.0)
        assert loop.time() - start == pytest.approx(0.01)

    def test_to_wall_s(self):
        clock = ScaledClock(0.05)
        assert clock.to_wall_s(1000.0) == pytest.approx(0.05)

    @loop_test
    async def test_sleep_until_is_absolute(self):
        clock = ScaledClock(0.001)
        clock.start()
        await clock.sleep_until_ms(50.0)
        now = clock.now
        assert now == pytest.approx(50.0)
        # Sleeping until a past deadline returns immediately.
        await clock.sleep_until_ms(10.0)
        assert clock.now == now

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            ScaledClock(0.0)


# ---------------------------------------------------------------------------
# worker pool


class TestWorkerPool:
    @loop_test
    async def test_prewarm_is_immediately_ready(self):
        clock = ScaledClock()
        pool = _worker_pool(clock)
        clock.start()
        assert pool.prewarm(2) == 2
        await clock.sleep_ms(1.0)  # the zero cold start's timer
        assert pool.n_containers == 2
        assert all(s.is_ready for s in pool.containers)
        assert pool.free_slots == 4  # 2 workers x batch 2
        await pool.shutdown()

    @loop_test
    async def test_spawn_pays_cold_start(self):
        clock = ScaledClock()
        pool = _worker_pool(clock)
        clock.start()
        assert pool.spawn(1) == 1
        (slot,) = pool.containers
        assert not slot.is_ready  # still SPAWNING
        assert slot.ready_at_ms > clock.now
        await clock.sleep_until_ms(slot.ready_at_ms - 1.0)
        assert not slot.is_ready
        await clock.sleep_until_ms(slot.ready_at_ms + 1.0)
        assert slot.is_ready
        await pool.shutdown()

    @loop_test
    async def test_executes_task_and_reports_completion(self):
        from repro.workflow.job import Job, Task
        from repro.workloads import get_application

        done = []
        clock = ScaledClock()
        pool = _worker_pool(clock, on_finished=done.append)
        clock.start()
        pool.prewarm(1)
        await clock.sleep_ms(1.0)
        job = Job(app=get_application("ipa"), arrival_ms=clock.now)
        task = Task(job=job, stage_index=0, enqueue_ms=clock.now)
        pool.enqueue(task)
        await clock.sleep_ms(10_000.0)
        assert done == [task]
        assert task.record.start_ms >= 0
        assert task.record.end_ms >= task.record.start_ms
        assert task.record.exec_ms > 0
        assert pool.tasks_completed == 1
        assert pool.containers[0].tasks_executed == 1
        await pool.shutdown()

    @loop_test
    async def test_handlerless_work_is_a_timer_not_a_thread(self):
        # Without a work function a task's work is only its span: a loop
        # timer ends it, and nothing is handed to the lane.
        from repro.workflow.job import Job, Task
        from repro.workloads import get_application

        class RefusingLane:
            def submit(self, slot, task, wall_s):
                raise AssertionError("handler-less work reached a thread")

        done = []
        clock = ScaledClock()
        pool = _worker_pool(clock, RefusingLane(),
                            on_finished=done.append)
        clock.start()
        pool.prewarm(1)
        await clock.sleep_ms(1.0)
        job = Job(app=get_application("ipa"), arrival_ms=clock.now)
        task = Task(job=job, stage_index=0, enqueue_ms=clock.now)
        pool.enqueue(task)
        await clock.sleep_ms(10_000.0)
        assert done == [task]
        # The timer spans exactly the execution, up to the clock's
        # model ms -> loop seconds -> model ms round trip.
        assert task.record.end_ms - task.record.start_ms \
            == pytest.approx(task.record.exec_ms, rel=0, abs=1e-6)
        assert pool.containers[0].crashes == 0
        await pool.shutdown()

    @loop_test
    async def test_terminate_refuses_busy_worker(self):
        from repro.workflow.job import Job, Task
        from repro.workloads import get_application

        clock = ScaledClock()
        pool = _worker_pool(clock)
        clock.start()
        pool.prewarm(1)
        await clock.sleep_ms(1.0)
        job = Job(app=get_application("ipa"), arrival_ms=clock.now)
        pool.enqueue(Task(job=job, stage_index=0, enqueue_ms=clock.now))
        assert pool.containers[0].current_task is not None
        with pytest.raises(RuntimeError):
            pool.containers[0].terminate()
        await pool.shutdown()  # force-stop mid-task is allowed

    @loop_test
    async def test_shutdown_cancels_pending_timers(self):
        from repro.cluster.container import ContainerState
        from repro.workflow.job import Job, Task
        from repro.workloads import get_application

        done = []
        clock = ScaledClock()
        pool = _worker_pool(clock, on_finished=done.append)
        clock.start()
        pool.prewarm(2)
        await clock.sleep_ms(1.0)
        pool.spawn(1)  # cold start pending
        job = Job(app=get_application("ipa"), arrival_ms=clock.now)
        pool.enqueue(Task(job=job, stage_index=0, enqueue_ms=clock.now))
        slots = list(pool.containers)
        assert sum(s.current_task is not None for s in slots) == 1
        await pool.shutdown()
        # Every pending timer (cold start, execution timeout) is
        # cancelled, and nothing mutates a slot afterwards: the
        # cold slot never readies, the late completion is dropped.
        assert all(s._timer.cancelled() for s in slots)
        states = [s.state for s in slots]
        assert set(states) == {ContainerState.TERMINATED}
        await clock.sleep_ms(60_000.0)
        assert [s.state for s in slots] == states
        assert done == [] and pool.tasks_completed == 0
        await pool.shutdown()  # idempotent


# ---------------------------------------------------------------------------
# gateway


class TestGateway:
    @loop_test
    async def test_admits_and_completes_jobs(self):
        clock = ScaledClock()
        mix = get_mix("heavy")
        pools = {}
        gw_holder = {}

        def finished(task):
            gw_holder["gw"].on_task_finished(task)

        for name in mix.function_names():
            pools[name] = WorkerPool(
                clock=clock,
                lane=None,
                service=get_microservice(name),
                cluster=Cluster(n_nodes=4),
                batch_size=2,
                stage_slack_ms=300.0,
                stage_response_ms=350.0,
                scheduling=SchedulingPolicy.LSF,
                cold_start=ColdStartModel(jitter_sigma=0.0),
                rng=np.random.default_rng(1),
                on_task_finished=finished,
            )
        gateway = _gateway(clock, pools, mix)
        gw_holder["gw"] = gateway
        clock.start()
        for pool in pools.values():
            pool.prewarm(1)
        await clock.sleep_ms(1.0)
        jobs = [gateway.admit() for _ in range(5)]
        assert all(j is not None for j in jobs)
        assert gateway.in_flight == 5
        drained = await gateway.drained(timeout_ms=60_000.0)
        assert drained
        assert gateway.in_flight == 0
        assert gateway.metrics.jobs_created == 5
        assert len(gateway.metrics.completed_jobs) == 5
        for job in jobs:
            assert job.completion_ms > job.arrival_ms
        for pool in pools.values():
            await pool.shutdown()

    @loop_test
    async def test_backpressure_sheds_beyond_max_pending(self):
        clock = ScaledClock()
        mix = get_mix("light")
        # No workers ever: admitted jobs never complete, so
        # in_flight only grows and the bound must kick in.
        pools = {
            name: WorkerPool(
                clock=clock,
                lane=None,
                service=get_microservice(name),
                cluster=Cluster(n_nodes=2),
                batch_size=1,
                stage_slack_ms=300.0,
                stage_response_ms=350.0,
                scheduling=SchedulingPolicy.LSF,
                cold_start=ColdStartModel(jitter_sigma=0.0),
                rng=np.random.default_rng(2),
                on_task_finished=lambda t: None,
            )
            for name in mix.function_names()
        }
        gateway = _gateway(clock, pools, mix, max_pending=2)
        clock.start()
        results = [gateway.admit() for _ in range(5)]
        admitted = [r for r in results if r is not None]
        assert len(admitted) == 2
        assert gateway.shed == 3
        # Shed arrivals still count as created jobs (they become
        # SLO violations) — load shedding must not launder metrics.
        assert gateway.metrics.jobs_created == 5
        drained = await gateway.drained(timeout_ms=10.0)
        assert not drained  # nothing processes: drain times out
        for pool in pools.values():
            await pool.shutdown()

    @loop_test
    async def test_zero_max_pending_disables_shedding(self):
        clock = ScaledClock()
        mix = get_mix("light")
        pools = {}
        gateway = _gateway(clock, pools, mix, max_pending=0)
        clock.start()
        # 50 admissions, no capacity at all — nothing is shed.
        # (No pools exist; stop before the ingress hop fires.)
        for _ in range(50):
            assert gateway.admit() is not None
        assert gateway.shed == 0

    @loop_test
    async def test_negative_max_pending_rejected(self):
        clock = ScaledClock()
        with pytest.raises(ValueError):
            _gateway(clock, {}, get_mix("light"), max_pending=-1)


# ---------------------------------------------------------------------------
# replayer determinism


class TestReplayerDeterminism:
    def test_plan_is_deterministic(self):
        trace = poisson_trace(30.0, 20.0, seed=3)
        mix = get_mix("medium")
        a = TraceReplayer(trace, mix, seed=3)
        b = TraceReplayer(trace, mix, seed=3)
        assert len(a) == len(b) == trace.arrivals_ms.size
        assert [p.time_ms for p in a.plan()] == [p.time_ms for p in b.plan()]
        assert [p.app.name for p in a.plan()] == [p.app.name for p in b.plan()]

    def test_seed_changes_app_sequence(self):
        trace = poisson_trace(30.0, 20.0, seed=3)
        mix = get_mix("medium")
        a = TraceReplayer(trace, mix, seed=3)
        b = TraceReplayer(trace, mix, seed=4)
        assert [p.app.name for p in a.plan()] != [p.app.name for p in b.plan()]

    def test_matches_simulator_app_stream(self):
        # The replayer's eager plan draws from the same seeded stream the
        # simulator consumes in _draw_app: its one draw for the whole
        # trace is the plan one scalar draw per arrival builds.
        trace = poisson_trace(200.0, 30.0, seed=9)
        mix = get_mix("heavy")
        rng = np.random.default_rng(9)
        expected = tuple(
            PlannedArrival(time_ms=float(t), app=mix.sample_application(rng))
            for t in trace.arrivals_ms)
        assert len(expected) > 5000
        assert TraceReplayer(trace, mix, seed=9).plan() == expected


# ---------------------------------------------------------------------------
# end to end


class TestEndToEnd:
    def test_serve_trace_completes_and_drains(self):
        trace = poisson_trace(15.0, 10.0, seed=5)
        result = serve_trace(
            "rscale",
            get_mix("light"),
            trace,
            seed=5,
            options=ServeOptions(),
            idle_timeout_ms=60_000.0,
        )
        assert result.n_jobs == trace.arrivals_ms.size
        assert result.n_completed == result.n_jobs
        assert result.n_incomplete == 0
        assert result.latencies_ms.size == result.n_jobs
        assert (result.latencies_ms > 0).all()
        assert result.policy == "rscale"
        assert result.trace == trace.name

    def test_runtime_exposes_drain_and_shed(self):
        from repro.core.policies import make_policy_config

        runtime = ServingRuntime(
            config=make_policy_config("rscale", idle_timeout_ms=60_000.0),
            mix=get_mix("light"),
            seed=1,
            options=ServeOptions(),
        )
        result = runtime.run(poisson_trace(10.0, 8.0, seed=1))
        assert runtime.drain_completed
        assert runtime.shed_jobs == 0
        assert result.n_completed == result.n_jobs

    def test_replay_plan_is_built_before_the_clock_starts(
        self, monkeypatch, inline_lane
    ):
        # The plan costs Python per arrival; built after
        # ``clock.start()`` it blocked the event loop while model time
        # ran, so the first arrivals of every serve were late by it.
        import repro.serve.runtime as runtime_module
        from repro.core.policies import make_policy_config

        runtime = ServingRuntime(
            config=make_policy_config("rscale", idle_timeout_ms=60_000.0),
            mix=get_mix("light"),
            seed=1,
            work=lambda task, wall_s: None,
        )
        clock_started = []

        class RecordingReplayer(TraceReplayer):
            def __init__(self, *args, **kwargs):
                clock_started.append(runtime.clock.started)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(runtime_module, "TraceReplayer", RecordingReplayer)
        trace = poisson_trace(10.0, 1.0, seed=1)
        result = runtime.run(trace)
        assert clock_started == [False]
        assert result.n_completed == result.n_jobs == len(trace)

    def test_prewarm_and_opening_checkpoint_precede_the_clock(
        self, monkeypatch, tmp_path, inline_lane
    ):
        # Both are setup, not serving: run after ``clock.start()`` they
        # made every serve's first arrivals late by their length (the
        # checkpoint is an fsync).
        import repro.serve.runtime as runtime_module
        from repro.core.policies import make_policy_config
        from repro.serve.checkpoint import CheckpointManager

        runtime = ServingRuntime(
            config=make_policy_config("rscale", idle_timeout_ms=60_000.0),
            mix=get_mix("light"),
            seed=1,
            options=ServeOptions(journal_dir=str(tmp_path)),
            work=lambda task, wall_s: None,
        )
        started = []
        prewarm = runtime_module.prewarm_opening_capacity
        maybe = CheckpointManager.maybe

        def recording_prewarm(*args):
            started.append(("prewarm", runtime.clock.started))
            return prewarm(*args)

        def recording_maybe(manager, *args):
            if not started or started[-1][0] != "checkpoint":
                started.append(("checkpoint", runtime.clock.started))
            return maybe(manager, *args)

        monkeypatch.setattr(
            runtime_module, "prewarm_opening_capacity", recording_prewarm)
        monkeypatch.setattr(CheckpointManager, "maybe", recording_maybe)
        trace = poisson_trace(10.0, 1.0, seed=1)
        result = runtime.run(trace)
        assert started[:2] == [("prewarm", False), ("checkpoint", False)]
        assert result.n_completed == result.n_jobs == len(trace)

    def test_a_late_replay_yields_between_arrivals(self):
        # A replay behind its plan must still let the loop run between
        # admissions; otherwise it admits the rest of the trace in one
        # step while no completion, tick or fault gets a turn.
        trace = poisson_trace(50.0, 2.0, seed=4)
        replayer = TraceReplayer(trace, get_mix("light"), seed=4)
        turns = []

        class CountingGateway:
            def admit(self, app):
                turns.append(ticks)

        async def ticker():
            nonlocal ticks
            while True:
                ticks += 1
                await asyncio.sleep(0)

        class LateClock(ScaledClock):
            # Reads past the whole plan: every arrival is late.
            @property
            def now(self):
                return 10_000.0 + super().now

        async def scenario():
            clock = LateClock()
            task = asyncio.get_running_loop().create_task(ticker())
            await asyncio.sleep(0)
            offered = await replayer.replay(CountingGateway(), clock)
            task.cancel()
            return offered

        ticks = 0
        assert asyncio.run(scenario()) == len(trace)
        assert len(turns) == len(trace)
        assert all(b > a for a, b in zip(turns, turns[1:]))

    def test_no_leaked_threads_after_run(self):
        before = threading.active_count()
        serve_trace(
            "bline",
            get_mix("light"),
            poisson_trace(10.0, 5.0, seed=2),
            seed=2,
            options=ServeOptions(),
        )
        # The work lane and the event loop are torn down with the run.
        assert threading.active_count() <= before

    def test_shedding_surfaces_as_incomplete_jobs(self):
        trace = poisson_trace(50.0, 10.0, seed=6)
        runtime = ServingRuntime(
            config=__import__("repro.core.policies", fromlist=["x"])
            .make_policy_config("bline", idle_timeout_ms=60_000.0),
            mix=get_mix("heavy"),
            seed=6,
            options=ServeOptions(max_pending=3),
            drain_ms=30_000.0,
        )
        result = runtime.run(trace)
        assert runtime.shed_jobs > 0
        assert result.n_jobs == trace.arrivals_ms.size
        # Shed jobs never complete: they count against the SLO rate.
        assert result.n_incomplete >= runtime.shed_jobs
        assert result.slo_violation_rate > 0
