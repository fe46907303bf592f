"""Tests for the live serving runtime (``repro.serve``).

Fast by construction: every scenario runs under a heavily compressed
clock (time_scale ≤ 0.01, i.e. one model second ≤ 10 wall ms), so the
whole file exercises real asyncio concurrency in well under a minute.
"""

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

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
    ScaledClock,
    ServeOptions,
    ServingRuntime,
    TraceReplayer,
    WorkerPool,
    serve_trace,
)
from repro.traces import poisson_trace
from repro.traces.loader import load_arrivals_csv, load_trace, save_trace
from repro.workloads import get_microservice, get_mix

FAST = 0.002  # one model second in 2 wall ms


# ---------------------------------------------------------------------------
# helpers


def _worker_pool(clock, executor, batch_size=2, n_nodes=4, on_finished=None):
    return WorkerPool(
        clock=clock,
        executor=executor,
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
    metrics = MetricsCollector(EnergyMeter(model=NodePowerModel()))
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

    def test_start_is_idempotent(self):
        async def scenario():
            clock = ScaledClock(0.001)
            clock.start()
            await asyncio.sleep(0.01)
            before = clock.now
            clock.start()  # must NOT re-anchor t=0
            assert clock.now >= before
        asyncio.run(scenario())

    def test_scaling_of_wall_time(self):
        async def scenario():
            # 10x compression: 100 model ms pass in ~10 wall ms.
            clock = ScaledClock(0.1)
            clock.start()
            await clock.sleep_ms(100.0)
            assert clock.now >= 100.0
            assert clock.now < 2_000.0  # ...but nowhere near real time
        asyncio.run(scenario())

    def test_to_wall_s(self):
        clock = ScaledClock(0.05)
        assert clock.to_wall_s(1000.0) == pytest.approx(0.05)

    def test_sleep_until_is_absolute(self):
        async def scenario():
            clock = ScaledClock(0.001)
            clock.start()
            await clock.sleep_until_ms(50.0)
            now = clock.now
            assert now >= 50.0
            # Sleeping until a past deadline returns immediately.
            await clock.sleep_until_ms(10.0)
            assert clock.now == pytest.approx(now, abs=50.0)
        asyncio.run(scenario())

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            ScaledClock(0.0)


# ---------------------------------------------------------------------------
# worker pool


class TestWorkerPool:
    def test_prewarm_is_immediately_ready(self):
        async def scenario():
            clock = ScaledClock(FAST)
            with ThreadPoolExecutor(max_workers=2) as executor:
                pool = _worker_pool(clock, executor)
                clock.start()
                assert pool.prewarm(2) == 2
                await asyncio.sleep(0.02)  # let runners pass cold start
                assert pool.n_containers == 2
                assert all(s.is_ready for s in pool.containers)
                assert pool.free_slots == 4  # 2 workers x batch 2
                await pool.shutdown()
        asyncio.run(scenario())

    def test_spawn_pays_cold_start(self):
        async def scenario():
            clock = ScaledClock(FAST)
            with ThreadPoolExecutor(max_workers=2) as executor:
                pool = _worker_pool(clock, executor)
                clock.start()
                assert pool.spawn(1) == 1
                (slot,) = pool.containers
                assert not slot.is_ready  # still SPAWNING
                assert slot.ready_at_ms > clock.now
                await clock.sleep_ms(slot.cold_start_ms + 50.0)
                assert slot.is_ready
                await pool.shutdown()
        asyncio.run(scenario())

    def test_executes_task_and_reports_completion(self):
        from repro.workflow.job import Job, Task
        from repro.workloads import get_application

        done = []

        async def scenario():
            clock = ScaledClock(FAST)
            with ThreadPoolExecutor(max_workers=2) as executor:
                pool = _worker_pool(clock, executor, on_finished=done.append)
                clock.start()
                pool.prewarm(1)
                await asyncio.sleep(0.02)
                job = Job(app=get_application("ipa"), arrival_ms=clock.now)
                task = Task(job=job, stage_index=0, enqueue_ms=clock.now)
                pool.enqueue(task)
                for _ in range(200):
                    if done:
                        break
                    await asyncio.sleep(0.01)
                assert done == [task]
                assert task.record.start_ms >= 0
                assert task.record.end_ms >= task.record.start_ms
                assert task.record.exec_ms > 0
                assert pool.tasks_completed == 1
                assert pool.containers[0].tasks_executed == 1
                await pool.shutdown()
        asyncio.run(scenario())

    def test_terminate_refuses_busy_worker(self):
        from repro.workflow.job import Job, Task
        from repro.workloads import get_application

        async def scenario():
            clock = ScaledClock(1.0)  # real time: task won't finish fast
            with ThreadPoolExecutor(max_workers=2) as executor:
                pool = _worker_pool(clock, executor)
                clock.start()
                pool.prewarm(1)
                await asyncio.sleep(0.02)
                job = Job(app=get_application("ipa"), arrival_ms=clock.now)
                pool.enqueue(Task(job=job, stage_index=0, enqueue_ms=clock.now))
                await asyncio.sleep(0.01)  # runner picks it up
                with pytest.raises(RuntimeError):
                    pool.containers[0].terminate()
                await pool.shutdown()  # force-stop mid-task is allowed
        asyncio.run(scenario())

    def test_shutdown_cancels_pending_timers(self):
        from repro.cluster.container import ContainerState
        from repro.workflow.job import Job, Task
        from repro.workloads import get_application

        done = []

        async def scenario():
            clock = ScaledClock(1.0)  # real time: nothing finishes by itself
            with ThreadPoolExecutor(max_workers=2) as executor:
                pool = _worker_pool(clock, executor, on_finished=done.append)
                clock.start()
                pool.prewarm(2)
                await asyncio.sleep(0.02)
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
                await asyncio.sleep(0.3)
                assert [s.state for s in slots] == states
                assert done == [] and pool.tasks_completed == 0
                await pool.shutdown()  # idempotent
        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# gateway


class TestGateway:
    def test_admits_and_completes_jobs(self):
        async def scenario():
            clock = ScaledClock(FAST)
            mix = get_mix("heavy")
            with ThreadPoolExecutor(max_workers=4) as executor:
                pools = {}
                gw_holder = {}

                def finished(task):
                    gw_holder["gw"].on_task_finished(task)

                for name in mix.function_names():
                    pools[name] = WorkerPool(
                        clock=clock,
                        executor=executor,
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
                await asyncio.sleep(0.02)
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
        asyncio.run(scenario())

    def test_backpressure_sheds_beyond_max_pending(self):
        async def scenario():
            clock = ScaledClock(FAST)
            mix = get_mix("light")
            with ThreadPoolExecutor(max_workers=2) as executor:
                # No workers ever: admitted jobs never complete, so
                # in_flight only grows and the bound must kick in.
                pools = {
                    name: WorkerPool(
                        clock=clock,
                        executor=executor,
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
        asyncio.run(scenario())

    def test_zero_max_pending_disables_shedding(self):
        async def scenario():
            clock = ScaledClock(FAST)
            mix = get_mix("light")
            pools = {}
            gateway = _gateway(clock, pools, mix, max_pending=0)
            clock.start()
            # 50 admissions, no capacity at all — nothing is shed.
            # (No pools exist; stop before the ingress hop fires.)
            for _ in range(50):
                assert gateway.admit() is not None
            assert gateway.shed == 0
        asyncio.run(scenario())

    def test_negative_max_pending_rejected(self):
        async def scenario():
            clock = ScaledClock(FAST)
            with pytest.raises(ValueError):
                _gateway(clock, {}, get_mix("light"), max_pending=-1)
        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# replayer determinism (CSV / NPZ round-trip)


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
        # simulator consumes in _on_arrival — sequences must be identical.
        trace = poisson_trace(25.0, 15.0, seed=9)
        mix = get_mix("heavy")
        planned = [p.app.name for p in TraceReplayer(trace, mix, seed=9).plan()]
        rng = np.random.default_rng(9)
        expected = [
            mix.sample_application(rng).name for _ in range(trace.arrivals_ms.size)
        ]
        assert planned == expected

    def test_csv_npz_round_trip_replays_identically(self, tmp_path):
        trace = poisson_trace(40.0, 10.0, seed=11)
        mix = get_mix("light")

        # NPZ round-trip via save_trace/load_trace.
        npz_path = tmp_path / "trace.npz"
        save_trace(trace, npz_path)
        npz_trace = load_trace(npz_path)

        # CSV round-trip: one timestamp per line.
        csv_path = tmp_path / "trace.csv"
        csv_path.write_text(
            "arrival_ms\n"
            + "\n".join(repr(float(t)) for t in trace.arrivals_ms)
            + "\n"
        )
        csv_trace = load_arrivals_csv(csv_path)

        class NullGateway:
            def admit(self, app=None, input_scale=None):
                return None

        async def replay_once(t):
            clock = ScaledClock(0.0005)
            replayer = TraceReplayer(t, mix, seed=11)
            await replayer.replay(NullGateway(), clock)
            return replayer.replayed_ms, [p.app.name for p in replayer.plan()]

        # Two runs of the same loaded trace: identical timestamps.
        first_ts, first_apps = asyncio.run(replay_once(npz_trace))
        second_ts, second_apps = asyncio.run(replay_once(npz_trace))
        assert first_ts == second_ts
        assert first_apps == second_apps
        # And both formats reproduce the original trace's schedule.
        csv_ts, csv_apps = asyncio.run(replay_once(csv_trace))
        assert csv_ts == pytest.approx(first_ts)
        assert csv_apps == first_apps
        assert first_ts == [float(t) for t in trace.arrivals_ms]


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
            options=ServeOptions(time_scale=0.005),
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
            options=ServeOptions(time_scale=0.005),
        )
        result = runtime.run(poisson_trace(10.0, 8.0, seed=1))
        assert runtime.drain_completed
        assert runtime.shed_jobs == 0
        assert result.n_completed == result.n_jobs

    def test_replay_plan_is_built_before_the_clock_starts(self, monkeypatch):
        # The plan is a per-arrival Python loop; built after
        # ``clock.start()`` it blocked the event loop while model time
        # ran, so the first arrivals of every serve were late by it.
        import repro.serve.runtime as runtime_module
        from repro.core.policies import make_policy_config

        runtime = ServingRuntime(
            config=make_policy_config("rscale", idle_timeout_ms=60_000.0),
            mix=get_mix("light"),
            seed=1,
            options=ServeOptions(time_scale=FAST),
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

    def test_no_leaked_threads_after_run(self):
        before = threading.active_count()
        serve_trace(
            "bline",
            get_mix("light"),
            poisson_trace(10.0, 5.0, seed=2),
            seed=2,
            options=ServeOptions(time_scale=0.005),
        )
        # The executor and the event loop are torn down with the run.
        assert threading.active_count() <= before

    def test_shedding_surfaces_as_incomplete_jobs(self):
        trace = poisson_trace(50.0, 10.0, seed=6)
        runtime = ServingRuntime(
            config=__import__("repro.core.policies", fromlist=["x"])
            .make_policy_config("bline", idle_timeout_ms=60_000.0),
            mix=get_mix("heavy"),
            seed=6,
            options=ServeOptions(time_scale=0.005, max_pending=3),
            drain_ms=30_000.0,
        )
        result = runtime.run(trace)
        assert runtime.shed_jobs > 0
        assert result.n_jobs == trace.arrivals_ms.size
        # Shed jobs never complete: they count against the SLO rate.
        assert result.n_incomplete >= runtime.shed_jobs
        assert result.slo_violation_rate > 0
