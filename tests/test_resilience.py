"""Resilience layer: supervised workers, retries, chaos, shedding.

Covers the failure paths of the live serving runtime: crashing and
hanging work functions, retry/backoff/dead-letter semantics, the
control loop's fault containment, the gateway's double-completion
guard, deadline-aware shedding, and the unified chaos injection
(crash probability, registry brownout, worker-group kill) shared with
the simulator's fault models.
"""

import asyncio
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.coldstart import ColdStartModel
from repro.cluster.container import ContainerState
from repro.cluster.energy import EnergyMeter, NodePowerModel
from repro.cluster.faults import ContainerFaultModel, FaultTimeline, fail_node
from repro.core.policies import make_policy_config
from repro.core.scheduling import SchedulingPolicy
from repro.metrics.collector import MetricsCollector
from repro.prediction.windowed import WindowedMaxSampler
from repro.serve import (
    Gateway,
    RetryManager,
    RetryPolicy,
    ScaledClock,
    ServeOptions,
    ServingRuntime,
    WorkerPool,
    serve_trace,
)
from repro.serve.control import ControlLoop
from repro.traces import poisson_trace
from repro.workflow.job import Job, Task
from repro.workloads import get_application, get_microservice, get_mix

FAST = 0.002  # one model second in 2 wall ms


# ---------------------------------------------------------------------------
# helpers


def _worker_pool(clock, executor, retry_manager=None, batch_size=2,
                 n_nodes=4, on_finished=None, **kwargs):
    return WorkerPool(
        clock=clock,
        executor=executor,
        retry_manager=retry_manager,
        service=get_microservice("ASR"),
        cluster=Cluster(n_nodes=n_nodes),
        batch_size=batch_size,
        stage_slack_ms=300.0,
        stage_response_ms=350.0,
        scheduling=SchedulingPolicy.LSF,
        cold_start=ColdStartModel(jitter_sigma=0.0),
        rng=np.random.default_rng(0),
        on_task_finished=on_finished or (lambda t: None),
        **kwargs,
    )


def _metrics():
    return MetricsCollector(EnergyMeter(model=NodePowerModel()))


def _task(clock, app_name="ipa", stage_index=0):
    job = Job(app=get_application(app_name), arrival_ms=clock.now)
    return Task(job=job, stage_index=stage_index, enqueue_ms=clock.now)


class _StubPool:
    """The slice of FunctionPool the retry manager touches."""

    def __init__(self):
        self.task_retries = 0
        self.tasks_dead_lettered = 0
        self.enqueued = []

    def forget_waiting(self, task):
        pass

    def enqueue(self, task):
        self.enqueued.append(task)


# ---------------------------------------------------------------------------
# retry policy (pure logic)


class TestRetryPolicy:
    def test_backoff_grows_exponentially_without_jitter(self):
        policy = RetryPolicy(base_backoff_ms=10.0, backoff_multiplier=3.0,
                             max_backoff_ms=1_000.0, jitter=0.0)
        rng = np.random.default_rng(0)
        assert policy.backoff_ms(1, rng) == 10.0
        assert policy.backoff_ms(2, rng) == 30.0
        assert policy.backoff_ms(3, rng) == 90.0

    def test_backoff_is_capped(self):
        policy = RetryPolicy(base_backoff_ms=100.0, backoff_multiplier=10.0,
                             max_backoff_ms=500.0, jitter=0.0)
        rng = np.random.default_rng(0)
        assert policy.backoff_ms(5, rng) == 500.0

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(base_backoff_ms=100.0, jitter=0.25,
                             backoff_multiplier=1.0)
        rng = np.random.default_rng(1)
        samples = [policy.backoff_ms(1, rng) for _ in range(200)]
        assert all(75.0 <= s <= 125.0 for s in samples)
        assert len(set(samples)) > 1  # actually jittered

    def test_attempt_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows_attempt(2)
        assert not policy.allows_attempt(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_ms=100.0, max_backoff_ms=50.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)


class TestRetryManager:
    def test_exhausted_attempts_dead_letter(self):
        clock = ScaledClock(FAST)
        pool = _StubPool()
        gave_up = []
        manager = RetryManager(
            policy=RetryPolicy(max_attempts=2, base_backoff_ms=0.0, jitter=0.0),
            clock=clock,
            rng=np.random.default_rng(0),
            on_give_up=lambda task, reason: gave_up.append(reason),
        )
        task = _task(clock)
        manager.handle_failure(pool, task, "crash")   # attempt 1 -> retry
        assert pool.enqueued == [task]
        assert pool.task_retries == 1
        manager.handle_failure(pool, task, "crash")   # attempt 2 -> DLQ
        assert pool.tasks_dead_lettered == 1
        assert len(manager.dlq) == 1
        assert gave_up == ["crash:attempts-exhausted"]
        assert manager.dlq.counts_by_reason() == {"crash:attempts-exhausted": 1}

    def test_deadline_budget_skips_hopeless_retry(self):
        # Slack is ~450 model ms for ipa at t=0; a backoff far beyond it
        # (with zero grace) means the deadline is unsalvageable.
        clock = ScaledClock(FAST)
        pool = _StubPool()
        gave_up = []
        manager = RetryManager(
            policy=RetryPolicy(max_attempts=5, base_backoff_ms=50_000.0,
                               max_backoff_ms=50_000.0, jitter=0.0,
                               deadline_grace_ms=0.0),
            clock=clock,
            rng=np.random.default_rng(0),
            on_give_up=lambda task, reason: gave_up.append(reason),
        )
        task = _task(clock)
        manager.handle_failure(pool, task, "timeout")
        assert pool.enqueued == []
        assert gave_up == ["timeout:deadline-exceeded"]
        assert len(manager.dlq) == 1

    def test_no_deadline_check_when_grace_unset(self):
        clock = ScaledClock(FAST)
        pool = _StubPool()
        manager = RetryManager(
            policy=RetryPolicy(max_attempts=5, base_backoff_ms=0.0, jitter=0.0),
            clock=clock,
            rng=np.random.default_rng(0),
            on_give_up=lambda task, reason: pytest.fail("should retry"),
        )
        task = _task(clock)
        manager.handle_failure(pool, task, "crash")
        assert pool.enqueued == [task]

    def test_requeue_resets_dispatch_record(self):
        clock = ScaledClock(FAST)
        pool = _StubPool()
        manager = RetryManager(
            policy=RetryPolicy(base_backoff_ms=0.0, jitter=0.0),
            clock=clock,
            rng=np.random.default_rng(0),
            on_give_up=lambda task, reason: None,
        )
        task = _task(clock)
        task.record.start_ms = 123.0
        task.record.cold_start_wait_ms = 7.0
        manager.handle_failure(pool, task, "crash")
        assert task.record.start_ms == -1.0
        assert task.record.cold_start_wait_ms == 0.0
        assert task.attempts == 1


# ---------------------------------------------------------------------------
# supervised workers


class TestSupervisedWorkers:
    def test_raising_work_fn_crashes_worker_and_retries(self):
        failures = []

        def boom(task, wall_s):
            raise ValueError("handler bug")

        async def scenario():
            clock = ScaledClock(FAST)
            with ThreadPoolExecutor(max_workers=2) as executor:
                pool = _worker_pool(clock, executor, work=boom)
                # No retry manager: failures fall back to a plain requeue.
                pool.retry_manager = None
                clock.start()
                pool.prewarm(1)
                await asyncio.sleep(0.02)
                task = _task(clock)
                pool.enqueue(task)
                for _ in range(200):
                    if pool.container_crashes:
                        break
                    await asyncio.sleep(0.01)
                assert pool.container_crashes >= 1
                assert pool.task_retries >= 1
                assert pool.tasks_completed == 0
                # The crashed slot is dead and compacted away.
                assert all(
                    s.state != ContainerState.CRASHED for s in pool.containers
                )
                await pool.shutdown()

        asyncio.run(scenario())
        del failures

    def test_hung_work_fn_reclaimed_by_timeout(self):
        import threading

        release = threading.Event()

        def hang(task, wall_s):
            release.wait(5.0)  # far beyond any timeout budget

        async def scenario():
            clock = ScaledClock(FAST)
            with ThreadPoolExecutor(max_workers=2) as executor:
                pool = _worker_pool(
                    clock, executor, work=hang, timeout_floor_wall_s=0.05
                )
                clock.start()
                pool.prewarm(1)
                await asyncio.sleep(0.02)
                pool.enqueue(_task(clock))
                for _ in range(400):
                    if pool.task_timeouts:
                        break
                    await asyncio.sleep(0.01)
                assert pool.task_timeouts == 1
                assert pool.container_crashes == 1
                assert pool.task_retries == 1
                await pool.shutdown()
            release.set()

        asyncio.run(scenario())

    def test_callback_error_crashes_slot_then_respawn(self):
        done = []

        def finished(task):
            if not done:
                done.append(task)
                raise RuntimeError("bug in the completion path")
            done.append(task)

        async def scenario():
            clock = ScaledClock(FAST)
            with ThreadPoolExecutor(max_workers=2) as executor:
                pool = _worker_pool(clock, executor, on_finished=finished)
                clock.start()
                pool.prewarm(1)
                await asyncio.sleep(0.02)
                (slot,) = pool.containers
                free_before = pool.cluster.nodes[slot.node.node_id].free_cpu
                first, second = _task(clock), _task(clock)
                pool.enqueue(first)
                pool.enqueue(second)  # rides the same slot's local queue
                for _ in range(400):
                    if pool.container_crashes:
                        break
                    await asyncio.sleep(0.005)
                # The exception escaped the slot's completion callback
                # after it had claimed the second task: no coroutine to
                # poll — the slot crashed itself at once, released its
                # node and handed the claimed task back for a retry.
                assert slot.state == ContainerState.CRASHED
                assert slot not in pool.containers
                assert pool.container_crashes == 1
                assert pool.registry.value(
                    "pool_slot_callback_errors_total", pool="ASR") == 1
                node = pool.cluster.nodes[slot.node.node_id]
                assert node.free_cpu >= free_before
                assert pool.task_retries == 1
                assert pool.queue_length == 1
                # The backlog justifies one replacement, which runs the
                # orphan exactly once (its first execution's completion
                # is discarded by the ownership check).
                assert pool.supervise(clock.now) == 1
                for _ in range(400):
                    if len(done) == 2:
                        break
                    await asyncio.sleep(0.005)
                await asyncio.sleep(0.05)
                assert done == [first, second]
                assert pool.tasks_completed == 2
                await pool.shutdown()

        asyncio.run(scenario())

    def test_supervise_is_idle_noop(self):
        async def scenario():
            clock = ScaledClock(FAST)
            with ThreadPoolExecutor(max_workers=2) as executor:
                pool = _worker_pool(clock, executor)
                clock.start()
                pool.prewarm(2)
                await asyncio.sleep(0.02)
                assert pool.supervise(clock.now) == 0
                assert pool.container_crashes == 0
                assert pool.n_containers == 2
                await pool.shutdown()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# node kill vs live pool (unified fault model)


class TestFailNodeLive:
    def test_killed_nodes_inflight_task_requeued_exactly_once(self):
        import threading

        release = threading.Event()

        def gated(task, wall_s):
            release.wait(5.0)  # in flight until the test lets it return

        async def scenario():
            clock = ScaledClock(FAST)
            with ThreadPoolExecutor(max_workers=2) as executor:
                pool = _worker_pool(clock, executor, n_nodes=1, work=gated)
                clock.start()
                pool.prewarm(1)
                await asyncio.sleep(0.05)
                (slot,) = pool.containers
                task = _task(clock)
                pool.enqueue(task)
                assert slot.current_task is task  # dispatched, executing
                destroyed = fail_node(slot.node, [pool], clock.now)
                assert destroyed == 1
                assert slot.state == ContainerState.TERMINATED
                # Exactly one queue entry and one counted retry — no
                # duplicates in the queue or the waiting view.
                assert pool.task_retries == 1
                assert pool.queue_length == 1
                assert sum(1 for t in pool._waiting if t is task) == 1
                assert pool.queue.pop() is task
                # The kill cancelled the execution timeout, and the
                # orphaned execution's late completion is discarded.
                assert slot._timer.cancelled()
                release.set()
                await asyncio.sleep(0.05)
                assert pool.tasks_completed == 0
                assert slot.tasks_executed == 0
                assert slot.state == ContainerState.TERMINATED
                await pool.shutdown()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# control loop containment


class _RaisingScaler:
    def __init__(self):
        self.calls = 0

    def tick(self, now_ms):
        self.calls += 1
        raise RuntimeError("scaler bug")


class TestControlLoopContainment:
    def test_raising_scaler_is_contained_and_counted(self):
        async def scenario():
            clock = ScaledClock(FAST)
            clock.start()
            scaler = _RaisingScaler()
            loop = ControlLoop(
                clock=clock,
                pools={},
                cluster=Cluster(n_nodes=1),
                metrics=_metrics(),
                config=make_policy_config("bline"),
                reactive=scaler,
            )
            loop.tick(0.0)
            loop.tick(10_000.0)
            assert scaler.calls == 2      # still invoked every tick
            assert loop.tick_errors == 2  # each failure contained
            assert loop.ticks == 2        # the loop itself never died
            # The sampler still ran despite the broken scaler.
            assert len(loop.metrics.sample_times) == 2

        asyncio.run(scenario())

    def test_raising_scaler_does_not_hang_drain(self, caplog):
        # End to end: a broken reactive scaler must not wedge the run.
        runtime = ServingRuntime(
            config=make_policy_config("rscale", idle_timeout_ms=60_000.0),
            mix=get_mix("light"),
            seed=3,
            options=ServeOptions(time_scale=0.005),
        )

        original_build = runtime._build

        def sabotaged_build(executor):
            original_build(executor)
            runtime.control.reactive = _RaisingScaler()

        runtime._build = sabotaged_build
        result = runtime.run(poisson_trace(10.0, 5.0, seed=3))
        assert runtime.drain_completed
        assert result.n_completed == result.n_jobs
        assert result.tick_errors > 0

    def test_tick_errors_flow_into_summary(self):
        runtime = ServingRuntime(
            config=make_policy_config("bline", idle_timeout_ms=60_000.0),
            mix=get_mix("light"),
            seed=4,
            options=ServeOptions(time_scale=0.005),
        )
        result = runtime.run(poisson_trace(5.0, 4.0, seed=4))
        assert result.tick_errors == 0
        assert "tick_errors" in result.summary()


class _JumpClock:
    """Manual model clock with ``ScaledClock``'s sleep contract: a
    future deadline is slept to (and yields), a past one returns at
    once without yielding."""

    def __init__(self):
        self.now = 0.0

    async def sleep_until_ms(self, model_ms):
        if model_ms > self.now:
            self.now = model_ms
            await asyncio.sleep(0)


class TestControlLoopOverrun:
    def test_slow_tick_does_not_starve_the_loop(self):
        progress = [0]

        class SlowLoop(ControlLoop):
            seen, stalled = 0, 0

            def tick(self, now_ms):
                # One tick costs one and a half intervals of model time.
                self.clock.now += 1.5 * self.config.monitor_interval_ms
                self.ticks += 1
                self.stalled = self.stalled + 1 if progress[0] == self.seen else 0
                self.seen = progress[0]
                # Starved, the test could only hang: fail it instead.
                assert self.stalled < 100, "control loop never yields"

        async def scenario():
            control = SlowLoop(
                clock=_JumpClock(),
                pools={},
                cluster=Cluster(n_nodes=1),
                metrics=_metrics(),
                config=make_policy_config("bline"),
            )
            control.start()
            for _ in range(40):  # the sibling: this coroutine
                await asyncio.sleep(0)
                progress[0] += 1
            await control.stop()  # returns (and re-raises a starved loop)
            assert control._task is None
            assert control.ticks >= 10
            # Every tick passed over one boundary, resumed at the next.
            overrun = control.registry.value("control_loop_ticks_overrun_total")
            assert control.ticks - 1 <= overrun <= control.ticks
            interval = control.config.monitor_interval_ms
            assert control.clock.now <= (2 * control.ticks + 1) * interval

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# gateway guards


class TestGatewayGuards:
    def test_double_completion_counted_not_applied(self):
        async def scenario():
            clock = ScaledClock(FAST)
            mix = get_mix("light")
            gateway = Gateway(
                clock=clock,
                pools={},
                mix=mix,
                metrics=_metrics(),
                sampler=WindowedMaxSampler(),
                rng=np.random.default_rng(0),
            )
            clock.start()
            app = mix.applications[0]
            job = gateway.admit(app=app)
            assert job is not None and gateway.in_flight == 1
            last = Task(job=job, stage_index=app.n_stages - 1,
                        enqueue_ms=clock.now)
            gateway.on_task_finished(last)
            assert gateway.in_flight == 0
            # A duplicate completion signal must not drive in_flight
            # negative or re-record the job.
            gateway.on_task_finished(last)
            assert gateway.in_flight == 0
            assert gateway.duplicate_completions == 1
            assert len(gateway.metrics.completed_jobs) == 1

        asyncio.run(scenario())

    def test_failure_after_completion_is_duplicate(self):
        async def scenario():
            clock = ScaledClock(FAST)
            mix = get_mix("light")
            gateway = Gateway(
                clock=clock, pools={}, mix=mix, metrics=_metrics(),
                sampler=WindowedMaxSampler(), rng=np.random.default_rng(0),
            )
            clock.start()
            app = mix.applications[0]
            job = gateway.admit(app=app)
            last = Task(job=job, stage_index=app.n_stages - 1,
                        enqueue_ms=clock.now)
            gateway.on_task_finished(last)
            gateway.on_task_failed(last, "crash")
            assert gateway.in_flight == 0
            assert gateway.duplicate_completions == 1
            assert gateway.dead_lettered == 0
            assert job.outcome == "completed"

        asyncio.run(scenario())

    def test_task_failure_terminates_job(self):
        async def scenario():
            clock = ScaledClock(FAST)
            mix = get_mix("light")
            metrics = _metrics()
            gateway = Gateway(
                clock=clock, pools={}, mix=mix, metrics=metrics,
                sampler=WindowedMaxSampler(), rng=np.random.default_rng(0),
            )
            clock.start()
            app = mix.applications[0]
            job = gateway.admit(app=app)
            task = Task(job=job, stage_index=0, enqueue_ms=clock.now)
            gateway.on_task_failed(task, "crash:attempts-exhausted")
            assert gateway.in_flight == 0
            assert gateway.dead_lettered == 1
            assert job.failed and job.terminal
            assert job.outcome == "failed"
            assert job.failure_reason == "crash:attempts-exhausted"
            assert metrics.failed_jobs == [job]

        asyncio.run(scenario())

    def test_deadline_shedding(self):
        class SwampedPool:
            free_slots = 0

            def monitored_delay_ms(self):
                return 1e9

        class IdlePool:
            free_slots = 0

            def monitored_delay_ms(self):
                return 0.0

        async def scenario():
            clock = ScaledClock(FAST)
            mix = get_mix("light")
            app = mix.applications[0]
            first = app.stage_names[0]
            gateway = Gateway(
                clock=clock, pools={first: SwampedPool()}, mix=mix,
                metrics=_metrics(), sampler=WindowedMaxSampler(),
                rng=np.random.default_rng(0), shed_expired=True,
            )
            clock.start()
            assert gateway.admit(app=app) is None
            assert gateway.shed == 1 and gateway.shed_deadline == 1
            # With headroom the same arrival is admitted.
            gateway.pools[first] = IdlePool()
            assert gateway.admit(app=app) is not None
            # Disabled flag: never sheds on deadline.
            gw2 = Gateway(
                clock=clock, pools={first: SwampedPool()}, mix=mix,
                metrics=_metrics(), sampler=WindowedMaxSampler(),
                rng=np.random.default_rng(0), shed_expired=False,
            )
            assert gw2.admit(app=app) is not None
            assert gw2.shed_deadline == 0

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# end to end: chaos runs drain cleanly


class TestChaosEndToEnd:
    def test_raising_work_fn_run_terminates_with_failures(self):
        def boom(task, wall_s):
            raise RuntimeError("every handler is broken")

        trace = poisson_trace(8.0, 5.0, seed=7)
        runtime = ServingRuntime(
            config=make_policy_config("rscale", idle_timeout_ms=60_000.0),
            mix=get_mix("light"),
            seed=7,
            options=ServeOptions(
                time_scale=0.005,
                retry=RetryPolicy(max_attempts=2, base_backoff_ms=10.0),
            ),
            work=boom,
        )
        result = runtime.run(trace)
        # Nothing can ever complete, yet the run drains: every admitted
        # job terminates as failed via the dead-letter queue.
        assert runtime.drain_completed
        assert runtime.gateway.in_flight == 0
        assert result.n_completed == 0
        assert result.n_failed == result.n_jobs
        assert result.dead_lettered == result.n_jobs
        assert result.task_retries > 0
        assert result.container_crashes > 0
        assert len(runtime.dead_letters) == result.n_jobs
        # Failed jobs count against the SLO rate (they are incomplete).
        assert result.slo_violation_rate == 1.0

    def test_crash_prob_run_drains_cleanly(self):
        trace = poisson_trace(15.0, 8.0, seed=8)
        runtime = ServingRuntime(
            config=make_policy_config("rscale", idle_timeout_ms=60_000.0),
            mix=get_mix("light"),
            seed=8,
            options=ServeOptions(
                time_scale=0.005,
                retry=RetryPolicy(max_attempts=5, base_backoff_ms=10.0),
            ),
            fault_model=ContainerFaultModel(crash_probability=0.2),
            drain_ms=1_200_000.0,
        )
        result = runtime.run(trace)
        assert runtime.drain_completed
        assert runtime.gateway.in_flight == 0
        # Every admitted job is in exactly one terminal state.
        assert result.n_completed + result.n_failed == result.n_jobs
        assert result.container_crashes > 0
        assert result.task_retries > 0
        # Most work survives retries at this crash rate.
        assert result.n_completed > 0

    def test_hang_prob_run_recovered_by_timeout(self):
        trace = poisson_trace(2.0, 2.0, seed=9)
        runtime = ServingRuntime(
            config=make_policy_config("rscale", idle_timeout_ms=60_000.0),
            mix=get_mix("light"),
            seed=9,
            options=ServeOptions(
                time_scale=0.005,
                retry=RetryPolicy(max_attempts=2, base_backoff_ms=10.0),
                timeout_floor_wall_s=0.05,
            ),
            fault_model=ContainerFaultModel(hang_probability=1.0),
            drain_ms=1_200_000.0,
        )
        result = runtime.run(trace)
        assert runtime.drain_completed
        assert runtime.gateway.in_flight == 0
        # Every execution hangs; the timeout reclaims each attempt and
        # the attempt budget dead-letters every job.
        assert result.task_timeouts > 0
        assert result.n_failed == result.n_jobs
        assert result.n_completed == 0

    def test_registry_brownout_inflates_and_counts(self):
        from repro.serve import ChaosInjector

        chaos = ChaosInjector(
            timeline=FaultTimeline.parse("brownout@0:5x3"))
        clock = ScaledClock(FAST)  # unstarted: now == 0, inside the window
        base = ColdStartModel(jitter_sigma=0.0)
        wrapped = chaos.wrap_cold_start(base, clock)
        rng = np.random.default_rng(0)
        degraded = wrapped.sample_ms("ASR", rng)
        assert degraded == pytest.approx(base.sample_ms("ASR", rng) * 3.0)
        assert chaos.degraded_spawns == 1

    def test_registry_brownout_counted_end_to_end(self):
        from repro.traces import step_poisson_trace

        # bline spawns on demand whenever backlog exceeds capacity, so a
        # step trace guarantees cold starts inside the brownout window.
        trace = step_poisson_trace(10.0, 8.0, seed=10)
        runtime = ServingRuntime(
            config=make_policy_config("bline", idle_timeout_ms=60_000.0),
            mix=get_mix("light"),
            seed=10,
            options=ServeOptions(time_scale=0.005),
            faults=FaultTimeline.parse("brownout@0:600x1.5"),
            drain_ms=1_200_000.0,
        )
        result = runtime.run(trace)
        assert runtime.drain_completed
        assert result.degraded_spawns > 0
        assert result.degraded_spawns == runtime.chaos.degraded_spawns

    def test_worker_group_kill_recovers(self):
        trace = poisson_trace(15.0, 10.0, seed=11)
        runtime = ServingRuntime(
            config=make_policy_config("rscale", idle_timeout_ms=60_000.0),
            mix=get_mix("light"),
            seed=11,
            options=ServeOptions(
                time_scale=0.005,
                retry=RetryPolicy(max_attempts=5, base_backoff_ms=10.0),
            ),
            faults=FaultTimeline.parse("kill-workers@4"),
            drain_ms=1_200_000.0,
        )
        result = runtime.run(trace)
        assert runtime.chaos.workers_killed >= 1
        assert runtime.chaos.nodes_failed == 1
        assert runtime.drain_completed
        assert runtime.gateway.in_flight == 0
        assert result.n_completed + result.n_failed == result.n_jobs

    def test_resilience_counters_exported(self):
        from repro.experiments.export import summary_record
        from repro.experiments.report import RESILIENCE_HEADERS, resilience_rows

        trace = poisson_trace(10.0, 5.0, seed=12)
        result = serve_trace(
            "rscale", get_mix("light"), trace, seed=12,
            options=ServeOptions(
                time_scale=0.005,
                retry=RetryPolicy(max_attempts=5, base_backoff_ms=10.0),
            ),
            fault_model=ContainerFaultModel(crash_probability=0.3),
            drain_ms=1_200_000.0,
            idle_timeout_ms=60_000.0,
        )
        record = summary_record(result, mode="live")
        for key in ("failed", "task_retries", "container_crashes",
                    "task_timeouts", "dead_lettered", "tick_errors",
                    "degraded_spawns", "shed_jobs"):
            assert key in record
        assert record["container_crashes"] > 0
        rows = resilience_rows({"rscale": result})
        assert len(rows) == 1 and len(rows[0]) == len(RESILIENCE_HEADERS)
