"""Resilience layer: supervised workers, retries, chaos, shedding.

Covers the failure paths of the live serving runtime: crashing and
hanging work functions, retry/backoff/dead-letter semantics, the
control loop's fault containment, the gateway's double-completion
guard, deadline-aware shedding, and the unified chaos injection
(crash probability, registry brownout, worker-group kill) shared with
the simulator's fault models.
"""

import asyncio
import collections
import sys
import threading
import time
from contextlib import closing

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
    WorkLane,
    WorkerPool,
    serve_trace,
)
from repro.serve import pool as serve_pool
from repro.serve.control import ControlLoop
from repro.serve.faults import FATE_HANG
from repro.serve.retry import BASE_BACKOFF_MS, JITTER, MAX_BACKOFF_MS
from repro.traces import poisson_trace
from repro.workflow.job import Job, Task
from repro.workloads import get_application, get_microservice, get_mix
from tests.virtual_time import InlineLane, loop_test

#: The real-loop tests' compression: one model second in 2 wall ms.
FAST = 0.002


# ---------------------------------------------------------------------------
# helpers


def _worker_pool(clock, lane=None, retry_manager=None, batch_size=2,
                 n_nodes=4, on_finished=None, **kwargs):
    return WorkerPool(
        clock=clock,
        lane=lane,
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
    return MetricsCollector(
        EnergyMeter(model=NodePowerModel()), keep_completed=True)


def _bare_loop(cls=None, **kwargs):
    """A control loop over no pools, with no forecaster."""
    return (cls or ControlLoop)(
        pools={}, cluster=Cluster(n_nodes=1), metrics=_metrics(),
        predictor=None, sampler=WindowedMaxSampler(), stage_shares={},
        seed=0, **kwargs)


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


class _NoSpread:
    """An rng whose jitter draw is the midpoint: the nominal backoff."""

    def uniform(self, low, high):
        return (low + high) / 2


class TestRetryPolicy:
    def test_backoff_grows_exponentially_without_jitter(self):
        policy = RetryPolicy()
        assert policy.backoff_ms(1, _NoSpread()) == BASE_BACKOFF_MS
        assert policy.backoff_ms(2, _NoSpread()) == 2 * BASE_BACKOFF_MS
        assert policy.backoff_ms(3, _NoSpread()) == 4 * BASE_BACKOFF_MS

    def test_backoff_is_capped(self):
        policy = RetryPolicy()
        assert policy.backoff_ms(10, _NoSpread()) == MAX_BACKOFF_MS

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy()
        rng = np.random.default_rng(1)
        samples = [policy.backoff_ms(1, rng) for _ in range(200)]
        low, high = BASE_BACKOFF_MS * (1 - JITTER), BASE_BACKOFF_MS * (1 + JITTER)
        assert all(low <= s <= high for s in samples)
        assert len(set(samples)) > 1  # actually jittered

    def test_attempt_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows_attempt(2)
        assert not policy.allows_attempt(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


def _manager(on_give_up=lambda task, reason: None, **policy):
    """A started clock, a stub pool and a retry manager over them."""
    clock = ScaledClock()
    clock.start()
    return clock, _StubPool(), RetryManager(
        policy=RetryPolicy(**policy), clock=clock,
        rng=np.random.default_rng(0), on_give_up=on_give_up)


class TestRetryManager:
    @loop_test
    async def test_exhausted_attempts_dead_letter(self):
        gave_up = []
        clock, pool, manager = _manager(
            lambda task, reason: gave_up.append(reason), max_attempts=2)
        task = _task(clock)
        manager.handle_failure(pool, task, "crash")  # attempt 1 -> retry
        assert pool.enqueued == []                   # backing off
        await clock.sleep_ms(MAX_BACKOFF_MS)
        assert pool.enqueued == [task]
        assert pool.task_retries == 1
        manager.handle_failure(pool, task, "crash")  # attempt 2 -> DLQ
        assert pool.tasks_dead_lettered == 1
        assert len(manager.dlq) == 1
        assert gave_up == ["crash:attempts-exhausted"]
        assert collections.Counter(e.reason for e in manager.dlq) == {
            "crash:attempts-exhausted": 1}

    @loop_test
    async def test_deadline_budget_skips_hopeless_retry(self):
        # ipa's SLO is 1 s: two seconds after arrival its residual slack
        # is negative, and with zero grace no backoff fits.
        gave_up = []
        clock, pool, manager = _manager(
            lambda task, reason: gave_up.append(reason),
            max_attempts=5, deadline_grace_ms=0.0)
        task = _task(clock)
        await clock.sleep_ms(2_000.0)
        manager.handle_failure(pool, task, "timeout")
        await clock.sleep_ms(MAX_BACKOFF_MS)
        assert pool.enqueued == []
        assert gave_up == ["timeout:deadline-exceeded"]
        assert len(manager.dlq) == 1

    @loop_test
    async def test_no_deadline_check_when_grace_unset(self):
        # The same hopeless task is retried when no grace is set.
        clock, pool, manager = _manager(
            lambda task, reason: pytest.fail("should retry"), max_attempts=5)
        task = _task(clock)
        await clock.sleep_ms(2_000.0)
        manager.handle_failure(pool, task, "crash")
        await clock.sleep_ms(MAX_BACKOFF_MS)
        assert pool.enqueued == [task]

    @loop_test
    async def test_requeue_resets_dispatch_record(self):
        clock, pool, manager = _manager()
        task = _task(clock)
        task.record.start_ms = 123.0
        task.record.cold_start_wait_ms = 7.0
        manager.handle_failure(pool, task, "crash")
        await clock.sleep_ms(MAX_BACKOFF_MS)
        assert task.record.start_ms == -1.0
        assert task.record.cold_start_wait_ms == 0.0
        assert task.attempts == 1


# ---------------------------------------------------------------------------
# supervised workers


class TestSupervisedWorkers:
    @loop_test
    async def test_raising_work_fn_crashes_worker_and_retries(self):
        def boom(task, wall_s):
            raise ValueError("handler bug")

        clock = ScaledClock()
        pool = _worker_pool(clock, InlineLane(1), work=boom)
        # No retry manager: failures fall back to a plain requeue.
        pool.retry_manager = None
        clock.start()
        pool.prewarm(1)
        await clock.sleep_ms(1.0)
        pool.enqueue(_task(clock))
        await clock.sleep_ms(1.0)
        assert pool.container_crashes == 1
        assert pool.task_retries == 1
        assert pool.tasks_completed == 0
        # The crashed slot is dead and compacted away.
        assert all(
            s.state != ContainerState.CRASHED for s in pool.containers
        )
        await pool.shutdown()

    @loop_test
    async def test_hung_work_fn_reclaimed_by_timeout(self):
        # A real lane thread hangs; the watchdog runs on virtual time.
        release = threading.Event()

        def hang(task, wall_s):
            release.wait(5.0)  # far beyond any timeout budget

        clock = ScaledClock()
        with closing(WorkLane(2)) as lane:
            try:
                pool = _worker_pool(clock, lane, work=hang)
                clock.start()
                pool.prewarm(1)
                await clock.sleep_ms(1.0)
                pool.enqueue(_task(clock))
                await clock.sleep_ms(5_000.0)
                assert pool.task_timeouts == 1
                assert pool.container_crashes == 1
                assert pool.task_retries == 1
                await pool.shutdown()
            finally:
                release.set()  # before the lane joins the thread

    @loop_test
    async def test_callback_error_crashes_slot_then_respawn(self):
        done = []

        def finished(task):
            if not done:
                done.append(task)
                raise RuntimeError("bug in the completion path")
            done.append(task)

        clock = ScaledClock()
        pool = _worker_pool(clock, on_finished=finished)
        clock.start()
        pool.prewarm(1)
        await clock.sleep_ms(1.0)
        (slot,) = pool.containers
        free_before = pool.cluster.nodes[slot.node.node_id].free_cpu
        first, second = _task(clock), _task(clock)
        pool.enqueue(first)
        pool.enqueue(second)  # rides the same slot's local queue
        await clock.sleep_ms(5_000.0)
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
        await clock.sleep_ms(10_000.0)
        assert done == [first, second]
        assert pool.tasks_completed == 2
        await pool.shutdown()

    @loop_test
    async def test_supervise_is_idle_noop(self):
        clock = ScaledClock()
        pool = _worker_pool(clock)
        clock.start()
        pool.prewarm(2)
        await clock.sleep_ms(1.0)
        assert pool.supervise(clock.now) == 0
        assert pool.container_crashes == 0
        assert pool.n_containers == 2
        await pool.shutdown()


# ---------------------------------------------------------------------------
# the work lane and the execution watchdog on a real loop


class _HangOnce:
    """Live chaos that hangs the first execution and no other."""

    crash_point = 0.5

    def __init__(self):
        self.hung = False

    def draw_fate(self, rng):
        if self.hung:
            return None
        self.hung = True
        return FATE_HANG


def _wait_on_thread(predicate, limit_s=10.0):
    """Hold the event loop (no pass runs) until a lane thread makes
    *predicate* true."""
    deadline = time.monotonic() + limit_s
    while not predicate():
        assert time.monotonic() < deadline, "the lane thread never got there"
        time.sleep(0.001)


# Real loop: the subject is lane threads racing the loop in wall time.
@pytest.mark.usefixtures("real_loop")
class TestWorkLaneAndWatchdog:
    @pytest.mark.parametrize("hang", ["chaos", "blocking-work"])
    def test_a_hang_is_declared_at_its_deadline(self, monkeypatch, hang):
        monkeypatch.setattr(serve_pool, "TIMEOUT_FLOOR_WALL_S", 0.05)
        release = threading.Event()
        verdicts = []
        real_crash = serve_pool.WorkerSlot._crash

        def crash(slot, reason="crash"):
            verdicts.append((slot._loop.time(), reason))
            real_crash(slot, reason)

        monkeypatch.setattr(serve_pool.WorkerSlot, "_crash", crash)
        if hang == "chaos":
            kwargs = dict(chaos=_HangOnce(), work=lambda task, wall_s: None)
        else:
            kwargs = dict(work=lambda task, wall_s: release.wait(5.0))
        seen = {}

        async def scenario():
            loop = asyncio.get_running_loop()
            clock = ScaledClock(FAST)
            with closing(WorkLane(1)) as lane:
                pool = _worker_pool(clock, lane, n_nodes=1, **kwargs)
                clock.start()
                pool.prewarm(1)
                await asyncio.sleep(0.02)
                (slot,) = pool.containers
                pool.enqueue(_task(clock))
                deadline = slot._deadline
                # The pass after the one in which the deadline fell due.
                loop.call_at(deadline, loop.call_soon,
                             lambda: seen.update(verdicts=list(verdicts)))
                while "verdicts" not in seen:
                    await asyncio.sleep(0.01)
                release.set()
                await pool.shutdown()
            return deadline

        deadline = asyncio.run(scenario())
        ((at, reason),) = seen["verdicts"]
        assert reason == "timeout"
        assert at >= deadline - serve_pool.LOOP_RESOLUTION_S

    def test_no_outcome_is_lost_or_settled_twice_under_thread_churn(self):
        """More lane threads than cores and a tiny switch interval:
        every submission settles exactly once (a lost wake-up strands
        the last outcomes in the inbox)."""
        settled = collections.Counter()

        class Slot:
            _ticket = 0

            def _work(self, task, wall_s):
                pass

            def _guarded(self, fn, *args):
                fn(*args)

            def _settle(self, task, failure):
                settled[task] += 1

        n = 4000

        async def scenario():
            loop = asyncio.get_running_loop()
            with closing(WorkLane(4, loop)) as lane:
                slots = [Slot() for _ in range(8)]
                for k in range(n):
                    lane.submit(slots[k % 8], k, 0.0)
                    if k % 100 == 0:
                        await asyncio.sleep(0)
                deadline = loop.time() + 20.0
                while len(settled) < n and loop.time() < deadline:
                    await asyncio.sleep(0.005)
                await asyncio.sleep(0.02)
                return list(lane._threads)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = asyncio.run(scenario())
        finally:
            sys.setswitchinterval(interval)
        assert len(settled) == n and set(settled.values()) == {1}
        assert 2 <= len(threads) <= 4
        assert not any(t.is_alive() for t in threads)

    @loop_test
    async def test_cancelled_queued_work_never_runs(self):
        gate = threading.Event()
        ran = []

        def work(task, wall_s):
            ran.append(task)
            gate.wait(5.0)

        clock = ScaledClock(FAST)
        with closing(WorkLane(1)) as lane:
            pool = _worker_pool(clock, lane, batch_size=1, work=work)
            clock.start()
            pool.prewarm(2)
            await asyncio.sleep(0.02)
            first, second = _task(clock), _task(clock)
            pool.enqueue(first)
            pool.enqueue(second)
            queued = next(
                s for s in pool.containers if s.current_task is second)
            # The lane's one thread is inside *first*'s work, so
            # *second*'s sits on the lane queue when its slot stops.
            _wait_on_thread(lambda: ran)
            queued.shutdown()
            gate.set()
            for _ in range(200):
                if pool.tasks_completed:
                    break
                await asyncio.sleep(0.005)
            await asyncio.sleep(0.02)
            assert ran == [first]
            assert pool.tasks_completed == 1
            await pool.shutdown()

    @loop_test
    async def test_a_completion_waiting_in_the_inbox_is_dropped_after_fail_node(
            self):
        finished = []

        clock = ScaledClock(FAST)
        with closing(WorkLane(1)) as lane:
            pool = _worker_pool(
                clock, lane, n_nodes=1, on_finished=finished.append,
                work=lambda task, wall_s: None)
            clock.start()
            pool.prewarm(1)
            await asyncio.sleep(0.05)
            (slot,) = pool.containers
            task = _task(clock)
            pool.enqueue(task)
            assert slot.current_task is task
            # The work returned; its outcome waits for a drain.
            _wait_on_thread(lambda: lane._inbox)
            assert fail_node(slot.node, [pool], clock.now) == 1
            await asyncio.sleep(0.05)
            assert not lane._inbox
            assert finished == [] and pool.tasks_completed == 0
            assert slot.tasks_executed == 0
            assert slot.state == ContainerState.TERMINATED
            assert pool.task_retries == 1 and pool.queue_length == 1
            await pool.shutdown()


# ---------------------------------------------------------------------------
# node kill vs live pool (unified fault model)


# Real loop: the subject is a lane thread still inside the work when
# its node dies, whose late completion must then be dropped.
@pytest.mark.usefixtures("real_loop")
class TestFailNodeLive:
    @loop_test
    async def test_killed_nodes_inflight_task_requeued_exactly_once(self):
        release = threading.Event()

        def gated(task, wall_s):
            release.wait(5.0)  # in flight until the test lets it return

        clock = ScaledClock(FAST)
        with closing(WorkLane(2)) as lane:
            pool = _worker_pool(clock, lane, n_nodes=1, work=gated)
            clock.start()
            pool.prewarm(1)
            await asyncio.sleep(0.05)
            (slot,) = pool.containers
            task = _task(clock)
            pool.enqueue(task)
            assert slot.current_task is task  # dispatched, executing
            watchdog = slot._watchdog
            assert watchdog is not None
            destroyed = fail_node(slot.node, [pool], clock.now)
            assert destroyed == 1
            assert slot.state == ContainerState.TERMINATED
            # Exactly one queue entry and one counted retry — no
            # duplicates in the queue or the waiting view.
            assert pool.task_retries == 1
            assert pool.queue_length == 1
            assert sum(1 for t in pool._waiting if t is task) == 1
            assert pool.queue.pop() is task
            # The kill cancelled the execution watchdog, and the
            # orphaned execution's late completion is discarded.
            assert watchdog.cancelled() and slot._watchdog is None
            release.set()
            await asyncio.sleep(0.05)
            assert pool.tasks_completed == 0
            assert slot.tasks_executed == 0
            assert slot.state == ContainerState.TERMINATED
            await pool.shutdown()


# ---------------------------------------------------------------------------
# control loop containment


class _RaisingScaler:
    def __init__(self):
        self.calls = 0

    def tick(self, now_ms):
        self.calls += 1
        raise RuntimeError("scaler bug")


class TestControlLoopContainment:
    @loop_test
    async def test_raising_scaler_is_contained_and_counted(self):
        clock = ScaledClock()
        clock.start()
        scaler = _RaisingScaler()
        loop = _bare_loop(
            clock=clock, config=make_policy_config("rscale"))
        loop.scaler = scaler
        loop.tick(0.0)
        loop.tick(10_000.0)
        assert scaler.calls == 2      # still invoked every tick
        assert loop.tick_errors == 2  # each failure contained
        assert loop.ticks == 2        # the loop itself never died
        # The sampler still ran despite the broken scaler.
        assert len(loop.metrics.sample_times) == 2

    def test_raising_scaler_does_not_hang_drain(self, caplog):
        # End to end: a broken reactive scaler must not wedge the run.
        runtime = ServingRuntime(
            config=make_policy_config("rscale", idle_timeout_ms=60_000.0),
            mix=get_mix("light"),
            seed=3,
            options=ServeOptions(),
        )

        original_build = runtime._build

        def sabotaged_build(lane):
            original_build(lane)
            runtime.control.scaler = _RaisingScaler()

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
            options=ServeOptions(),
        )
        result = runtime.run(poisson_trace(5.0, 4.0, seed=4))
        assert result.tick_errors == 0
        assert "tick_errors" in result.summary()


class TestControlLoopOverrun:
    @loop_test
    async def test_slow_tick_does_not_starve_the_loop(self):
        progress = [0]
        loop = asyncio.get_running_loop()

        class SlowLoop(ControlLoop):
            seen, stalled = 0, 0

            def tick(self, now_ms):
                # One tick costs one and a half intervals of loop time.
                loop.now += 1.5 * self.config.monitor_interval_ms / 1000.0
                self.ticks += 1
                self.stalled = self.stalled + 1 if progress[0] == self.seen else 0
                self.seen = progress[0]
                # Starved, the test could only hang: fail it instead.
                assert self.stalled < 100, "control loop never yields"

        clock = ScaledClock()
        clock.start()
        control = _bare_loop(
            SlowLoop, clock=clock, config=make_policy_config("bline"))
        control.start()
        for _ in range(40):  # the sibling: this coroutine
            await clock.sleep_ms(control.config.monitor_interval_ms)
            progress[0] += 1
        await control.stop()  # returns (and re-raises a starved loop)
        assert control._task is None
        assert control.ticks >= 10
        # Every tick passed over one boundary, resumed at the next.
        overrun = control.registry.value("control_loop_ticks_overrun_total")
        assert control.ticks - 1 <= overrun <= control.ticks
        interval = control.config.monitor_interval_ms
        assert control.clock.now <= (2 * control.ticks + 1) * interval


# ---------------------------------------------------------------------------
# gateway guards


class TestGatewayGuards:
    @loop_test
    async def test_double_completion_counted_not_applied(self):
        clock = ScaledClock()
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

    @loop_test
    async def test_failure_after_completion_is_duplicate(self):
        clock = ScaledClock()
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

    @loop_test
    async def test_task_failure_terminates_job(self):
        clock = ScaledClock()
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

    @loop_test
    async def test_deadline_shedding(self):
        class SwampedPool:
            free_slots = 0

            def monitored_delay_ms(self):
                return 1e9

        class IdlePool:
            free_slots = 0

            def monitored_delay_ms(self):
                return 0.0

        clock = ScaledClock()
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


# ---------------------------------------------------------------------------
# end to end: chaos runs drain cleanly


class TestChaosEndToEnd:
    def test_raising_work_fn_run_terminates_with_failures(self, inline_lane):
        def boom(task, wall_s):
            raise RuntimeError("every handler is broken")

        trace = poisson_trace(8.0, 5.0, seed=7)
        runtime = ServingRuntime(
            config=make_policy_config("rscale", idle_timeout_ms=60_000.0),
            mix=get_mix("light"),
            seed=7,
            options=ServeOptions(retry=RetryPolicy(max_attempts=2)),
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
        assert len(runtime.retry_manager.dlq) == result.n_jobs
        # Failed jobs count against the SLO rate (they are incomplete).
        assert result.slo_violation_rate == 1.0

    def test_crash_prob_run_drains_cleanly(self):
        trace = poisson_trace(15.0, 8.0, seed=8)
        runtime = ServingRuntime(
            config=make_policy_config("rscale", idle_timeout_ms=60_000.0),
            mix=get_mix("light"),
            seed=8,
            options=ServeOptions(retry=RetryPolicy(max_attempts=5)),
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
            options=ServeOptions(retry=RetryPolicy(max_attempts=2)),
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
        clock = ScaledClock()  # unstarted: now == 0, inside the window
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
            options=ServeOptions(),
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
            options=ServeOptions(retry=RetryPolicy(max_attempts=5)),
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
            options=ServeOptions(retry=RetryPolicy(max_attempts=5)),
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
