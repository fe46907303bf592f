"""One container state machine under both of its drivers.

One scripted sequence — spawn, ready, assign up to the batch size,
complete with and without a local queue, crash with a local queue, a
node kill mid-execution followed by the late completion, terminate —
runs on ``Container`` over a ``Simulator`` and on ``WorkerSlot`` over
an inline work lane and a manual event loop.  Both must go through the
same states, report the same callbacks and leave the same counters and
``JobStage`` records.  No wall clock anywhere: the live driver's loop
is a timer heap the script advances, and the "work" advances that
clock by exactly its span.
"""

import dataclasses
import heapq
import itertools

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.container import Container, ContainerState
from repro.serve.faults import FATE_CRASH, FATE_HANG
from repro.serve.pool import WorkerSlot
from repro.sim.engine import Simulator
from repro.workflow.job import Job, Task
from repro.workloads import get_application, get_microservice
from tests.virtual_time import InlineLane

BATCH = 3


class _ScriptedFaults:
    """Crashes (or, live only, hangs) the next execution when armed;
    draws nothing from the rng.  Serves as the simulator's fault model
    and the live chaos."""

    crash_point = 0.5

    def __init__(self):
        self.crash_next = False
        self.hang_next = False

    def should_crash(self, rng):
        crash, self.crash_next = self.crash_next, False
        return crash

    def draw_fate(self, rng):
        if self.hang_next:
            self.hang_next = False
            return FATE_HANG
        return FATE_CRASH if self.should_crash(rng) else None


class _Driver:
    """What the script needs: a clock to advance and a container
    factory; callbacks land in ``log`` by task index."""

    def __init__(self):
        self.log = []
        self.tasks = []
        self.faults = _ScriptedFaults()
        self.rng = np.random.default_rng(7)
        self.node = Cluster(n_nodes=1).place()

    def task(self, enqueue_ms):
        job = Job(app=get_application("ipa"), arrival_ms=enqueue_ms)
        task = Task(job=job, stage_index=0, enqueue_ms=enqueue_ms)
        task.record.enqueue_ms = enqueue_ms
        self.tasks.append(task)
        return task

    def _name(self, task):
        return next(i for i, t in enumerate(self.tasks) if t is task)

    def _callbacks(self):
        return dict(
            service=get_microservice("ASR"),
            batch_size=BATCH,
            node=self.node,
            rng=self.rng,
            on_ready=lambda c: self.log.append(("ready", c.state)),
            on_task_done=lambda c, t: self.log.append(
                ("done", self._name(t), c.state)),
            on_crashed=lambda c, t, reason: self.log.append(
                ("crashed", self._name(t), reason)),
        )

    def snapshot(self, c):
        return (
            c.state, c.is_ready, c.is_reapable, c.occupied_slots,
            c.free_slots, c.tasks_executed, c.crashes, c.busy_time_ms,
            c.last_used_ms, c.ready_at_ms,
            None if c.current_task is None else self._name(c.current_task),
            [self._name(t) for t in c.local_queue],
        )


class SimDriver(_Driver):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()

    def spawn(self, cold_start_ms):
        return Container(sim=self.sim, cold_start_ms=cold_start_ms,
                         fault_model=self.faults, **self._callbacks())

    def run(self, until):
        self.sim.run(until=until)


class _ManualLoop:
    """The slice of ``ScaledClock`` and of an event loop a slot touches,
    on manual time: one "wall second" is one model millisecond, so the
    conversions are exact."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = itertools.count()

    def to_wall_s(self, model_ms):
        return model_ms

    def time(self):
        return self.now

    def call_at(self, when, fn, *args):
        handle = _Handle(when)
        heapq.heappush(self._heap, (when, next(self._seq), handle, fn, args))
        return handle

    def call_later(self, delay_s, fn, *args):
        return self.call_at(self.now + delay_s, fn, *args)

    def call_soon_threadsafe(self, fn, *args):
        return self.call_later(0.0, fn, *args)

    def run(self, until):
        while self._heap and self._heap[0][0] <= until:
            when, _, handle, fn, args = heapq.heappop(self._heap)
            if not handle.cancelled:
                self.now = max(self.now, when)
                fn(*args)
        self.now = max(self.now, until)


class _Handle:
    cancelled = False

    def __init__(self, when):
        self._when = when

    def when(self):
        return self._when

    def cancel(self):
        self.cancelled = True


class LiveDriver(_Driver):
    def __init__(self):
        super().__init__()
        self.loop = _ManualLoop()

    def _work(self, task, wall_s):
        self.loop.now += wall_s  # the work takes exactly its span

    def spawn(self, cold_start_ms):
        return WorkerSlot(
            clock=self.loop, lane=InlineLane(1, self.loop), loop=self.loop,
            work=self._work, chaos=self.faults, cold_start_ms=cold_start_ms,
            **self._callbacks())

    def run(self, until):
        self.loop.run(until)


def _kill(container):
    """What ``fail_node`` does to one container (minus the pool's part)."""
    container.local_queue.clear()
    container.current_task = None
    container.terminate()


def run_script(d):
    """Drive *d* through the sequence; return every observation."""
    seen = []

    def observe(label, c):
        seen.append((label, d.snapshot(c)))

    def refused(label, fn, *args):
        with pytest.raises(RuntimeError):
            fn(*args)
        seen.append((label, "refused"))

    # -- spawn, ready, a full batch --------------------------------------
    c = d.spawn(100.0)
    observe("spawning", c)
    c.assign(d.task(0.0))               # rides the cold container
    observe("assigned-while-spawning", c)
    d.run(100.0)
    observe("ready-and-started", c)
    c.assign(d.task(100.0))
    c.assign(d.task(100.0))
    observe("batch-full", c)
    refused("assign-beyond-batch", c.assign, d.tasks[0])
    refused("terminate-while-busy", c.terminate)
    # -- complete with a local queue, then without -----------------------
    first = d.tasks[0].record
    d.run(first.start_ms + first.exec_ms)
    observe("completed-with-queue", c)
    d.run(10_000.0)
    observe("drained-idle", c)
    # -- crash with a local queue ----------------------------------------
    d.faults.crash_next = True
    c.assign(d.task(10_000.0))
    c.assign(d.task(10_000.0))
    observe("doomed-executing", c)
    d.run(20_000.0)
    observe("crashed-with-queue", c)    # the pool drains local_queue
    refused("assign-to-crashed", c.assign, d.tasks[-1])
    # -- node kill mid-execution, then the late completion ---------------
    k = d.spawn(0.0)
    d.run(20_000.0)
    k.assign(d.task(20_000.0))
    k.assign(d.task(20_000.0))
    observe("victim-executing", k)
    _kill(k)
    observe("killed", k)
    d.run(30_000.0)
    observe("late-completion-discarded", k)
    # -- terminate --------------------------------------------------------
    t = d.spawn(50.0)
    d.run(30_050.0)
    t.assign(d.task(30_050.0))
    d.run(40_000.0)
    observe("idle-again", t)
    t.terminate()
    observe("terminated", t)
    refused("assign-to-terminated", t.assign, d.tasks[-1])
    d.run(50_000.0)
    observe("stays-terminated", t)
    records = [dataclasses.asdict(task.record) for task in d.tasks]
    return seen, d.log, records


def test_both_drivers_walk_the_same_state_machine():
    sim_seen, sim_log, sim_records = run_script(SimDriver())
    live_seen, live_log, live_records = run_script(LiveDriver())
    assert live_seen == sim_seen
    assert live_log == sim_log
    assert live_records == sim_records

    # And the script went where it claims to (on the shared outcome).
    states = {label: snap[0] for label, snap in sim_seen if snap != "refused"}
    assert states["spawning"] == ContainerState.SPAWNING
    assert states["ready-and-started"] == ContainerState.BUSY
    assert states["drained-idle"] == ContainerState.IDLE
    assert states["crashed-with-queue"] == ContainerState.CRASHED
    assert states["late-completion-discarded"] == ContainerState.TERMINATED
    assert [entry[:2] for entry in sim_log] == [
        ("ready", ContainerState.IDLE),
        ("done", 0), ("done", 1), ("done", 2),
        ("crashed", 3),
        ("ready", ContainerState.IDLE),
        ("ready", ContainerState.IDLE),
        ("done", 7),
    ]
    # A completion with a local queue reports BUSY (the next task is
    # already executing); the last one reports IDLE.
    assert [e[2] for e in sim_log if e[0] == "done"] == [
        ContainerState.BUSY, ContainerState.BUSY,
        ContainerState.IDLE, ContainerState.IDLE,
    ]
    assert sim_log[4] == ("crashed", 3, "crash")
    executed = {i for i, r in enumerate(sim_records) if r["end_ms"] >= 0}
    assert executed == {0, 1, 2, 7}
    assert sim_records[0]["cold_start_wait_ms"] == 100.0


def test_worker_slot_is_a_container():
    d = LiveDriver()
    assert isinstance(d.spawn(0.0), Container)


# ---------------------------------------------------------------------------
# the live driver's execution watchdog, on the manual clock


def _watched_slot(*budgets):
    """A ready live slot whose successive executions get *budgets*
    (manual-clock units) instead of their slack-derived ones."""
    d = LiveDriver()
    slot = d.spawn(0.0)
    d.run(0.0)
    budgets = iter(budgets)
    slot._timeout_wall_s = lambda task, exec_ms: next(budgets)
    return d, slot


def test_a_later_execution_with_an_earlier_deadline_rearms_the_watchdog():
    d, slot = _watched_slot(1_000.0, 10.0)
    slot.assign(d.task(0.0))            # watchdog pending at 1000
    d.run(500.0)
    assert slot.tasks_executed == 1 and slot.current_task is None
    d.faults.hang_next = True
    slot.assign(d.task(500.0))          # hangs; its deadline is 510
    assert slot._deadline == 510.0
    d.run(509.999)
    assert slot.state == ContainerState.BUSY
    d.run(510.0)
    assert slot.state == ContainerState.CRASHED
    assert d.log[-1] == ("crashed", 1, "timeout")


def test_a_watchdog_that_fires_early_rearms_at_the_current_deadline():
    d, slot = _watched_slot(200.0, 1_000.0)
    slot.assign(d.task(0.0))            # watchdog pending at 200
    first = d.tasks[0].record
    done_ms = first.start_ms + first.exec_ms
    assert done_ms < 200.0
    d.run(done_ms)
    d.faults.hang_next = True
    slot.assign(d.task(done_ms))        # hangs until done_ms + 1000
    d.run(done_ms + 999.999)            # the watchdog fired at 200
    assert slot.state == ContainerState.BUSY
    assert slot._watchdog is not None and not slot._watchdog.cancelled
    d.run(done_ms + 1_000.0)
    assert slot.state == ContainerState.CRASHED
    assert d.log[-1] == ("crashed", 1, "timeout")
    assert slot._watchdog is None


def test_an_idle_slot_disarms_its_watchdog():
    d, slot = _watched_slot(200.0)
    slot.assign(d.task(0.0))
    d.run(10_000.0)
    assert slot.tasks_executed == 1 and slot.state == ContainerState.IDLE
    assert slot._watchdog is None and slot.crashes == 0
