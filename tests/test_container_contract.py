"""One container state machine under both of its drivers.

One scripted sequence — spawn, ready, assign up to the batch size,
complete with and without a local queue, crash with a local queue, a
node kill mid-execution followed by the late completion, terminate —
runs on ``Container`` over a ``Simulator`` and on ``WorkerSlot`` over
an inline executor and a manual event loop.  Both must go through the
same states, report the same callbacks and leave the same counters and
``JobStage`` records.  No wall clock anywhere: the live driver's loop
is a timer heap the script advances, and the "work" advances that
clock by exactly its span.
"""

import dataclasses
import heapq
import itertools
from concurrent.futures import Executor, Future

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.container import Container, ContainerState
from repro.serve.faults import FATE_CRASH
from repro.serve.pool import WorkerSlot
from repro.sim.engine import Simulator
from repro.workflow.job import Job, Task
from repro.workloads import get_application, get_microservice

BATCH = 3


class _ScriptedFaults:
    """Crashes the next execution when armed; draws nothing from the
    rng.  Serves as the simulator's fault model and the live chaos."""

    crash_point = 0.5

    def __init__(self):
        self.crash_next = False

    def should_crash(self, rng):
        crash, self.crash_next = self.crash_next, False
        return crash

    def draw_fate(self, rng):
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

    def call_later(self, delay_s, fn, *args):
        handle = _Handle()
        heapq.heappush(
            self._heap, (self.now + delay_s, next(self._seq), handle, fn, args))
        return handle

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

    def cancel(self):
        self.cancelled = True


class _InlineExecutor(Executor):
    """``submit`` runs the call synchronously; the future is finished."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # pragma: no cover - the work is a no-op
            future.set_exception(exc)
        return future


class LiveDriver(_Driver):
    def __init__(self):
        super().__init__()
        self.loop = _ManualLoop()

    def _work(self, task, wall_s):
        self.loop.now += wall_s  # the work takes exactly its span

    def spawn(self, cold_start_ms):
        return WorkerSlot(
            clock=self.loop, executor=_InlineExecutor(), loop=self.loop,
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
