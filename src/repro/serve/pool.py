"""Live worker pools: wall-clock "containers" behind the sim's pool API.

A :class:`WorkerSlot` *is* a :class:`repro.cluster.container.Container`:
the cold start, the batch-size local queue, one execution at a time,
the exec-time-then-fate draw order and every counter are the
simulator's own state machine running against the scaled wall clock.
The slot overrides only how one execution is launched and settled.
Without a work function one loop timer ends the execution.  With one,
the slot hands ``(ticket, slot, task, wall_s)`` to the run's
:class:`WorkLane`: a lane thread runs the work and posts the outcome to
one inbox, which the event loop drains in batches, and the slot's
execution budget is watched by one lazily re-armed timer per slot
rather than one timer per execution.  There is no per-slot coroutine,
no ``Future`` and no per-execution timer — the slot lives entirely in
loop callbacks.

Workers are *supervised*: a work-function exception, an enforced
execution timeout (derived from the stage's slack — the same quantity
:mod:`repro.core.slack` distributes — plus the task's residual slack),
an injected chaos fault or an exception escaping one of the slot's own
callbacks transitions the slot to ``CRASHED`` at once and hands the lost
task to the pool, which routes it through the retry layer
(:mod:`repro.serve.retry`).  A slot killed externally (node failure)
no longer owns its current task and discards the late completion.

:class:`WorkerPool` *is* a :class:`repro.workflow.pool.FunctionPool` —
the overrides are the container factory and the crash path.  Global
queues, LSF/FIFO scheduling, greedy dispatch, backlog spawning, idle
reaping and all the load-monitor signals the scalers consume are the
simulator's own code running against the scaled wall clock (which
duck-types ``sim.now``).
"""

from __future__ import annotations

import asyncio
import logging
import threading
from collections import deque
from queue import SimpleQueue
from typing import Callable, List, Optional, TYPE_CHECKING

from repro.cluster.container import Container, ContainerState, DEAD_STATES
from repro.serve.clock import LOOP_RESOLUTION_S, ScaledClock
from repro.serve.faults import ChaosInjector, FATE_CRASH, FATE_HANG
from repro.serve.retry import RetryManager
from repro.workflow.pool import FunctionPool

if TYPE_CHECKING:  # pragma: no cover
    from repro.workflow.job import Task

logger = logging.getLogger(__name__)

#: Executed on a lane thread for each task: (task, wall_seconds).
#: Deployments plug in real handlers here; without one, a task's work is
#: its span on the scaled clock and occupies no thread.
WorkFn = Callable[["Task", float], None]

#: Wall-clock grace added to every per-task execution timeout: it
#: absorbs lane queueing and event-loop jitter, which compressed
#: clocks would otherwise amplify into false hang verdicts.
TIMEOUT_FLOOR_WALL_S = 1.0


class WorkLane:
    """The threads that run slot work functions, and one inbox back.

    :meth:`submit` (event-loop thread) puts ``(ticket, slot, task,
    wall_s)`` on a ``SimpleQueue``.  A lane thread runs the slot's work
    function unless the slot voided the ticket meanwhile, appends
    ``(slot, task, failed)`` to the inbox, and wakes the loop only if no
    drain is already scheduled.  The drain clears that flag *before* it
    pops, so an entry appended after its last pop re-arms it, and
    settles every entry through the slot's ``_guarded``/``_settle``.

    Threads start lazily — only when none is idle — up to
    ``max_threads``, as ``ThreadPoolExecutor`` starts them.
    :meth:`close` joins them; a work function that hangs keeps its
    thread until it returns, like a real one.
    """

    def __init__(
        self,
        max_threads: int,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        self._max_threads = max_threads
        self._loop = loop or asyncio.get_running_loop()
        self._queue: SimpleQueue = SimpleQueue()
        #: One token per item a thread finished; :meth:`submit` takes
        #: one instead of starting a thread (``ThreadPoolExecutor``'s
        #: idle semaphore).  Only the loop thread pops.
        self._idle: deque = deque()
        self._inbox: deque = deque()
        #: True from the wake-up a thread posted until its drain starts.
        self._armed = False
        self._threads: List[threading.Thread] = []

    def submit(self, slot: "WorkerSlot", task: "Task", wall_s: float) -> None:
        """Queue *slot*'s work on *task* (event-loop thread)."""
        self._queue.put((slot._ticket, slot, task, wall_s))
        if self._idle:
            self._idle.pop()
        elif len(self._threads) < self._max_threads:
            thread = threading.Thread(
                target=self._run, daemon=True,
                name=f"repro-serve_{len(self._threads)}")
            self._threads.append(thread)
            thread.start()

    def _run(self) -> None:
        """One lane thread: run queued work until the ``None`` sentinel."""
        get, inbox, idle = self._queue.get, self._inbox, self._idle
        while True:
            item = get()
            if item is None:
                return
            ticket, slot, task, wall_s = item
            if slot._ticket == ticket:
                try:
                    slot._work(task, wall_s)
                    failed = False
                except Exception:
                    # Reported as the slot's crash (reason "error").
                    logger.debug("worker %d: work failed",
                                 slot.container_id, exc_info=True)
                    failed = True
                inbox.append((slot, task, failed))
                # No lock: append-then-read here against clear-then-pop
                # in the drain loses no wake-up, and two threads racing
                # past the check post two drains, the second of which
                # finds the inbox empty.
                if not self._armed:
                    self._armed = True
                    try:
                        self._loop.call_soon_threadsafe(self._drain)
                    except RuntimeError:
                        pass  # the loop is closed: the run is over
            idle.append(None)

    def _drain(self) -> None:
        """Event-loop thread: settle every outcome in the inbox."""
        self._armed = False
        inbox = self._inbox
        while inbox:
            slot, task, failed = inbox.popleft()
            slot._guarded(slot._settle, task, "error" if failed else None)

    def close(self) -> None:
        """Let the threads finish what is queued, then join them."""
        threads, self._threads = self._threads, []
        for _ in threads:
            self._queue.put(None)
        for thread in threads:
            thread.join()


class WorkerSlot(Container):
    """One live worker: the container state machine on the event loop.

    All mutation happens on the event-loop thread, inside callbacks that
    run through :meth:`_guarded`; the lane only runs the opaque work
    function.  At most one timer and one watchdog are pending per slot:
    the timer is the cold start, then per timer-ended execution its end
    (or the chaos crash point); the watchdog guards the budget of
    executions that a timer does not end.
    """

    def __init__(
        self,
        clock: ScaledClock,
        lane: Optional[WorkLane],
        work: Optional[WorkFn] = None,
        stage_slack_ms: float = 0.0,
        chaos: Optional[ChaosInjector] = None,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        **container,
    ) -> None:
        self.clock = clock
        self.lane = lane
        self._work = work
        self.stage_slack_ms = stage_slack_ms
        self.chaos = chaos
        self._loop = loop or asyncio.get_running_loop()
        #: Carried by each lane submission; bumping it voids the one
        #: still queued, so it never starts.
        self._ticket = 0
        #: Loop-time deadline of the current execution; ``None`` while a
        #: timer ends it (no budget to watch).
        self._deadline: Optional[float] = None
        self._watchdog: Optional[asyncio.TimerHandle] = None
        # Arms the cold-start timer: ``_timer`` is set from here on.
        super().__init__(sim=clock, later=self._call_later, **container)

    # -- driver: timers and callbacks on the event loop --------------------

    def _call_later(self, delay_ms: float, fn, *args) -> None:
        self._timer = self._loop.call_later(
            self.clock.to_wall_s(delay_ms), self._guarded, fn, *args
        )

    def _guarded(self, fn, *args) -> None:
        """Run one slot callback; an exception escaping it kills this
        slot now (reason ``"died"``) instead of leaking its node and its
        claimed task — there is no coroutine whose death could be polled."""
        try:
            fn(*args)
        except Exception:
            logger.exception("worker %d: callback failed", self.container_id)
            self._cancel_pending()
            self._crash("died")

    def _cancel_pending(self) -> None:
        self._timer.cancel()
        # Only work still queued on the lane can be voided; a running
        # (hung) handler keeps its thread, like a real one.
        self._ticket += 1
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None

    # -- driver: the execution watchdog ------------------------------------

    def _watch(self, deadline: float) -> None:
        """Guard the current execution until loop time *deadline*.  The
        pending watchdog stays unless it would fire later than that."""
        self._deadline = deadline
        watchdog = self._watchdog
        if watchdog is None or watchdog.when() > deadline:
            if watchdog is not None:
                watchdog.cancel()
            self._watchdog = self._loop.call_at(
                deadline, self._guarded, self._on_watchdog)

    def _on_watchdog(self) -> None:
        """Time the current execution out if its deadline has passed;
        re-arm at it if not; disarm while idle or timer-ended."""
        self._watchdog = None
        task, deadline = self.current_task, self._deadline
        if task is None or deadline is None:
            return
        if deadline > self._loop.time() + LOOP_RESOLUTION_S:
            self._watch(deadline)
        else:
            self._settle(task, "timeout")

    # -- driver: one execution ---------------------------------------------

    def _timeout_wall_s(self, task: "Task", exec_ms: float) -> float:
        """Execution budget for one attempt, in wall seconds.

        Model-time budget: twice the expected execution plus whichever
        is larger of the stage's slack allocation and the task's
        residual slack (a task that still has headroom is given it) —
        on the wall clock, plus the floor :data:`TIMEOUT_FLOOR_WALL_S`.
        """
        residual = max(0.0, task.available_slack_ms(self.clock.now))
        budget_ms = 2.0 * exec_ms + max(self.stage_slack_ms, residual)
        return self.clock.to_wall_s(budget_ms) + TIMEOUT_FLOOR_WALL_S

    def _launch(self, task: "Task", exec_ms: float) -> None:
        fate = self.chaos.draw_fate(self.rng) if self.chaos is not None else None
        if fate == FATE_CRASH:
            # The worker dies partway through; the work is lost.
            self._deadline = None
            self._call_later(
                exec_ms * self.chaos.crash_point, self._settle, task, "crash"
            )
            return
        if fate != FATE_HANG and self._work is None:
            # No handler: the work is its span, so a loop timer ends it.
            # A thread that sleeps and then hops back to the loop would
            # add its wake-up latency to every execution, and a
            # compressed clock multiplies that into model-time queueing.
            self._deadline = None
            self._call_later(exec_ms, self._settle, task, None)
            return
        self._watch(self._loop.time() + self._timeout_wall_s(task, exec_ms))
        if fate == FATE_HANG:
            # The work never returns; only the execution timeout
            # recovers the slot.
            return
        self.lane.submit(self, task, self.clock.to_wall_s(exec_ms))

    def _owns(self, task: "Task") -> bool:
        """True while this slot still owns *task*'s execution.  A node
        kill (``fail_node``) clears ``current_task`` and terminates the
        slot after requeueing the task elsewhere — from then on any
        local completion or failure must be discarded."""
        return self.current_task is task and self.state not in DEAD_STATES

    def _settle(self, task: "Task", failure: Optional[str]) -> None:
        """*task*'s execution ended: the work returned (``None``), raised
        (``"error"``), was crashed by chaos or ran out of time.  Nothing
        is pending for it on success: its timer fired, its work ran, and
        the watchdog stays armed for the next execution."""
        if not self._owns(task):
            return
        if failure is None:
            self._complete()
        else:
            self._cancel_pending()
            self._crash(failure)

    # -- lifecycle ---------------------------------------------------------

    def terminate(self) -> None:
        super().terminate()
        self._cancel_pending()

    def shutdown(self) -> None:
        """Force-stop (end-of-run teardown, any state): from here on no
        callback mutates this slot."""
        if self.state != ContainerState.CRASHED:
            self.state = ContainerState.TERMINATED
        self._cancel_pending()


class WorkerPool(FunctionPool):
    """A FunctionPool whose containers are live asyncio worker slots.

    Everything else — global queue, dispatch, scaling hooks, monitor
    signals, reaping — is inherited unchanged; ``sim`` is the scaled
    wall clock (only ``sim.now`` is ever read).  On top of the sim's
    surface it adds the resilience hooks: failed executions route
    through the retry manager, and :meth:`supervise` (driven by the
    control loop) respawns capacity lost to failures.
    """

    def __init__(
        self,
        clock: ScaledClock,
        lane: Optional[WorkLane],
        work: Optional[WorkFn] = None,
        retry_manager: Optional[RetryManager] = None,
        chaos: Optional[ChaosInjector] = None,
        **kwargs,
    ) -> None:
        super().__init__(sim=clock, **kwargs)
        self.clock = clock
        self.lane = lane
        self.work = work
        self.retry_manager = retry_manager
        self.chaos = chaos
        #: Failures whose capacity the supervisor has not yet replaced.
        self._unreplaced_failures = 0

    def _make_container(self, node, cold_start_ms: float) -> WorkerSlot:
        return WorkerSlot(
            clock=self.clock,
            lane=self.lane,
            service=self.service,
            batch_size=self.batch_size,
            cold_start_ms=cold_start_ms,
            node=node,
            rng=self.rng,
            on_ready=self._on_container_ready,
            on_task_done=self._on_task_done,
            on_crashed=self._on_slot_failed,
            work=self.work,
            stage_slack_ms=self.stage_slack_ms,
            chaos=self.chaos,
        )

    # -- failure path ------------------------------------------------------

    def _on_slot_failed(
        self, slot: WorkerSlot, task: Optional["Task"], reason: str
    ) -> None:
        """A worker died — work exception, timeout, chaos, or ``"died"``
        (an exception escaping its own callbacks): the simulator's crash
        path, with the orphans routed through the retry layer."""
        if reason == "timeout":
            self.task_timeouts += 1
        elif reason == "died":
            self.registry.counter(
                "pool_slot_callback_errors_total", pool=self.function).inc()
        self._unreplaced_failures += 1
        self._on_container_crashed(slot, task, reason)

    def _retry_orphan(self, task: "Task", reason: str) -> None:
        if self.retry_manager is not None:
            self.retry_manager.handle_failure(self, task, reason)
        else:
            self.requeue(task)

    def supervise(self, now_ms: Optional[float] = None) -> int:
        """Respawn capacity lost to failures (every control-loop tick).

        One spawn per failure since the last tick, but only while the
        global queue actually backs up beyond current + incoming
        capacity — so supervision never becomes a shadow autoscaler
        that distorts the policies under study.  (Dead slots need no
        reaping here: a slot that fails crashes itself at once.)

        Returns the number of replacement workers spawned.
        """
        respawned = 0
        while self._unreplaced_failures > 0:
            self._unreplaced_failures -= 1
            deficit = self.queue_length - self.free_slots - self.pending_capacity
            if deficit <= 0:
                continue
            respawned += self.spawn(1)
        return respawned

    async def shutdown(self) -> None:
        """Stop every worker and cancel its pending timer (idempotent)."""
        for slot in self.containers:
            slot.shutdown()
