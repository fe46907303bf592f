"""Live worker pools: wall-clock "containers" behind the sim's pool API.

A :class:`WorkerSlot` *is* a :class:`repro.cluster.container.Container`:
the cold start, the batch-size local queue, one execution at a time,
the exec-time-then-fate draw order and every counter are the
simulator's own state machine running against the scaled wall clock.
The slot overrides only how one execution is launched and settled: the
work runs on a thread-pool executor, its done-callback hops back to the
event loop, and one timer enforces the execution timeout.  There is no
per-slot coroutine — the slot lives entirely in loop callbacks.

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
import time
from concurrent.futures import Executor, Future
from functools import partial
from typing import Callable, Optional, TYPE_CHECKING

from repro.cluster.container import Container, ContainerState, DEAD_STATES
from repro.serve.clock import ScaledClock
from repro.serve.faults import ChaosInjector, FATE_CRASH, FATE_HANG
from repro.serve.retry import RetryManager
from repro.workflow.pool import FunctionPool

if TYPE_CHECKING:  # pragma: no cover
    from repro.workflow.job import Task

logger = logging.getLogger(__name__)

#: Executed on the executor for each task: (task, wall_seconds).  The
#: default models opaque blocking work by sleeping; deployments plug in
#: real handlers here.
WorkFn = Callable[["Task", float], None]

#: Wall-clock grace added to every per-task execution timeout: it
#: absorbs executor queueing and event-loop jitter, which compressed
#: clocks would otherwise amplify into false hang verdicts.
TIMEOUT_FLOOR_WALL_S = 1.0


def default_work(task: "Task", wall_s: float) -> None:
    """Stand-in for the microservice's real work: block for its span."""
    if wall_s > 0:
        time.sleep(wall_s)


class WorkerSlot(Container):
    """One live worker: the container state machine on the event loop.

    All mutation happens on the event-loop thread, inside callbacks that
    run through :meth:`_guarded`; the executor only runs the opaque work
    function.  At most one timer is pending per slot — the cold start,
    then per execution the timeout (or the chaos crash point).
    """

    def __init__(
        self,
        clock: ScaledClock,
        executor: Executor,
        work: Optional[WorkFn] = None,
        stage_slack_ms: float = 0.0,
        chaos: Optional[ChaosInjector] = None,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        **container,
    ) -> None:
        self.clock = clock
        self.executor = executor
        self._work = work or default_work
        self.stage_slack_ms = stage_slack_ms
        self.chaos = chaos
        self._loop = loop or asyncio.get_running_loop()
        self._future: Optional[Future] = None
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
        if self._future is not None:
            # Only work still queued on the executor can be cancelled; a
            # running (hung) handler keeps its thread, like a real one.
            self._future.cancel()

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
            self._call_later(
                exec_ms * self.chaos.crash_point, self._settle, task, "crash"
            )
            return
        self._timer = self._loop.call_later(
            self._timeout_wall_s(task, exec_ms),
            self._guarded, self._settle, task, "timeout",
        )
        if fate == FATE_HANG:
            # The work never returns; only the execution timeout
            # recovers the slot.
            return
        self._future = self.executor.submit(
            self._work, task, self.clock.to_wall_s(exec_ms)
        )
        self._future.add_done_callback(partial(self._work_done, task))

    def _work_done(self, task: "Task", future: Future) -> None:
        """Executor thread: hand the outcome back to the event loop."""
        if self.state in DEAD_STATES:
            return  # nobody owns this execution any more
        failed = not future.cancelled() and future.exception() is not None
        try:
            self._loop.call_soon_threadsafe(
                self._guarded, self._settle, task, "error" if failed else None
            )
        except RuntimeError:
            pass  # the loop is closed: the run is over

    def _owns(self, task: "Task") -> bool:
        """True while this slot still owns *task*'s execution.  A node
        kill (``fail_node``) clears ``current_task`` and terminates the
        slot after requeueing the task elsewhere — from then on any
        local completion or failure must be discarded."""
        return self.current_task is task and self.state not in DEAD_STATES

    def _settle(self, task: "Task", failure: Optional[str]) -> None:
        """*task*'s execution ended: the work returned (``None``), raised
        (``"error"``), was crashed by chaos or ran out of time."""
        if not self._owns(task):
            return
        self._cancel_pending()
        if failure is None:
            self._complete()
        else:
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
        executor: Executor,
        work: Optional[WorkFn] = None,
        retry_manager: Optional[RetryManager] = None,
        chaos: Optional[ChaosInjector] = None,
        **kwargs,
    ) -> None:
        super().__init__(sim=clock, **kwargs)
        self.clock = clock
        self.executor = executor
        self.work = work
        self.retry_manager = retry_manager
        self.chaos = chaos
        #: Failures whose capacity the supervisor has not yet replaced.
        self._unreplaced_failures = 0

    def _make_container(self, node, cold_start_ms: float) -> WorkerSlot:
        return WorkerSlot(
            clock=self.clock,
            executor=self.executor,
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
