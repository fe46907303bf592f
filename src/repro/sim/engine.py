"""Core discrete-event simulator.

Time is a float in **milliseconds**.  Events are totally ordered by
``(time, priority, seq)`` where ``seq`` is a monotonically increasing
tiebreaker, which makes runs fully deterministic for a fixed seed and
insertion order.

Fast-path notes (DESIGN.md section 10): the run loop pops the next
ready event in a single heap traversal (no separate peek), the queue
compacts itself when cancelled entries dominate the heap, and sorted
bulk arrival arrays can be injected through one self-rescheduling
cursor event (:meth:`Simulator.schedule_stream`) instead of N
pre-scheduled events — keeping the heap small so every push/pop stays
cheap.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly."""


class Event:
    """A single scheduled callback.

    Attributes:
        time: absolute simulation time in milliseconds.
        priority: lower fires first among same-time events.
        seq: insertion tiebreaker (assigned by the queue).
        callback: zero-argument callable invoked when the event fires.
        cancelled: a cancelled event stays in the heap but is skipped.

    Ordering lives in the queue's heap entries (plain tuples compare in
    C), not on the event object — event comparison in Python was the
    single hottest path of large simulations.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled", "label")

    def __init__(
        self,
        time: float,
        priority: int = 0,
        callback: Optional[Callable[[], None]] = None,
        label: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = -1
        self.callback = callback
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        """Mark this event so the engine skips it when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Event t={self.time} prio={self.priority} {self.label!r}>"


#: Compaction threshold: rebuild the heap once cancelled entries exceed
#: half of it (and the heap is big enough for the rebuild to matter).
_COMPACT_MIN_HEAP = 64


class EventQueue:
    """A cancellable binary-heap event queue.

    Heap entries are ``(time, priority, seq, event)`` tuples so ordering
    comparisons run entirely in C.

    Cancelled events are skipped lazily on pop, but the queue also
    tracks how many cancelled entries it is carrying and compacts
    itself (rebuilding the heap without them) once they exceed ~50% of
    the heap — so a workload that cancels heavily (timers, watchdogs,
    speculative retries) cannot degrade every subsequent push/pop with
    an unboundedly bloated heap.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()
        self._live = 0
        self._cancelled = 0
        self.compactions = 0

    def __len__(self) -> int:
        return self._live

    def heap_size(self) -> int:
        """Physical heap entries, including not-yet-reaped cancellations."""
        return len(self._heap)

    def push(self, event: Event) -> Event:
        """Insert *event*, assigning its sequence number. Returns it."""
        event.seq = next(self._counter)
        heapq.heappush(self._heap, (event.time, event.priority, event.seq, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or None."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                if self._cancelled > 0:
                    self._cancelled -= 1
                continue
            self._live -= 1
            return event
        return None

    def pop_ready(self, until: Optional[float] = None) -> Optional[Event]:
        """Pop the earliest live event with ``time <= until``.

        Returns None (leaving the event queued) when the next live event
        lies beyond *until*, or when the queue is empty.  This is the
        run loop's single-traversal fast path: the old loop peeked and
        then popped, walking the heap's cancelled prefix twice per
        event.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            event = head[3]
            if event.cancelled:
                heapq.heappop(heap)
                if self._cancelled > 0:
                    self._cancelled -= 1
                continue
            if until is not None and head[0] > until:
                return None
            heapq.heappop(heap)
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event without removing it, or None."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
            if self._cancelled > 0:
                self._cancelled -= 1
        return self._heap[0][0] if self._heap else None

    def notify_cancel(self) -> None:
        """Account for an externally cancelled event (bookkeeping only)."""
        self._live -= 1
        self._cancelled += 1
        if (
            len(self._heap) >= _COMPACT_MIN_HEAP
            and self._cancelled * 2 > len(self._heap)
        ):
            self.compact()

    def compact(self) -> int:
        """Drop every cancelled entry and re-heapify; returns drop count.

        Entries are ``(time, priority, seq, event)`` tuples, so the
        rebuilt heap pops in exactly the order the lazy-skip path would
        have produced.
        """
        before = len(self._heap)
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
        dropped = before - len(self._heap)
        if dropped:
            self.compactions += 1
        return dropped


class _StreamCursor:
    """State of one bulk-injected event stream (see ``schedule_stream``).

    A stream replays a *sorted* array of times through a single cursor
    event: when the cursor fires it first re-schedules itself at the
    next timestamp (keeping its seq as low as possible, close to the
    pre-scheduled behaviour at ties) and then invokes the callback.
    Only one heap entry exists per stream at any moment, so injecting a
    100k-arrival trace no longer floods the heap and every other heap
    operation keeps its small-log cost.
    """

    __slots__ = ("times", "idx", "callback", "priority", "label",
                 "cancelled", "_sim", "_event")

    def __init__(
        self,
        sim: "Simulator",
        times: Sequence[float],
        callback: Callable[[], None],
        priority: int,
        label: str,
    ) -> None:
        self._sim = sim
        self.times = times
        self.idx = 0
        self.callback = callback
        self.priority = priority
        self.label = label
        self.cancelled = False
        self._event: Optional[Event] = sim.schedule_at(
            float(times[0]), self._fire, priority=priority, label=label
        )

    @property
    def remaining(self) -> int:
        """Stream entries not yet fired."""
        return len(self.times) - self.idx if not self.cancelled else 0

    def _fire(self) -> None:
        if self.cancelled:
            return
        i = self.idx
        self.idx = i + 1
        if self.idx < len(self.times):
            self._event = self._sim.schedule_at(
                float(self.times[self.idx]),
                self._fire,
                priority=self.priority,
                label=self.label,
            )
        else:
            self._event = None
        self.callback()

    def cancel(self) -> None:
        """Stop the stream; the pending cursor event is cancelled."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None


class Simulator:
    """Drives the virtual clock by executing events in time order.

    Typical use::

        sim = Simulator()
        sim.schedule(10.0, lambda: print("at t=10ms"))
        sim.run(until=1000.0)
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._stopped = False
        self.events_executed = 0

    @property
    def now(self) -> float:
        """Current simulation time in milliseconds."""
        return self._now

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule *callback* to run ``delay`` ms from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, priority=priority, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule *callback* at an absolute time (must be >= now)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        event = Event(time=time, priority=priority, callback=callback, label=label)
        return self._queue.push(event)

    def schedule_stream(
        self,
        times: Sequence[float],
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "stream",
    ) -> Optional[_StreamCursor]:
        """Lazily inject a sorted bulk of event times via one cursor.

        *times* must be non-decreasing (an arrival-trace array); each
        entry invokes *callback* once at that absolute time.  Compared
        with pre-scheduling ``len(times)`` events this keeps exactly one
        heap entry live per stream, so the heap stays small for the
        whole run.  Returns a cursor handle with ``cancel()`` and
        ``remaining``, or None for an empty *times*.
        """
        n = len(times)
        if n == 0:
            return None
        first = float(times[0])
        if first < self._now:
            raise SimulationError(
                f"stream starts at t={first} before now={self._now}"
            )
        return _StreamCursor(self, times, callback, priority, label)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        if not event.cancelled:
            event.cancel()
            self._queue.notify_cancel()

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Execute events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the final clock value.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so periodic measurements can
        rely on a full window.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        self._stopped = False
        pop_ready = self._queue.pop_ready
        executed = self.events_executed
        try:
            while not self._stopped:
                if max_events is not None and executed >= max_events:
                    break
                event = pop_ready(until)
                if event is None:
                    break
                self._now = event.time
                event.callback()
                executed += 1
            if until is not None and self._now < until and not self._stopped:
                self._now = until
        finally:
            self.events_executed = executed
            self._running = False
        return self._now

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    def heap_size(self) -> int:
        """Physical event-heap size (diagnostics / perf harness)."""
        return self._queue.heap_size()


def run_simulation(setup: Callable[[Simulator], Any], until: float) -> Simulator:
    """Convenience: build a simulator, call ``setup(sim)``, run to *until*."""
    sim = Simulator()
    setup(sim)
    sim.run(until=until)
    return sim


# --------------------------------------------------------------------------
# Engine selection (DESIGN.md section 13)
#
# Two interchangeable engines drive a run:
#   * "fast"   — the event loop above, arrivals injected through the
#     bulk stream cursor (default);
#   * "vector" — the SoA batch engine in repro.runtime.vector, which
#     replaces the Simulator entirely with a flat tuple heap and an
#     epoch-driven run loop.
# Both produce bit-identical RunResult summaries (asserted by
# tests/test_vector_parity.py).

ENGINE_FAST = "fast"
ENGINE_VECTOR = "vector"
ENGINES = (ENGINE_FAST, ENGINE_VECTOR)


def resolve_engine(engine: Optional[str]) -> str:
    """Map an ``engine=`` override (or None) to a concrete engine name."""
    if engine is None:
        return ENGINE_FAST
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


class FlatClock:
    """Minimal read-only ``Simulator`` facade for the vector engine.

    The vector engine has no :class:`Simulator`; after a run it installs
    one of these as ``system.sim`` so downstream consumers (the perf
    harness, result finalization) can keep reading ``sim.now`` and
    ``sim.events_executed`` regardless of which engine ran.
    """

    __slots__ = ("_now", "events_executed")

    def __init__(self, now: float = 0.0, events_executed: int = 0) -> None:
        self._now = now
        self.events_executed = events_executed

    @property
    def now(self) -> float:
        return self._now
