"""Simulator fast-path tests: EventQueue invariants under cancellation
churn and ``later`` timers (hypothesis), both engines' early-exit
container selection, heap-compaction guards, bulk-arrival stream
cursors, and coalesced tickers."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.container import ContainerState
from repro.runtime.vector import (
    S_BUSY, S_DEAD, S_IDLE, S_SPAWNING, VectorContainer, _least_free,
)
from repro.sim.engine import Event, EventQueue, SimulationError, Simulator
from repro.sim.process import CoalescedTicker
from repro.workflow.pool import FunctionPool


def _push(queue, time, priority=0):
    return queue.push(Event(time=time, priority=priority))


def _cancel(queue, event):
    """Cancel the way Simulator.cancel does: mark + notify."""
    event.cancel()
    queue.notify_cancel()


# Each op is (time, priority, cancel_flag); the queue sees pushes in
# list order interleaved with cancellations of flagged events.
_ops = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        st.integers(min_value=-3, max_value=3),
        st.booleans(),
    ),
    min_size=1,
    max_size=200,
)

# Simulator ops: (kind, time, priority, cancel_flag); a ``later`` timer
# takes priority 0 and cannot be cancelled.
_sim_ops = st.lists(
    st.tuples(
        st.sampled_from(("later", "at")),
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        st.integers(min_value=-3, max_value=3),
        st.booleans(),
    ),
    min_size=1,
    max_size=200,
)


class TestEventQueueProperties:
    @given(_ops)
    @settings(max_examples=120, deadline=None)
    def test_pop_order_and_len_under_cancellation(self, ops):
        queue = EventQueue()
        survivors = []
        for time, priority, cancel in ops:
            event = _push(queue, time, priority)
            if cancel:
                _cancel(queue, event)
            else:
                survivors.append(event)
        assert len(queue) == len(survivors)
        popped = []
        while queue:
            popped.append(queue.pop())
        # Total order: (time, priority, seq) ascending — exactly the
        # surviving events, each exactly once.
        keys = [(e.time, e.priority, e.seq) for e in popped]
        assert keys == sorted(keys)
        assert [e.seq for e in popped] == sorted(
            e.seq for e in survivors
        ) or len(popped) == len(survivors)
        assert {id(e) for e in popped} == {id(e) for e in survivors}
        assert len(queue) == 0
        assert queue.pop() is None

    @given(_ops)
    @settings(max_examples=60, deadline=None)
    def test_forced_compaction_preserves_pop_order(self, ops):
        plain, compacted = EventQueue(), EventQueue()
        for time, priority, cancel in ops:
            for queue in (plain, compacted):
                event = _push(queue, time, priority)
                if cancel:
                    _cancel(queue, event)
            compacted.compact()  # compact after every op: worst case
        a = [e.seq for e in iter(plain.pop, None)]
        b = [e.seq for e in iter(compacted.pop, None)]
        assert a == b

    @given(_sim_ops, st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
           st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_later_interleaves_in_key_order(self, ops, until, force_compact):
        """``later`` timers, ``schedule_at`` events and cancellations fire
        in ``(time, priority, seq)`` order; ``pending()`` and
        ``events_executed`` count only live or fired entries."""
        sim = Simulator()
        fired, live = [], []
        for seq, (kind, time, priority, cancel) in enumerate(ops):
            if kind == "later":
                sim.later(time, fired.append, seq)
                live.append((time, 0, seq))
            else:
                event = sim.schedule_at(
                    time, lambda seq=seq: fired.append(seq), priority=priority)
                if cancel:
                    sim.cancel(event)
                else:
                    live.append((time, priority, seq))
            if force_compact:
                sim._queue.compact()
        live.sort()
        assert sim.pending() == len(live)
        sim.run(until=until)
        due = [seq for time, _, seq in live if time <= until]
        assert fired == due
        assert sim.events_executed == len(due)
        assert sim.pending() == len(live) - len(due)
        sim.run()
        assert fired == [seq for _, _, seq in live]
        assert sim.events_executed == len(live)
        assert sim.pending() == 0

    @given(_ops)
    @settings(max_examples=60, deadline=None)
    def test_peek_time_matches_next_pop(self, ops):
        queue = EventQueue()
        events = []
        for time, priority, cancel in ops:
            event = _push(queue, time, priority)
            if cancel:
                _cancel(queue, event)
            else:
                events.append(event)
        while queue:
            head = queue.peek_time()
            event = queue.pop()
            assert head == event.time


# One container: (state, batch size, tasks in its local queue, executing?,
# id gap to the previous container).  Queues may exceed the batch (full).
_containers = st.lists(
    st.tuples(
        st.sampled_from(list(ContainerState)),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.booleans(),
        st.integers(min_value=1, max_value=3),
    ),
    max_size=30,
)


class TestGreedySelection:
    @given(_containers)
    @settings(max_examples=200, deadline=None)
    def test_early_exit_equals_full_scan(self, specs):
        """Stopping at the first container with one free slot, reading
        each container's ``free`` tally, picks what the full scan picks:
        least free slots, then lowest id, among ready containers with a
        free slot."""
        containers, container_id = [], 0
        for state, batch, queued, busy, gap in specs:
            container_id += gap  # pools list containers by ascending id
            containers.append(SimpleNamespace(
                container_id=container_id, state=state, batch_size=batch,
                local_queue=[None] * queued,
                current_task=object() if busy else None,
                free=batch - queued - busy))

        def free(c):
            return c.batch_size - len(c.local_queue) - (c.current_task is not None)

        ready = [c for c in containers
                 if c.state in (ContainerState.IDLE, ContainerState.BUSY)
                 and free(c) > 0]
        expected = min(ready, key=lambda c: (free(c), c.container_id),
                       default=None)
        pool = SimpleNamespace(containers=containers)
        assert FunctionPool._select_container(pool) is expected

    @given(_containers)
    @settings(max_examples=200, deadline=None)
    def test_vector_scan_equals_full_scan(self, specs):
        """The vector engine's scan, reading each container's ``free``
        tally, picks what the full scan picks: least free slots, then
        first in list order, among ready containers with a free slot."""
        as_int = {
            ContainerState.SPAWNING: S_SPAWNING, ContainerState.IDLE: S_IDLE,
            ContainerState.BUSY: S_BUSY, ContainerState.CRASHED: S_DEAD,
            ContainerState.TERMINATED: S_DEAD,
        }
        containers = []
        for cid, (state, batch, queued, busy, _) in enumerate(specs):
            c = VectorContainer(cid, batch, None, None, 0.0, 0.0)
            c.state = as_int[state]
            c.lq.extend([(0, 0)] * queued)
            c.cur_r = 0 if busy else -1
            c.free = batch - queued - busy
            containers.append(c)

        def free(c):
            return c.batch - len(c.lq) - (c.cur_r >= 0)

        ready = [c for c in containers
                 if c.state in (S_IDLE, S_BUSY) and free(c) > 0]
        expected = min(ready, key=lambda c: (free(c), c.cid), default=None)
        assert _least_free(containers) is expected


class TestCompactionGuard:
    def test_mass_cancellation_shrinks_heap(self):
        """10k cancels must not leave 10k dead entries in the heap."""
        queue = EventQueue()
        keeper = _push(queue, 1e9)
        cancelled = [_push(queue, float(i)) for i in range(10_000)]
        for event in cancelled:
            _cancel(queue, event)
        assert len(queue) == 1
        # Compaction kicked in: the heap holds nowhere near 10k dead
        # entries (the invariant is cancelled <= ~half the heap).
        assert queue.heap_size() < 100
        assert queue.compactions >= 1
        assert queue.pop() is keeper

    def test_small_heaps_skip_compaction(self):
        queue = EventQueue()
        events = [_push(queue, float(i)) for i in range(10)]
        for event in events[:8]:
            _cancel(queue, event)
        assert queue.compactions == 0  # below the 64-entry threshold
        assert [e.time for e in iter(queue.pop, None)] == [8.0, 9.0]

    def test_pop_path_decrements_cancelled_debt(self):
        queue = EventQueue()
        events = [_push(queue, float(i)) for i in range(100)]
        for event in events[:30]:  # below the >50% trigger
            _cancel(queue, event)
        while queue:
            queue.pop()
        # Lazy skipping settled the debt; a later compact drops nothing.
        assert queue.compact() == 0

    def test_simulator_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule_at(5.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert len(sim._queue) == 0


class TestScheduleStream:
    def test_stream_fires_each_time_once_in_order(self):
        sim = Simulator()
        times = np.array([1.0, 2.0, 2.0, 5.5, 9.0])
        fired = []
        sim.schedule_stream(times, lambda: fired.append(sim.now))
        sim.run()
        assert fired == list(times)

    def test_heap_stays_small_for_large_streams(self):
        sim = Simulator()
        times = np.arange(10_000, dtype=float)
        seen = []
        cursor = sim.schedule_stream(times, lambda: seen.append(sim.now))
        assert sim.heap_size() == 1  # one cursor event, not 10k
        sim.run(until=4999.0)
        assert len(seen) == 5000
        assert cursor.remaining == 5000
        assert sim.heap_size() <= 2

    def test_stream_interleaves_with_scheduled_events(self):
        sim = Simulator()
        order = []
        sim.schedule_stream(
            np.array([1.0, 3.0]), lambda: order.append(("stream", sim.now))
        )
        sim.schedule_at(2.0, lambda: order.append(("event", sim.now)))
        sim.run()
        assert order == [("stream", 1.0), ("event", 2.0), ("stream", 3.0)]

    def test_cancel_stops_future_firings(self):
        sim = Simulator()
        fired = []
        cursor = sim.schedule_stream(
            np.array([1.0, 2.0, 3.0]), lambda: fired.append(sim.now)
        )
        sim.schedule_at(1.5, cursor.cancel)
        sim.run()
        assert fired == [1.0]
        assert cursor.remaining == 0

    def test_empty_and_past_streams(self):
        sim = Simulator()
        assert sim.schedule_stream(np.empty(0), lambda: None) is None
        sim.schedule_at(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_stream(np.array([5.0]), lambda: None)


class TestCoalescedTicker:
    def test_one_timer_many_bodies(self):
        sim = Simulator()
        ticker = CoalescedTicker(sim, 10.0)
        hits = {"a": [], "b": []}
        ticker.add(lambda now: hits["a"].append(now))
        ticker.add(lambda now: hits["b"].append(now))
        assert sim.heap_size() == 1  # both bodies share one event
        sim.run(until=35.0)
        assert hits["a"] == [10.0, 20.0, 30.0]
        assert hits["b"] == [10.0, 20.0, 30.0]

    def test_stop_unsubscribes_and_last_stop_cancels_timer(self):
        sim = Simulator()
        ticker = CoalescedTicker(sim, 10.0)
        ticks = []
        sub_a = ticker.add(lambda now: ticks.append("a"))
        sub_b = ticker.add(lambda now: ticks.append("b"))
        sim.schedule_at(15.0, sub_a.stop)
        sim.schedule_at(25.0, sub_b.stop)
        sim.run(until=100.0)
        assert ticks == ["a", "b", "b"]
        assert ticker.subscribers == 0
        assert len(sim._queue) == 0  # timer cancelled, queue drained

    def test_subscription_counts_ticks(self):
        sim = Simulator()
        ticker = CoalescedTicker(sim, 5.0)
        sub = ticker.add(lambda now: None)
        sim.run(until=17.0)
        assert sub.ticks == 3


