"""Tests for the discrete-event simulation engine."""

import pytest

from repro.sim.engine import Event, EventQueue, SimulationError, Simulator
from repro.sim.process import CoalescedTicker


class TestEventQueue:
    def test_pop_orders_by_time(self):
        q = EventQueue()
        fired = []
        for t in [30.0, 10.0, 20.0]:
            q.push(Event(time=t, callback=lambda: None))
        times = [q.pop().time for _ in range(3)]
        assert times == [10.0, 20.0, 30.0]

    def test_same_time_orders_by_priority(self):
        q = EventQueue()
        low = Event(time=5.0, priority=1)
        high = Event(time=5.0, priority=0)
        q.push(low)
        q.push(high)
        assert q.pop() is high
        assert q.pop() is low

    def test_same_time_same_priority_is_fifo(self):
        q = EventQueue()
        first = Event(time=5.0)
        second = Event(time=5.0)
        q.push(first)
        q.push(second)
        assert q.pop() is first
        assert q.pop() is second

    def test_pop_skips_cancelled(self):
        q = EventQueue()
        a = Event(time=1.0)
        b = Event(time=2.0)
        q.push(a)
        q.push(b)
        a.cancel()
        q.notify_cancel()
        assert q.pop() is b

    def test_len_tracks_live_events(self):
        q = EventQueue()
        a = q.push(Event(time=1.0))
        q.push(Event(time=2.0))
        assert len(q) == 2
        a.cancel()
        q.notify_cancel()
        assert len(q) == 1

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        a = q.push(Event(time=1.0))
        q.push(Event(time=2.0))
        a.cancel()
        q.notify_cancel()
        assert q.peek_time() == 2.0

    def test_empty_pop_returns_none(self):
        q = EventQueue()
        assert q.pop() is None
        assert q.peek_time() is None


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_and_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(sim.now))
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0, 10.0]

    def test_schedule_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_in_past_raises(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_run_until_advances_clock_to_until(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        final = sim.run(until=100.0)
        assert final == 100.0
        assert sim.now == 100.0

    def test_run_until_does_not_execute_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("early"))
        sim.schedule(50.0, lambda: fired.append("late"))
        sim.run(until=10.0)
        assert fired == ["early"]
        # Later event still pending and fires on the next run.
        sim.run(until=100.0)
        assert fired == ["early", "late"]

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(10.0, chain)

        sim.schedule(10.0, chain)
        sim.run()
        assert fired == [10.0, 20.0, 30.0]

    def test_cancel_prevents_execution(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10.0, lambda: fired.append(1))
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(10.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert sim.pending() == 0

    def test_stop_halts_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [(1, None)] or len(fired) == 1

    def test_max_events_limit(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(max_events=3)
        assert sim.events_executed == 3

    def test_not_reentrant(self):
        sim = Simulator()
        error = {}

        def recurse():
            try:
                sim.run()
            except SimulationError as exc:
                error["raised"] = exc

        sim.schedule(1.0, recurse)
        sim.run()
        assert "raised" in error

    def test_priority_orders_same_time_callbacks(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append("low"), priority=5)
        sim.schedule(10.0, lambda: fired.append("high"), priority=0)
        sim.run()
        assert fired == ["high", "low"]

    def test_determinism_across_runs(self):
        def build_and_run():
            sim = Simulator()
            order = []
            for i in range(50):
                sim.schedule((i * 7) % 13 + 0.5, lambda i=i: order.append(i))
            sim.run()
            return order

        assert build_and_run() == build_and_run()


class TestPeriodicProcess:
    """A periodic process is a :class:`CoalescedTicker` with a single
    subscriber (what ``ServerlessSystem.attach`` runs its monitor on)."""

    @staticmethod
    def periodic(sim, interval, body):
        return CoalescedTicker(sim, interval, label="monitor").add(body)

    def test_fires_every_interval(self):
        # First tick one full interval in, never at t=0.
        sim = Simulator()
        ticks = []
        self.periodic(sim, 10.0, ticks.append)
        sim.run(until=35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_stop_prevents_further_ticks(self):
        sim = Simulator()
        ticks = []
        proc = self.periodic(sim, 10.0, ticks.append)
        sim.schedule(15.0, proc.stop)
        sim.run(until=100.0)
        assert ticks == [10.0]
        assert proc.stopped

    def test_body_can_stop_itself(self):
        sim = Simulator()
        ticks = []
        proc = self.periodic(
            sim, 10.0, lambda now: (ticks.append(now), proc.stop())
        )
        sim.run(until=100.0)
        assert len(ticks) == 1

    def test_invalid_interval_raises(self):
        sim = Simulator()
        for interval in (0.0, -5.0):
            with pytest.raises(ValueError):
                CoalescedTicker(sim, interval)

    def test_tick_count(self):
        sim = Simulator()
        proc = self.periodic(sim, 5.0, lambda now: None)
        sim.run(until=52.0)
        assert proc.ticks == 10
