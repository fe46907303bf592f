"""Recurring simulation processes.

The Fifer design is full of fixed-interval activities — the 10 s load
monitor, the proactive predictor tick, idle-container reaping — so the
engine provides one cancellable periodic helper: a
:class:`CoalescedTicker` multiplexes any number of same-interval bodies
onto a single timer event, so N tenants/pools cost one heap entry per
interval instead of N (and a lone monitor is simply its only
subscriber).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.sim.engine import Event, Simulator


class TickerSubscription:
    """One body registered on a :class:`CoalescedTicker`.

    The handle a periodic body is stopped through (``stop()`` /
    ``stopped`` / ``ticks``); the caller need not know whether the
    ticker underneath is private or shared.
    """

    __slots__ = ("_ticker", "_body", "_stopped", "ticks")

    def __init__(self, ticker: "CoalescedTicker", body: Callable[[float], None]) -> None:
        self._ticker = ticker
        self._body = body
        self._stopped = False
        self.ticks = 0

    def stop(self) -> None:
        """Unsubscribe; the shared timer dies with its last subscriber."""
        if not self._stopped:
            self._stopped = True
            self._ticker._remove(self)

    @property
    def stopped(self) -> bool:
        return self._stopped


class CoalescedTicker:
    """One periodic timer event shared by many same-interval bodies.

    Periodic machinery dominates idle stretches of large simulations:
    every tenant's monitor, every reap pass and the energy sampler all
    fire on the same cadence, and a timer apiece would pay a heap
    push/pop per body per tick.  A coalesced ticker schedules *one*
    event per interval and fans it out to every subscriber in
    registration order (deterministic), so the per-tick heap cost is
    O(1) regardless of tenant/pool count.

    The timer is lazy: it starts with the first subscription and
    cancels itself when the last subscriber stops.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        *,
        priority: int = 0,
        label: str = "ticker",
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._sim = sim
        self.interval = interval
        self._priority = priority
        self._label = label
        self._subs: List[TickerSubscription] = []
        self._next: Optional[Event] = None
        self.ticks = 0

    def add(self, body: Callable[[float], None]) -> TickerSubscription:
        """Register *body* to run every interval; returns its handle."""
        sub = TickerSubscription(self, body)
        self._subs.append(sub)
        if self._next is None:
            self._next = self._sim.schedule(
                self.interval, self._tick, priority=self._priority,
                label=self._label,
            )
        return sub

    def _remove(self, sub: TickerSubscription) -> None:
        self._subs = [s for s in self._subs if s is not sub]
        if not self._subs and self._next is not None:
            self._sim.cancel(self._next)
            self._next = None

    def _tick(self) -> None:
        self._next = None
        if not self._subs:
            return
        self.ticks += 1
        now = self._sim.now
        # Snapshot: a body stopping itself (or a sibling) mid-tick must
        # not shift its neighbours' slots this round.
        for sub in list(self._subs):
            if not sub._stopped:
                sub.ticks += 1
                sub._body(now)
        if self._subs and self._next is None:
            self._next = self._sim.schedule(
                self.interval, self._tick, priority=self._priority,
                label=self._label,
            )

    @property
    def subscribers(self) -> int:
        return len(self._subs)
