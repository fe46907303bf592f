"""Discrete-event simulation engine.

The engine is deliberately small and dependency-free: a priority queue of
timestamped events, a virtual millisecond clock, and a handful of helpers
(periodic processes, cancellable timers).  Everything else in :mod:`repro`
— containers, queues, load monitors, predictors — is built as callbacks
scheduled on this engine, mirroring the "high-fidelity event-driven
simulator" of the Fifer paper (section 5.2).
"""

from repro.sim.engine import Event, EventQueue, Simulator
from repro.sim.process import CoalescedTicker, TickerSubscription

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "CoalescedTicker",
    "TickerSubscription",
]
