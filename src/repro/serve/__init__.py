"""Live asyncio serving runtime — Fifer policies on the wall clock.

The simulator (:mod:`repro.sim`, :mod:`repro.runtime`) runs every policy
decision on a virtual clock.  This package is the other half of the
paper's evaluation (§5.1's Kubernetes/Brigade prototype): an asyncio
control plane that serves *real* requests in wall-clock time using the
same, unmodified Fifer bricks —

* :class:`~repro.serve.gateway.Gateway` admits jobs (with backpressure
  and load shedding) and walks each one through its chain;
* :class:`~repro.serve.pool.WorkerPool` holds per-microservice worker
  slots ("containers") that pay a cold-start delay, batch requests into
  slack-derived local queues and run work functions on a
  :class:`~repro.serve.pool.WorkLane`;
* :class:`~repro.serve.control.ControlLoop` samples queue delay and
  arrival rate on the monitoring cadence and drives the *simulator's
  own* scalers (:mod:`repro.core.scaling`) to spawn and reap workers;
* :class:`~repro.serve.replayer.TraceReplayer` replays any
  :class:`~repro.traces.base.ArrivalTrace` on the (scaled) wall clock;
* the metrics bridge is :class:`~repro.metrics.collector
  .MetricsCollector` itself — a live run finalizes into the same
  :class:`~repro.metrics.collector.RunResult` as a simulation, so every
  SLO/latency/container report works unchanged.

``time_scale`` compresses model time (a scale of 0.1 runs a 60 s model
workload in 6 wall seconds) so sim-vs-live parity checks stay cheap.
"""

from repro.serve.checkpoint import CheckpointManager
from repro.serve.clock import ScaledClock
from repro.serve.config import ServeOptions
from repro.serve.faults import ChaosInjector
from repro.serve.gateway import Gateway
from repro.serve.journal import (
    JournalLockedError,
    RequestJournal,
    journal_basename,
)
from repro.serve.pool import WorkerPool, WorkerSlot, WorkLane
from repro.serve.recovery import (
    JournaledJob,
    RecoveryPlan,
    build_recovery_plan,
    replay_journal,
)
from repro.serve.replayer import PlannedArrival, TraceReplayer
from repro.serve.retry import (
    DeadLetterQueue,
    RetryManager,
    RetryPolicy,
)
from repro.serve.runtime import ServingRuntime, serve_trace

__all__ = [
    "ChaosInjector",
    "CheckpointManager",
    "DeadLetterQueue",
    "Gateway",
    "JournaledJob",
    "JournalLockedError",
    "PlannedArrival",
    "RecoveryPlan",
    "RequestJournal",
    "RetryManager",
    "RetryPolicy",
    "ScaledClock",
    "ServeOptions",
    "ServingRuntime",
    "TraceReplayer",
    "WorkLane",
    "WorkerPool",
    "WorkerSlot",
    "build_recovery_plan",
    "journal_basename",
    "replay_journal",
    "serve_trace",
]
