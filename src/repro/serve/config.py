"""Knobs specific to the live serving runtime.

Everything *policy*-related lives in :class:`repro.core.policies
.RMConfig`, and everything that describes the *run* — the fault plan,
slack-aware shedding, the drain bound — on
:class:`repro.scenario.Scenario`, both shared verbatim with the
simulator; :class:`ServeOptions` only holds what exists on a wall clock
and not on a virtual one — time compression, admission control, the
retry policy and durability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.serve.retry import RetryPolicy


@dataclass(frozen=True)
class ServeOptions:
    """Wall-clock runtime options.

    Attributes:
        time_scale: wall seconds per model second (1.0 = real time;
            0.05 runs a 60 s model workload in 3 wall seconds).
        max_pending: admission-control bound — jobs in flight beyond
            this are shed at the gateway (the request still counts
            against the SLO-violation rate; dropping load must not
            launder the metrics).  ``0`` disables shedding.
        executor_workers: cap on the work lane's threads (the threads
            that run a work function, :class:`~repro.serve.pool
            .WorkLane`; they start lazily, only when none is idle); 0
            sizes it to the cluster's container capacity (the hardware
            concurrency bound the simulator models via placement).
        retry: what happens to a task after a failed attempt (crash,
            timeout, killed worker) — see :class:`~repro.serve.retry
            .RetryPolicy`.
        journal_dir: durability master switch.  When set, the runtime
            write-ahead-journals every request event to
            ``<journal_dir>/journal.jsonl``, checkpoints control-plane
            state there, and can recover from control-plane crashes.
            ``None`` (default) keeps the exact pre-durability path.
        checkpoint_interval_ms: model-ms between control-plane
            snapshots (only meaningful with ``journal_dir``).
        drain_grace_ms: drain budget on *interrupted* shutdown
            (SIGTERM/SIGINT): in-flight jobs get this much model time
            to finish before the runtime flushes the journal, writes a
            final checkpoint and reports.  ``None`` falls back to the
            run's ``drain_ms``.
        heartbeat_interval_ms: model-ms between liveness beats written
            to ``<journal_dir>/heartbeat-0.json``.  ``None`` (default)
            writes no heartbeats.  Nothing in the program reads the
            beats any more; the ledger's ``live-durable`` workload sets
            the field, so the writer stays until that workload changes
            (ROADMAP item 6(e)).
    """

    time_scale: float = 1.0
    max_pending: int = 0
    executor_workers: int = 0
    retry: RetryPolicy = RetryPolicy()
    journal_dir: Optional[str] = None
    checkpoint_interval_ms: float = 30_000.0
    drain_grace_ms: Optional[float] = None
    heartbeat_interval_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if self.max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        if self.executor_workers < 0:
            raise ValueError("executor_workers must be >= 0")
        if self.checkpoint_interval_ms <= 0:
            raise ValueError("checkpoint_interval_ms must be positive")
        if self.drain_grace_ms is not None and self.drain_grace_ms < 0:
            raise ValueError("drain_grace_ms must be >= 0")
        if self.heartbeat_interval_ms is not None \
                and self.heartbeat_interval_ms <= 0:
            raise ValueError("heartbeat_interval_ms must be positive")
        if self.heartbeat_interval_ms is not None and not self.journal_dir:
            raise ValueError(
                "heartbeats are written into journal_dir; set one")
