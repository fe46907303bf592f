"""Knobs specific to the live serving runtime.

Everything *policy*-related lives in :class:`repro.core.policies
.RMConfig`, and everything that describes the *run* — the fault plan,
slack-aware shedding, the drain bound — on
:class:`repro.scenario.Scenario`, both shared verbatim with the
simulator; :class:`ServeOptions` only holds what exists on a wall clock
and not on a virtual one — time compression, admission control, the
retry policy, durability and the shard seat.
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
        executor_workers: thread-pool size for executing task work; 0
            sizes it to the cluster's container capacity (the hardware
            concurrency bound the simulator models via placement).
        retry: what happens to a task after a failed attempt (crash,
            timeout, killed worker) — see :class:`~repro.serve.retry
            .RetryPolicy`.
        timeout_floor_wall_s: wall-clock grace added to every per-task
            execution timeout (derived from the stage slack and the
            task's residual slack; a worker whose work function exceeds
            it is declared hung, crashed and its task retried),
            absorbing executor queueing and event-loop jitter
            that compressed clocks would otherwise amplify into false
            hang verdicts.
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
        shard_id / n_shards: identity of this gateway in a sharded
            serving plane (:mod:`repro.shard.live`).  With
            ``n_shards > 1`` the durability artifacts are keyed by
            shard (``journal-<shard_id>.jsonl``,
            ``checkpoint-s<shard_id>-*``) so sibling gateways sharing
            one ``journal_dir`` never touch each other's files.  The
            defaults — shard 0 of 1 — keep the unsharded filenames
            byte-for-byte identical.
        heartbeat_interval_ms: model-ms between liveness beats written
            to ``<journal_dir>/heartbeat-<shard_id>.json``; the sharded
            plane's health monitor declares a silent shard dead from
            the gaps.  ``None`` (default) writes no heartbeats.
        clock_start_ms: model-time origin of the scaled clock.  A
            takeover runtime resumes a dead shard's timeline at the
            declaration instant; 0.0 (default) is the exact normal
            path.
        journal_name / checkpoint_name: override the shard-keyed
            durability basenames (takeover runtimes write
            ``takeover-<dead>-by-<survivor>.jsonl`` next to the
            originals).  ``None`` keeps the standard names.
    """

    time_scale: float = 1.0
    max_pending: int = 0
    executor_workers: int = 0
    retry: RetryPolicy = RetryPolicy()
    timeout_floor_wall_s: float = 1.0
    journal_dir: Optional[str] = None
    checkpoint_interval_ms: float = 30_000.0
    drain_grace_ms: Optional[float] = None
    shard_id: int = 0
    n_shards: int = 1
    heartbeat_interval_ms: Optional[float] = None
    clock_start_ms: float = 0.0
    journal_name: Optional[str] = None
    checkpoint_name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if self.max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        if self.executor_workers < 0:
            raise ValueError("executor_workers must be >= 0")
        if self.timeout_floor_wall_s < 0:
            raise ValueError("timeout_floor_wall_s must be >= 0")
        if self.checkpoint_interval_ms <= 0:
            raise ValueError("checkpoint_interval_ms must be positive")
        if self.drain_grace_ms is not None and self.drain_grace_ms < 0:
            raise ValueError("drain_grace_ms must be >= 0")
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if not 0 <= self.shard_id < self.n_shards:
            raise ValueError(
                f"shard_id {self.shard_id} out of range for "
                f"{self.n_shards} shards"
            )
        if self.heartbeat_interval_ms is not None \
                and self.heartbeat_interval_ms <= 0:
            raise ValueError("heartbeat_interval_ms must be positive")
        if self.heartbeat_interval_ms is not None and not self.journal_dir:
            raise ValueError(
                "heartbeats are written into journal_dir; set one")
        if self.clock_start_ms < 0:
            raise ValueError("clock_start_ms must be >= 0")
