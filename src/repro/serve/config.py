"""Knobs specific to the live serving runtime.

Everything *policy*-related lives in :class:`repro.core.policies
.RMConfig`, shared verbatim with the simulator; :class:`ServeOptions`
only holds what exists on a wall clock and not on a virtual one —
time compression, admission control, drain behaviour, the retry policy
and the chaos-injection plan (:class:`FaultConfig`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.faults import FaultTimeline
from repro.serve.retry import RetryPolicy


@dataclass(frozen=True)
class FaultConfig:
    """Unified chaos-injection plan for a live run.

    The same fault models the simulator uses
    (:class:`repro.cluster.faults.ContainerFaultModel`,
    :class:`~repro.cluster.faults.RegistryDegradation`,
    :func:`~repro.cluster.faults.fail_node`) are wired into the live
    runtime from this config, so sim and live runs inject *identical*
    failures and the parity test can run in chaos mode.

    Attributes:
        crash_prob: per-task probability that the executing worker
            crashes partway through (work lost, task retried).
        crash_point: fraction of the execution time at which the crash
            manifests.
        hang_prob: per-task probability that the work hangs forever;
            only the per-task execution timeout can recover it
            (live-only — the simulator has no notion of a hang).
        timeline: every *scripted* fault of the run
            (:class:`~repro.cluster.faults.FaultTimeline`), replayed on
            the scaled clock by :func:`repro.serve.faults.replay_faults`;
            ``crash-gateway``, ``crash-control`` and ``kill-shard``
            recover from the WAL and so require a journal dir.
    """

    crash_prob: float = 0.0
    crash_point: float = 0.5
    hang_prob: float = 0.0
    timeline: FaultTimeline = FaultTimeline()

    def __post_init__(self) -> None:
        if not 0.0 <= self.crash_prob <= 1.0:
            raise ValueError("crash_prob must be within [0, 1]")
        if not 0.0 < self.crash_point <= 1.0:
            raise ValueError("crash_point must be in (0, 1]")
        if not 0.0 <= self.hang_prob <= 1.0:
            raise ValueError("hang_prob must be within [0, 1]")

    @property
    def any_faults(self) -> bool:
        return (
            self.crash_prob > 0.0
            or self.hang_prob > 0.0
            or bool(self.timeline.of("brownout", "kill-workers"))
        )


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
        drain_timeout_ms: model-ms bound on the graceful-drain wait for
            in-flight jobs after the trace ends.
        executor_workers: thread-pool size for executing task work; 0
            sizes it to the cluster's container capacity (the hardware
            concurrency bound the simulator models via placement).
        retry: what happens to a task after a failed attempt (crash,
            timeout, killed worker) — see :class:`~repro.serve.retry
            .RetryPolicy`.
        faults: the chaos-injection plan (defaults to no faults).
        shed_expired: deadline-aware shedding — beyond ``max_pending``
            backpressure, the gateway also sheds arrivals whose
            residual slack is already negative given the first stage's
            monitored queueing delay (the job cannot meet its SLO, so
            admitting it only burns capacity).
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
            final checkpoint and reports.  ``None`` falls back to
            ``drain_timeout_ms``.
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
    drain_timeout_ms: float = 120_000.0
    executor_workers: int = 0
    retry: RetryPolicy = RetryPolicy()
    faults: FaultConfig = FaultConfig()
    shed_expired: bool = False
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
        if self.drain_timeout_ms < 0:
            raise ValueError("drain_timeout_ms must be >= 0")
        if self.executor_workers < 0:
            raise ValueError("executor_workers must be >= 0")
        if self.timeout_floor_wall_s < 0:
            raise ValueError("timeout_floor_wall_s must be >= 0")
        if self.checkpoint_interval_ms <= 0:
            raise ValueError("checkpoint_interval_ms must be positive")
        if self.drain_grace_ms is not None and self.drain_grace_ms < 0:
            raise ValueError("drain_grace_ms must be >= 0")
        if not self.journal_dir and self.faults.timeline.of(
                "crash-gateway", "crash-control", "kill-shard"):
            raise ValueError(
                "control-plane and shard crash injection requires "
                "journal_dir (there is nothing to recover from otherwise)"
            )
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
