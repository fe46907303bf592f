"""Crash recovery: rebuild the serving control plane from durable state.

Inputs: the latest checkpoint (:mod:`repro.serve.checkpoint`) and the
journal tail (:mod:`repro.serve.journal`).  Output: a
:class:`RecoveryPlan` that partitions every journaled admission into
exactly one of three buckets —

* **requeue** — admitted, no terminal record: the job was in flight
  when the process died.  It is reconstructed (same job id and
  arrival time) and re-enters the chain at its furthest journaled
  stage, paying the ingress transition overhead again.
* **expired** — in flight but already past its deadline at recovery
  time: re-executing it cannot meet the SLO, so it is shed (journaled
  as ``shed`` with reason ``recovery-expired`` and recorded as a failed
  job, keeping ``completed + failed + shed == admitted``).
* **deduped** — a terminal record exists: the job finished before the
  crash and is *never* re-run or re-counted.  This is the exactly-once
  half of the contract; the other half is the live gateway's identity
  check, which drops completion signals from pre-crash task objects.

The partition is total and disjoint by construction, so no journaled
job is lost and none is duplicated — the property the Hypothesis test
in ``tests/test_recovery.py`` hammers on arbitrary journal prefixes.

Checkpoint state (pool sizes, sampler window, governor cooldowns, the
StateStore) is restored in place by the ``restore_*`` helpers; the
journal, not the checkpoint, is authoritative for request state.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.serve.journal import (
    EV_ADMIT,
    EV_HOP,
    EV_RETRY,
    TERMINAL_EVENTS,
)


@dataclass
class JournaledJob:
    """One job's life as reconstructed from the journal."""

    job_id: int
    app: str
    arrival_ms: float
    #: Furthest stage the job is known to have reached (0 = ingress).
    last_stage: int = 0
    #: Failed attempts journaled for the current stage.
    attempts: int = 0
    #: Terminal event name, or None while in flight.
    terminal: Optional[str] = None

    @property
    def in_flight(self) -> bool:
        return self.terminal is None


@dataclass
class RecoveryPlan:
    """The exactly-once partition of journaled admissions."""

    requeue: List[JournaledJob] = field(default_factory=list)
    expired: List[JournaledJob] = field(default_factory=list)
    deduped: List[int] = field(default_factory=list)

    @property
    def admitted(self) -> int:
        return len(self.requeue) + len(self.expired) + len(self.deduped)


def replay_journal(records: Sequence[Dict]) -> "OrderedDict[int, JournaledJob]":
    """Fold journal records into per-job state, admission order.

    Records for jobs with no admit record (an admit lost to an
    unflushed buffer that progress records survived — impossible under
    the default force-flush policy, but the reader must not invent
    jobs) are ignored.  A second terminal record for the same job keeps
    the first: terminal state is write-once.  Other record keys (the
    admit ``scale`` older journals carry) are ignored.
    """
    jobs: "OrderedDict[int, JournaledJob]" = OrderedDict()
    for record in records:
        ev = record.get("ev")
        job_id = int(record.get("job", -1))
        if ev == EV_ADMIT:
            if job_id not in jobs:
                jobs[job_id] = JournaledJob(
                    job_id=job_id,
                    app=str(record.get("app", "")),
                    arrival_ms=float(record.get("t", 0.0)),
                )
            continue
        job = jobs.get(job_id)
        if job is None or job.terminal is not None:
            continue
        if ev == EV_HOP:
            stage = int(record.get("stage", 0))
            if stage > job.last_stage:
                job.last_stage = stage
                job.attempts = 0
        elif ev == EV_RETRY:
            job.attempts = max(job.attempts, int(record.get("attempt", 0)))
        elif ev in TERMINAL_EVENTS:
            job.terminal = ev
    return jobs


def build_recovery_plan(
    records: Sequence[Dict],
    now_ms: float,
    slo_ms_for_app: Callable[[str], Optional[float]],
) -> RecoveryPlan:
    """Partition the journal into requeue / expired / deduped.

    ``slo_ms_for_app`` maps an application name to its SLO budget in
    model ms (None = no deadline known; such jobs always requeue).
    Deterministic and idempotent: the same journal and clock always
    yield the same plan, and a plan applied then re-derived is empty
    of requeues only once those jobs reach terminal records.
    """
    plan = RecoveryPlan()
    for job in replay_journal(records).values():
        if job.terminal is not None:
            plan.deduped.append(job.job_id)
            continue
        slo_ms = slo_ms_for_app(job.app)
        if slo_ms is not None and now_ms > job.arrival_ms + slo_ms:
            plan.expired.append(job)
        else:
            plan.requeue.append(job)
    return plan


# -- checkpoint restore helpers ---------------------------------------------


def restore_pool_sizes(pools: Dict, checkpoint: Dict) -> int:
    """Top pools back up to their checkpointed sizes; returns spawns.

    Only scales *up* (a pool larger than its snapshot keeps its extra
    capacity — reaping it is the scalers' call, not recovery's).
    """
    spawned = 0
    for name, snap in checkpoint.get("pools", {}).items():
        pool = pools.get(name)
        if pool is None:
            continue
        deficit = int(snap.get("containers", 0)) - pool.n_containers
        if deficit > 0:
            spawned += pool.prewarm(deficit)
    return spawned


def restore_sampler(sampler, checkpoint: Dict) -> None:
    """Refill the arrival window the proactive forecaster reads.

    In-place (the gateway and scaler hold references to this object).
    """
    arrivals = checkpoint.get("sampler", {}).get("arrivals_ms")
    if arrivals is not None:
        sampler._arrivals = deque(float(t) for t in arrivals)


def restore_governor(governor, checkpoint: Dict) -> None:
    """Restore the spawn governor's cooldown anchor.

    Retry debts are deliberately *not* restored: a debt is a promise to
    re-attempt a spawn against cluster state that no longer exists.
    """
    if governor is None:
        return
    state = checkpoint.get("governor")
    if state and state.get("last_spawn_ms") is not None:
        governor._last_spawn_ms = float(state["last_spawn_ms"])


def restore_store(store, checkpoint: Dict) -> None:
    """Restore the StateStore's documents from the snapshot."""
    state = checkpoint.get("store")
    if state:
        store.restore(state)
