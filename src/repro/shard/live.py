"""Sharded *live* serving plane: one gateway process per shard.

:func:`serve_plane` — the run body of a
:class:`~repro.scenario.Scenario` on the ``live-sharded`` plane, which
:func:`serve_sharded` builds — is the live twin of
:func:`repro.shard.sim.run_plane`'s process mode: the trace is
partitioned by the same consistent-hash ring, then each shard runs a
full :class:`~repro.serve.runtime.ServingRuntime` — its own asyncio
gateway, scaler, journal and checkpoints — in a forked worker process
over its slice of the cluster (:func:`repro.shard.sim.map_shards`).

Durability artifacts are keyed by shard id
(``journal-<i>.jsonl`` / ``checkpoint-<i>.json`` via
:func:`~repro.serve.journal.journal_basename`), so N gateways may share
one ``journal_dir`` without contending on a file — and the parent
verifies per-shard journal conservation after the drain.

With ``shards=1`` the scenario's plane is the single-gateway live one
and nothing here touches the run.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.cluster.faults import FaultTimeline
from repro.metrics.collector import RunResult
from repro.obs.registry import (
    MetricsRegistry,
    SnapshotRow,
    merge_registry_snapshots,
    snapshot_registry,
)
from repro.runtime.system import ClusterSpec
from repro.scenario import Scenario, Shards, fault_pairs
from repro.serve.config import ServeOptions
from repro.serve.journal import (
    JournalLockedError,
    RequestJournal,
    heartbeat_basename,
    journal_basename,
    journal_conservation,
)
from repro.shard.ring import ConsistentHashRing
from repro.shard.sim import (
    ShardedRunResult,
    map_shards,
    plan_node_grants,
    split_plane,
)
from repro.traces.base import ArrivalTrace
from repro.workloads.mixes import WorkloadMix


# ----------------------------------------------------------------------
# aggregate result
# ----------------------------------------------------------------------

@dataclass
class ShardedServeResult(ShardedRunResult):
    """Live-plane aggregate: per-shard results + merged registry +
    journal-conservation verdicts (+ takeover runs after a failover)."""

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    journal: Dict[int, Dict] = field(default_factory=dict)
    #: Takeover runtimes' results, keyed by the survivor that ran each
    #: (empty when no shard died).  Folded into every plane aggregate:
    #: a job that crossed the failover completes *somewhere*, and the
    #: plane-level SLO math must see it exactly once.
    takeover: Dict[int, RunResult] = field(default_factory=dict)
    #: Failover protocol summary: victim, declaration time, fencing
    #: epoch, recovery-plan partition sizes.
    failover: Dict = field(default_factory=dict)

    def _results(self) -> List[RunResult]:
        return list(self.per_shard.values()) + list(self.takeover.values())

    @property
    def journal_conserved(self) -> bool:
        """True when every journal family passed conservation (and
        vacuously when the run had no journal)."""
        return all(v.get("conserved") for v in self.journal.values())

    def summary(self) -> Dict[str, float]:
        out = super().summary()
        if self.journal:
            out["journal_conserved"] = bool(self.journal_conserved)
            out["journal_jobs_admitted"] = sum(
                v["jobs_admitted"] for v in self.journal.values())
        if self.failover:
            out["failover_victim"] = self.failover.get("victim")
            out["failover_declared_at_ms"] = self.failover.get(
                "declared_at_ms")
            out["failover_requeued"] = self.failover.get("requeued")
            out["failover_expired"] = self.failover.get("expired")
        return out


# ----------------------------------------------------------------------
# failover: heartbeat replay, journal fencing, keyspace takeover
# ----------------------------------------------------------------------

def plane_journal_conservation(
    journal_dir,
    shards: int,
    victim: Optional[int] = None,
) -> Dict[int, Dict]:
    """Per-journal-family exactly-once verdicts for a sharded plane.

    Job ids are only unique *within* one gateway process (forked
    children clone the id counter), so conservation is checked per home
    shard, never across the concatenated plane.  A surviving shard's
    family is its own WAL; the *victim*'s family is its WAL plus every
    ``takeover-<victim>-by-*.jsonl`` written for it — the admit lives
    in the victim's file and exactly one terminal record lands in a
    survivor's takeover file.
    """
    directory = pathlib.Path(journal_dir)
    verdicts: Dict[int, Dict] = {}
    for shard_id in range(shards):
        records = RequestJournal.read_records(
            directory / journal_basename(shard_id, shards))
        if shard_id == victim:
            for path in sorted(
                    directory.glob(f"takeover-{shard_id}-by-*.jsonl")):
                records.extend(RequestJournal.read_records(path))
        verdicts[shard_id] = journal_conservation(records)
    return verdicts


def _declare_from_heartbeats(
    directory: pathlib.Path,
    shards: Shards,
    victim: int,
    registry: MetricsRegistry,
):
    """Drive the health monitor over the recorded beats; returns
    ``(monitor, declare_ms)``.

    The children are gone by the time the parent adjudicates, so the
    monitor replays the final heartbeat files deterministically: the
    victim's beats stop at its crash, the survivors' run to their
    drain.  Observation steps begin where the victim first scores a
    miss, so the declaration lands ``miss_threshold + hysteresis - 1``
    intervals after its last beat — the same arithmetic the sim plane's
    in-loop sweep produces.
    """
    import json

    from repro.shard.failover import ShardHealthMonitor

    interval_ms = shards.heartbeat_interval_ms
    miss_threshold = shards.heartbeat_miss_threshold
    beats: Dict[int, float] = {}
    for shard_id in range(shards.n):
        try:
            doc = json.loads(
                (directory / heartbeat_basename(shard_id)).read_text())
            beats[shard_id] = float(doc.get("t_ms", 0.0))
        except (OSError, ValueError):
            beats[shard_id] = 0.0
    monitor = ShardHealthMonitor(
        sorted(beats),
        interval_ms=interval_ms,
        miss_threshold=miss_threshold,
        hysteresis=shards.failover_hysteresis,
        registry=registry,
    )
    for shard_id, beat in beats.items():
        monitor.record_heartbeat(shard_id, beat)
    t = beats[victim] + interval_ms * miss_threshold
    for _ in range(miss_threshold + shards.failover_hysteresis + 4):
        if victim in monitor.observe(t)["dead"]:
            return monitor, t
        t += interval_ms
    # Unreachable for a silent victim (every step scores a miss), but
    # never let an adjudication bug hang the takeover.
    return monitor, t


def _fail_over(
    scenario: Scenario,
    victim: int,
    ring: ConsistentHashRing,
    registry: MetricsRegistry,
):
    """Adjudicate the death and recover the victim's keyspace.

    Runs in the parent after the worker pool exits.  Returns
    ``(takeover_results, failover_info, registry_snapshots)``.
    """
    import os

    import numpy as np

    from repro.serve.recovery import build_recovery_plan
    from repro.shard.failover import EpochLease, assign_takeover

    shards = scenario.shards
    directory = pathlib.Path(scenario.live.journal_dir)
    _monitor, declare_ms = _declare_from_heartbeats(
        directory, shards, victim, registry)

    # Orchestrator-side fencing: the takeover instance claims the lease
    # (the dead holder's pid is gone) and bumps the epoch, so a zombie
    # primary's late renewals are refused from here on.
    lease = EpochLease(
        str(directory / "orchestrator.lease"), registry=registry)
    lease.acquire(declare_ms)

    # Journal fencing: take the dead shard's WAL lock (an audited steal
    # — the owner pid is dead) and stamp a takeover marker.  A *live*
    # owner means the shard is merely slow: refuse, count, and fall
    # back to read-only replay without the marker.
    victim_path = directory / journal_basename(victim, shards.n)
    fence_taken = False
    try:
        fence = RequestJournal(victim_path, registry=registry)
        fence.append(
            "takeover", -1, declare_ms,
            by=os.getpid(), epoch=lease.epoch,
        )
        fence.close()
        fence_taken = True
    except JournalLockedError:
        registry.counter("shard_takeover_fence_refused_total").inc()

    records = RequestJournal.read_records(victim_path)
    slo_by_app = {
        app.name: app.slo_ms
        for app in scenario.workload_mix().applications}
    plan = build_recovery_plan(
        records, declare_ms, lambda name: slo_by_app.get(name))
    remapped = ring.with_shard_removed(victim)
    requeues = assign_takeover(plan.requeue, remapped)
    expireds = assign_takeover(plan.expired, remapped)

    grants = plan_node_grants(
        scenario.cluster.n_nodes, shards.n, shards.initial_node_grants)
    results: Dict[int, RunResult] = {}
    snapshots: List[List[SnapshotRow]] = []
    for survivor in sorted(set(requeues) | set(expireds)):
        shard = scenario.for_shard(survivor, grants[survivor])
        name = f"takeover-{victim}-by-{survivor}"
        runtime = replace(
            shard,
            # Decorrelated from the survivor's own (dead) child run.
            seed=shard.seed + 104_729,
            # The takeover runtime replays no script: the plane's
            # faults already happened on the victim's clock.
            faults=tuple(
                pair for pair in shard.faults if pair[0] != "timeline"),
            live=replace(
                shard.live,
                journal_name=f"{name}.jsonl",
                checkpoint_name=(
                    f"takeover-checkpoint-{victim}-by-{survivor}.json"),
                clock_start_ms=declare_ms,
                heartbeat_interval_ms=None,
            ),
        ).runtime()
        runtime.recovered_plan = (
            requeues.get(survivor, []), expireds.get(survivor, []))
        results[survivor] = runtime.run(ArrivalTrace(np.empty(0), name=name))
        snapshots.append(snapshot_registry(runtime.registry))

    info = {
        "victim": victim,
        "declared_at_ms": float(declare_ms),
        "fence_taken": fence_taken,
        "epoch": lease.epoch,
        "requeued": len(plan.requeue),
        "expired": len(plan.expired),
        "deduped": len(plan.deduped),
        "survivors": sorted(results),
    }
    snapshots.append(snapshot_registry(registry))
    return results, info, snapshots


# ----------------------------------------------------------------------
# shard worker (runs in a forked child)
# ----------------------------------------------------------------------

def _serve_shard_worker(shard: Scenario):
    """Serve one shard's slice; returns ``(result, registry snapshot)``.

    Module-level so the spawn start method can import it; under fork it
    simply inherits the parent image.
    """
    runtime = shard.runtime()
    result = runtime.run(shard.arrivals())
    return result, snapshot_registry(runtime.registry)


def serve_plane(scenario: Scenario) -> "ShardedServeResult":
    """The ``live-sharded`` run body: one process per shard, each
    running its per-shard scenario (the predictor is shipped to every
    child, which guards and advances its own copy).

    Every shard replays the scenario's timeline; node events are refused
    (the cluster is split, so one node id would hit a different node per
    shard).  One ``kill-shard`` event naming one shard scripts its
    death: its gateway goes permanently dead mid-run, and after the
    plane drains the parent adjudicates the death from the heartbeat
    record (``heartbeat_miss_threshold`` misses, ``failover_hysteresis``
    consecutive evaluations), fences the dead shard's journal and the
    orchestrator lease, and replays the WAL so the ring's survivors
    complete every in-flight job exactly once in takeover runtimes.
    """
    n_shards = scenario.shards.n
    ring, parts = split_plane(scenario, shrink=True)
    outcomes = map_shards(_serve_shard_worker, parts, n_shards)

    per_shard: Dict[int, RunResult] = {
        shard_id: result
        for (shard_id, *_), (result, _rows) in zip(parts, outcomes)}
    snapshots: List[Optional[List[SnapshotRow]]] = [
        rows for _result, rows in outcomes]

    kills = scenario.timeline.of("kill-shard")
    victim: Optional[int] = kills[0].ids[0] if kills else None
    takeover: Dict[int, RunResult] = {}
    failover_info: Dict = {}
    if victim is not None:
        takeover, failover_info, extra = _fail_over(
            scenario, victim, ring, MetricsRegistry())
        snapshots.extend(extra)
    merged = merge_registry_snapshots(snapshots)

    journal: Dict[int, Dict] = {}
    if scenario.live.journal_dir:
        journal = plane_journal_conservation(
            scenario.live.journal_dir, n_shards, victim=victim)

    return ShardedServeResult(
        per_shard=per_shard,
        mode="live",
        orchestration={"ticks": 0, "rebalances": 0, "nodes_moved": 0},
        registry=merged,
        journal=journal,
        takeover=takeover,
        failover=failover_info,
    )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def serve_sharded(
    policy_name: str,
    mix: WorkloadMix,
    trace: ArrivalTrace,
    shards: int = 2,
    cluster_spec: ClusterSpec = ClusterSpec(),
    predictor=None,
    seed: int = 0,
    options: ServeOptions = ServeOptions(),
    fault_model=None,
    faults: FaultTimeline = FaultTimeline(),
    shed_expired: bool = False,
    drain_ms: float = 120_000.0,
    initial_node_grants: Optional[Sequence[int]] = None,
    heartbeat_interval_ms: float = Shards.heartbeat_interval_ms,
    heartbeat_miss_threshold: int = 3,
    failover_hysteresis: int = 2,
    **config_overrides,
):
    """Serve *trace* on an N-gateway live plane: build the
    :class:`~repro.scenario.Scenario` these arguments describe and run
    it (:func:`serve_plane` has the plane's semantics).

    Returns a plain :class:`RunResult` for ``shards=1`` (the exact
    single-gateway path) and a :class:`ShardedServeResult` otherwise.
    The caller's *options* and fault plan apply to every shard;
    ``shard_id``/``n_shards`` are stamped per child and must be left at
    their defaults here.
    """
    return Scenario.of(
        policy_name, mix, trace, cluster_spec, seed,
        live=options,
        faults=fault_pairs(fault_model, faults),
        shed_expired=shed_expired,
        drain_ms=drain_ms,
        shards=Shards(
            n=shards,
            initial_node_grants=initial_node_grants,
            heartbeat_interval_ms=heartbeat_interval_ms,
            heartbeat_miss_threshold=heartbeat_miss_threshold,
            failover_hysteresis=failover_hysteresis,
        ),
        **config_overrides,
    ).run(predictor=predictor)
