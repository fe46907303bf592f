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
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.cluster.faults import FaultTimeline
from repro.obs.registry import merge_registry_snapshots, snapshot_registry
from repro.runtime.system import ClusterSpec
from repro.scenario import Scenario, Shards, fault_pairs
from repro.serve.config import ServeOptions
from repro.serve.journal import (
    RequestJournal,
    journal_basename,
    journal_conservation,
)
from repro.shard.sim import ShardedRunResult, map_shards, split_plane
from repro.traces.base import ArrivalTrace
from repro.workloads.mixes import WorkloadMix


# ----------------------------------------------------------------------
# aggregate result
# ----------------------------------------------------------------------

@dataclass
class ShardedServeResult(ShardedRunResult):
    """Live-plane aggregate: per-shard results + merged registry +
    journal-conservation verdicts."""

    journal: Dict[int, Dict] = field(default_factory=dict)

    @property
    def journal_conserved(self) -> bool:
        """True when every shard's journal passed conservation (and
        vacuously when the run had no journal)."""
        return all(v.get("conserved") for v in self.journal.values())

    def summary(self) -> Dict[str, float]:
        out = super().summary()
        if self.journal:
            out["journal_conserved"] = bool(self.journal_conserved)
            out["journal_jobs_admitted"] = sum(
                v["jobs_admitted"] for v in self.journal.values())
        return out


def plane_journal_conservation(journal_dir, shards: int) -> Dict[int, Dict]:
    """Per-shard exactly-once verdicts for a sharded plane.

    Job ids are only unique *within* one gateway process (forked
    children clone the id counter), so conservation is checked per
    shard's own WAL, never across the concatenated plane.
    """
    directory = pathlib.Path(journal_dir)
    return {
        shard_id: journal_conservation(RequestJournal.read_records(
            directory / journal_basename(shard_id, shards)))
        for shard_id in range(shards)}


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
    shard), and so are shard kills: no coordinator runs beside the
    children to declare a death and hand its keyspace on during the run
    (DESIGN.md §15).
    """
    n_shards = scenario.shards.n
    _ring, parts = split_plane(scenario, shrink=True)
    outcomes = map_shards(_serve_shard_worker, parts, n_shards)

    journal: Dict[int, Dict] = {}
    if scenario.live.journal_dir:
        journal = plane_journal_conservation(
            scenario.live.journal_dir, n_shards)

    return ShardedServeResult(
        per_shard={
            shard_id: result
            for (shard_id, *_), (result, _rows) in zip(parts, outcomes)},
        mode="live",
        orchestration={"ticks": 0, "rebalances": 0, "nodes_moved": 0},
        registry=merge_registry_snapshots(
            [rows for _result, rows in outcomes]),
        journal=journal,
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
        shards=Shards(n=shards, initial_node_grants=initial_node_grants),
        **config_overrides,
    ).run(predictor=predictor)
