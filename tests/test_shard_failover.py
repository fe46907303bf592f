"""Tests for the self-healing sharded plane: heartbeat health
monitoring, ring remap + journal-driven keyspace takeover, the sim
fault plane, registry snapshot merging, and journal-lock hardening."""

import logging
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.faults import FaultEvent, FaultTimeline
from repro.obs.registry import (
    MetricsRegistry,
    merge_registry_snapshots,
    snapshot_registry,
)
from repro.runtime.system import ClusterSpec
from repro.serve.journal import (
    EV_ADMIT,
    EV_COMPLETE,
    EV_HOP,
    JOURNAL_SCHEMA_VERSION,
    RequestJournal,
)
from repro.serve.recovery import build_recovery_plan
from repro.shard.failover import ShardHealthMonitor, assign_takeover
from repro.shard.orchestrator import GlobalOrchestrator
from repro.shard.ring import ConsistentHashRing
from repro.shard.sim import run_sharded_policy
from repro.traces.base import ArrivalTrace
from repro.workloads import get_mix


# ---------------------------------------------------------------------------
# heartbeat health monitor


def _monitor(**kw):
    kw.setdefault("interval_ms", 1000.0)
    kw.setdefault("miss_threshold", 3)
    kw.setdefault("hysteresis", 2)
    return ShardHealthMonitor([0, 1], **kw)


def test_monitor_declares_after_misses_and_hysteresis():
    mon = _monitor()
    for t in (0.0, 1000.0, 2000.0):
        mon.record_heartbeat(0, t)
        mon.record_heartbeat(1, t)
        assert mon.observe(t) == {"dead": [], "recovered": []}
    # Shard 1 goes silent at t=2000; shard 0 keeps beating.
    declared = None
    for t in np.arange(3000.0, 10000.0, 1000.0):
        mon.record_heartbeat(0, t)
        out = mon.observe(t)
        if out["dead"]:
            declared = (t, out["dead"])
            break
    # First bad eval at gap >= 3 intervals (t=5000), second at t=6000.
    assert declared == (6000.0, [1])
    assert mon.dead == {1}
    assert mon.registry.value("shard_failovers_total") == 1


def test_monitor_single_miss_never_flaps():
    mon = _monitor()
    mon.record_heartbeat(0, 0.0)
    mon.record_heartbeat(1, 0.0)
    # One long GC pause: a single bad evaluation, then beats resume.
    assert mon.observe(3000.0) == {"dead": [], "recovered": []}
    mon.record_heartbeat(0, 3100.0)
    mon.record_heartbeat(1, 3100.0)
    assert mon.observe(4000.0) == {"dead": [], "recovered": []}
    assert mon.dead == set()
    assert mon.registry.value("shard_failovers_total") == 0
    assert mon.registry.value("shard_heartbeat_misses_total") == 2


def test_monitor_recovers_after_beats_resume():
    mon = _monitor(miss_threshold=2, hysteresis=2)
    mon.record_heartbeat(0, 0.0)
    mon.record_heartbeat(1, 0.0)
    for t in (2000.0, 3000.0):
        mon.record_heartbeat(0, t)
        mon.observe(t)
    assert mon.dead == {1}
    # The restarted shard beats again: two good evals re-admit it.
    for t in (4000.0, 5000.0):
        mon.record_heartbeat(0, t)
        mon.record_heartbeat(1, t)
        out = mon.observe(t)
    assert out == {"dead": [], "recovered": [1]}
    assert mon.dead == set()
    assert mon.registry.value("shard_recoveries_total") == 1


def test_monitor_validation():
    with pytest.raises(ValueError):
        ShardHealthMonitor([], interval_ms=1000.0)
    with pytest.raises(ValueError):
        ShardHealthMonitor([0], interval_ms=0.0)
    with pytest.raises(ValueError):
        ShardHealthMonitor([0], interval_ms=1.0, miss_threshold=0)
    with pytest.raises(ValueError):
        ShardHealthMonitor([0], interval_ms=1.0, hysteresis=0)
    mon = _monitor()
    with pytest.raises(KeyError):
        mon.record_heartbeat(7, 0.0)


# ---------------------------------------------------------------------------
# ring remap property: failover remap == with_shard_removed


def _vnode_map(ring):
    return dict(zip(ring._positions.tolist(), ring._owners.tolist()))


@settings(max_examples=40, deadline=None)
@given(
    shards=st.integers(min_value=2, max_value=8),
    victim_index=st.integers(min_value=0, max_value=7),
    vnodes=st.sampled_from([8, 16]),
)
def test_failover_remap_is_with_shard_removed(shards, victim_index,
                                              vnodes):
    victim = victim_index % shards
    ring = ConsistentHashRing(shards, vnodes=vnodes)
    remapped = ring.with_shard_removed(victim)
    # Identical to a ring constructed from the survivor set directly.
    survivors = [s for s in range(shards) if s != victim]
    fresh = ConsistentHashRing(0, vnodes=vnodes, shard_ids=survivors)
    assert np.array_equal(remapped._positions, fresh._positions)
    assert np.array_equal(remapped._owners, fresh._owners)
    # Surviving vnodes never move: the remapped ring's (position,
    # owner) pairs are exactly the original's minus the victim's.
    before = _vnode_map(ring)
    after = _vnode_map(remapped)
    assert after == {
        pos: owner for pos, owner in before.items() if owner != victim
    }


def test_ring_remove_last_shard_raises():
    ring = ConsistentHashRing(1)
    with pytest.raises(ValueError):
        ring.with_shard_removed(0)
    with pytest.raises(ValueError):
        ConsistentHashRing(2).with_shard_removed(5)


# ---------------------------------------------------------------------------
# takeover partition property: any crash point, exactly once


def _wal_records(n_jobs, base_t=0.0):
    """A synthetic WAL: admits interleaved with hops and completions."""
    records = []
    for i in range(n_jobs):
        records.append({
            "v": JOURNAL_SCHEMA_VERSION, "ev": EV_ADMIT, "job": i,
            "t": base_t + 10.0 * i, "app": "img",
        })
        if i % 3 == 0:
            records.append({
                "v": JOURNAL_SCHEMA_VERSION, "ev": EV_HOP, "job": i,
                "t": base_t + 10.0 * i + 5.0, "stage": 1,
            })
        if i % 2 == 0:
            records.append({
                "v": JOURNAL_SCHEMA_VERSION, "ev": EV_COMPLETE,
                "job": i, "t": base_t + 10.0 * i + 50.0,
            })
    return records


@settings(max_examples=40, deadline=None)
@given(
    n_jobs=st.integers(min_value=0, max_value=30),
    crash_at=st.integers(min_value=0, max_value=120),
    shards=st.integers(min_value=2, max_value=5),
    now_ms=st.floats(min_value=0.0, max_value=5000.0),
)
def test_takeover_partition_total_and_disjoint(n_jobs, crash_at,
                                               shards, now_ms):
    records = _wal_records(n_jobs)
    prefix = records[:crash_at]   # the WAL as of an arbitrary crash
    plan = build_recovery_plan(
        prefix, now_ms, lambda name: 1000.0 if name == "img" else None)
    admitted = {r["job"] for r in prefix if r["ev"] == EV_ADMIT}
    requeue_ids = {j.job_id for j in plan.requeue}
    expired_ids = {j.job_id for j in plan.expired}
    deduped_ids = set(plan.deduped)
    # Total and disjoint over every admitted job.
    assert requeue_ids | expired_ids | deduped_ids == admitted
    assert not (requeue_ids & expired_ids)
    assert not (requeue_ids & deduped_ids)
    assert not (expired_ids & deduped_ids)
    # The ring split hands every in-flight job to exactly one survivor.
    ring = ConsistentHashRing(shards).with_shard_removed(0)
    assignment = assign_takeover(plan.requeue, ring)
    assigned = [j.job_id for jobs in assignment.values() for j in jobs]
    assert sorted(assigned) == sorted(requeue_ids)
    assert len(assigned) == len(set(assigned))
    for owner, jobs in assignment.items():
        assert owner in ring.shard_ids
        for job in jobs:
            assert ring.shard_for(job.job_id) == owner


# ---------------------------------------------------------------------------
# poisoned orchestrator ticks


class _PoisonedHandle:
    shard_id = 0

    def load_report(self, now_ms):
        raise RuntimeError("poisoned tick")


def test_poisoned_orchestrator_tick_is_contained():
    reg = MetricsRegistry()
    orch = GlobalOrchestrator([_PoisonedHandle()], registry=reg)
    out = orch.reconcile(1000.0)
    assert out.get("error") is True
    assert reg.value("orchestrator_tick_errors_total") == 1
    # The loop survives: the next tick fails the same way, no raise.
    orch.reconcile(2000.0)
    assert reg.value("orchestrator_tick_errors_total") == 2


# ---------------------------------------------------------------------------
# registry snapshot / merge, and its degradation (dead shard ships no
# snapshot)


def test_registry_snapshot_merge_reconciles():
    regs = []
    for i in (1, 2):
        reg = MetricsRegistry()
        reg.counter("jobs_total").inc(10 * i)
        reg.counter("pool_tasks_total", pool="ASR").inc(i)
        reg.gauge("queue_depth").set(3 * i)
        hist = reg.histogram("latency_ms")
        for v in range(i * 5):
            hist.observe(float(v))
        regs.append(reg)
    merged = merge_registry_snapshots(
        [snapshot_registry(r) for r in regs])
    assert merged.total("jobs_total") == 30
    assert merged.value("pool_tasks_total", pool="ASR") == 3
    assert merged.value("queue_depth") == 9
    hist = merged.merged_histogram("latency_ms")
    assert hist.count == 15
    assert hist.min == 0.0 and hist.max == 9.0
    # Exactness: merged sum equals the concatenated-sample sum.
    assert hist.sum == sum(float(v) for v in range(5)) \
        + sum(float(v) for v in range(10))


def test_merge_tolerates_missing_and_partial_snapshots():
    good = MetricsRegistry()
    good.counter("jobs_created_total").inc(10)
    rows = snapshot_registry(good)
    torn = rows + [("bad-row",), ("x", (), "counter", "not-a-number")]
    merged = merge_registry_snapshots([rows, None, torn])
    # Everything readable still merges; the damage is counted.
    assert merged.total("jobs_created_total") == 20
    assert merged.value("shards_missing") == 1
    assert merged.value("registry_rows_skipped_total") == 2


def test_merge_clean_snapshots_emit_no_degradation_metrics():
    reg = MetricsRegistry()
    reg.counter("jobs_created_total").inc(1)
    merged = merge_registry_snapshots([snapshot_registry(reg)])
    names = {name for name, _, _ in merged.collect()}
    assert "shards_missing" not in names
    assert "registry_rows_skipped_total" not in names


# ---------------------------------------------------------------------------
# shard fault schedule


def test_shard_fault_schedule_parse():
    sched = FaultTimeline.parse("kill-shard@60=1;recover-shard@120=1")
    assert [(e.at_ms, e.kind, e.ids) for e in sched.events] == [
        (60_000.0, "kill-shard", (1,)),
        (120_000.0, "recover-shard", (1,)),
    ]
    multi = FaultTimeline.parse("kill-shard@5=0,2")
    assert multi.events[0].ids == (0, 2)
    for bad in ("kill-shard@60", "explode-shard@1=0", "kill-shard@x=0", "",
                "kill-shard@1=", "kill-shard@1=0,0"):
        with pytest.raises(ValueError):
            FaultTimeline.parse(bad)
    with pytest.raises(ValueError):
        FaultEvent(at_ms=-1.0, kind="kill-shard", ids=(0,))


# ---------------------------------------------------------------------------
# sim plane end-to-end


def _sim_trace(duration_s=40.0, rate=25.0, seed=2):
    rng = np.random.default_rng(seed)
    n = rng.poisson(rate * duration_s)
    t = np.sort(rng.uniform(0.0, duration_s * 1000.0, n))
    return ArrivalTrace(t, name="failover-test")


def test_sim_kill_and_recover_conserves_exactly_once():
    trace = _sim_trace()
    result = run_sharded_policy(
        "rscale", get_mix("medium"), trace, shards=3,
        cluster_spec=ClusterSpec(n_nodes=6), seed=5, engine="fast",
        faults=FaultTimeline.parse("kill-shard@12=1;recover-shard@28=1"),
        heartbeat_interval_ms=200.0,
        heartbeat_miss_threshold=2,
        failover_hysteresis=1,
    )
    orch = result.orchestration
    assert orch["failovers"] >= 1
    assert orch["shard_recoveries"] >= 1
    journal = orch["journal"]
    assert journal["conserved"], journal
    # Plane-wide exactly-once: every created job has one terminal.
    assert result.n_completed + result.n_failed + result.shed_jobs \
        == result.n_jobs == len(trace.arrivals_ms)
    # The takeover actually moved work: something was requeued or
    # expired from the dead shard's journal mirror, and post-declaration
    # arrivals rerouted to the ring survivors.
    moved = result.registry.value(
        "shard_jobs_requeued_on_failover_total"
    ) + result.registry.value("shard_jobs_expired_on_failover_total")
    assert moved >= 1
    assert result.registry.value("shard_rerouted_arrivals_total") >= 1
    assert result.registry.value("shard_crashes_total") == 1
    assert result.registry.value("shard_restarts_total") == 1


def test_sim_no_fault_schedule_is_bit_identical():
    # A fault plane whose events never fire must not perturb the run:
    # the failover layer's hooks are exact no-ops on the admission,
    # completion and RNG paths.
    trace = _sim_trace(duration_s=20.0, rate=20.0, seed=9)
    kwargs = dict(
        shards=2, cluster_spec=ClusterSpec(n_nodes=4), seed=3,
        engine="fast",
    )
    plain = run_sharded_policy(
        "rscale", get_mix("medium"), trace, **kwargs)
    armed = run_sharded_policy(
        "rscale", get_mix("medium"), trace,
        faults=FaultTimeline.parse("kill-shard@1e6=1"),
        **kwargs)
    assert np.array_equal(np.sort(plain.latencies_ms),
                          np.sort(armed.latencies_ms))
    # The armed summary gains failover bookkeeping keys (all zero /
    # conserved); every key the plain run reports must be unchanged.
    armed_summary = armed.summary()
    for key, value in plain.summary().items():
        assert armed_summary[key] == value, key
    assert armed.orchestration["failovers"] == 0


def test_sim_takeover_is_independent_of_the_job_id_counter(monkeypatch):
    # Job ids come from a process-wide counter; the takeover keys the
    # remapped ring on request ids, so what ran earlier in the process
    # cannot move a recovered job to another survivor.
    import itertools

    import repro.workflow.job

    def run(first_job_id):
        monkeypatch.setattr(repro.workflow.job, "_job_ids",
                            itertools.count(first_job_id))
        return run_sharded_policy(
            "rscale", get_mix("medium"), _sim_trace(), shards=3,
            cluster_spec=ClusterSpec(n_nodes=6), seed=5,
            faults=FaultTimeline.parse("kill-shard@12=1;recover-shard@28=1"),
            heartbeat_interval_ms=200.0, heartbeat_miss_threshold=2,
            failover_hysteresis=1, initial_node_grants=[1, 2, 3],
            rebalance_interval_ms=4_000.0, skew_threshold=1.2)

    first, shifted = run(0), run(12_345)
    assert shifted.orchestration["nodes_moved"] \
        == first.orchestration["nodes_moved"]
    for shard_id, result in first.per_shard.items():
        np.testing.assert_array_equal(
            shifted.per_shard[shard_id].latencies_ms, result.latencies_ms)


def test_sim_failover_validation():
    trace = _sim_trace(duration_s=2.0, rate=2.0)
    mix = get_mix("medium")
    faults = FaultTimeline.parse("kill-shard@1=0")
    with pytest.raises(ValueError, match="shards > 1"):
        run_sharded_policy("rscale", mix, trace, shards=1,
                           faults=faults)
    with pytest.raises(ValueError, match="engine .* sim-sharded plane"):
        run_sharded_policy("rscale", mix, trace, shards=2,
                           engine="vector", faults=faults)
    with pytest.raises(ValueError, match="out of range"):
        run_sharded_policy(
            "rscale", mix, trace, shards=2, engine="fast",
            faults=FaultTimeline.parse("kill-shard@1=7"))


# ---------------------------------------------------------------------------
# journal sentinel-lock hardening (audited steal, live-pid refusal)


def test_stale_lock_steal_is_logged_with_owner_and_claim(tmp_path,
                                                         caplog):
    path = tmp_path / "journal.jsonl"
    (tmp_path / "journal.jsonl.lock").write_text("999999999:1")
    with caplog.at_level(logging.WARNING, logger="repro.serve.journal"):
        journal = RequestJournal(path)
    journal.close()
    steal_logs = [r for r in caplog.records
                  if "stealing stale journal lock" in r.getMessage()]
    assert len(steal_logs) == 1
    message = steal_logs[0].getMessage()
    # The audit trail names the dead owner and the thief's claim.
    assert "999999999:1" in message
    assert f"{os.getpid()}:" in message


@pytest.mark.parametrize("relic", [
    "0:1", "-1:1",              # kill(2) reads these as process *groups*
    # An in-process respawn reopens its WAL (a fixed id: the pid
    # differs from run to run).
    pytest.param(f"{os.getpid()}:1", id="own-pid:1"),
    "999999999:1", "",          # a dead owner, an empty relic
])
def test_a_lock_relic_naming_no_live_foreign_process_is_stolen(
        tmp_path, relic, caplog):
    path = tmp_path / "journal.jsonl"
    (tmp_path / "journal.jsonl.lock").write_text(relic)
    with caplog.at_level(logging.WARNING, logger="repro.serve.journal"):
        journal = RequestJournal(path)   # JournalLockedError = never stolen
    journal.append(EV_ADMIT, 0, 1.0, app="img")
    journal.close()
    assert len(RequestJournal.read_records(path)) == 1
    assert [r for r in caplog.records
            if "stealing stale journal lock" in r.getMessage()]

