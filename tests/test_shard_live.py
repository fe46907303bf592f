"""Tests for the sharded live plane: journal single-writer locking,
per-shard durability filenames, registry snapshot/merge, and a 2-shard
end-to-end smoke under a compressed clock."""

import os
import pathlib

import pytest

from repro.obs.registry import MetricsRegistry
from repro.runtime.system import ClusterSpec
from repro.serve import ServeOptions
from repro.serve.checkpoint import checkpoint_basename
from repro.serve.journal import (
    JournalLockedError,
    RequestJournal,
    journal_basename,
)
from repro.shard.live import (
    ShardedServeResult,
    merge_registry_snapshots,
    serve_sharded,
    snapshot_registry,
)
from repro.traces import poisson_trace
from repro.workloads import get_mix

FAST = 0.005  # one model second in 5 wall ms


# ---------------------------------------------------------------------------
# journal single-writer lock


def test_writer_in_another_live_process_is_rejected(tmp_path):
    # A sentinel owned by a live foreign pid (pid 1 is always alive
    # and never us) must reject the open, not interleave the WAL.
    path = tmp_path / "journal.jsonl"
    (tmp_path / "journal.jsonl.lock").write_text("1:1")
    with pytest.raises(JournalLockedError):
        RequestJournal(path)


def test_cross_process_second_writer_is_rejected(tmp_path):
    import subprocess
    import sys
    import textwrap

    path = tmp_path / "journal.jsonl"
    first = RequestJournal(path)
    script = textwrap.dedent(f"""
        from repro.serve.journal import JournalLockedError, RequestJournal
        try:
            RequestJournal({str(path)!r})
        except JournalLockedError:
            print("REJECTED")
        else:
            print("INTERLEAVED")
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), check=True,
    ).stdout
    assert "REJECTED" in out
    first.close()
    # The sentinel is released on close, so a successor may reopen.
    second = RequestJournal(path)
    second.close()


def test_same_process_respawn_steals_the_lock(tmp_path):
    # Crash injection respawns the gateway inside one process without
    # closing the dead journal handle; the successor must be able to
    # reopen the same path (same-pid sentinels are stale by
    # definition — one thread of control per process owns the WAL).
    path = tmp_path / "journal.jsonl"
    first = RequestJournal(path)
    second = RequestJournal(path)
    second.close()
    assert not (tmp_path / "journal.jsonl.lock").exists()


def test_stale_lock_from_dead_pid_is_stolen(tmp_path):
    path = tmp_path / "journal.jsonl"
    # Forge a sentinel owned by a pid that cannot exist.
    lock_path = tmp_path / "journal.jsonl.lock"
    lock_path.write_text("999999999:1")
    journal = RequestJournal(path)  # steals silently
    assert lock_path.read_text().startswith(f"{os.getpid()}:")
    journal.close()
    assert not lock_path.exists()


def test_unreadable_lock_relic_is_stolen(tmp_path):
    path = tmp_path / "journal.jsonl"
    (tmp_path / "journal.jsonl.lock").write_text("not-a-pid")
    journal = RequestJournal(path)
    journal.close()


def test_release_never_unlinks_a_successors_lock(tmp_path):
    path = tmp_path / "journal.jsonl"
    lock_path = tmp_path / "journal.jsonl.lock"
    first = RequestJournal(path)
    # Simulate a crashed-then-respawned writer in the same process: the
    # successor steals the (same-pid) sentinel while the original
    # handle is still around.
    second_lock = type(first._lock)(pathlib.Path(path))
    first.close()  # must NOT remove the successor's sentinel
    assert lock_path.exists()
    assert lock_path.read_text() == second_lock._content
    second_lock.release()
    assert not lock_path.exists()


# ---------------------------------------------------------------------------
# per-shard durability filenames and options


def test_shard_keyed_basenames():
    assert journal_basename() == "journal.jsonl"
    assert journal_basename(0, 1) == "journal.jsonl"
    assert journal_basename(2, 4) == "journal-2.jsonl"
    assert checkpoint_basename() == "checkpoint.json"
    assert checkpoint_basename(1, 2) == "checkpoint-1.json"


def test_serve_options_shard_validation():
    ServeOptions(shard_id=1, n_shards=2)
    with pytest.raises(ValueError):
        ServeOptions(n_shards=0)
    with pytest.raises(ValueError):
        ServeOptions(shard_id=2, n_shards=2)
    with pytest.raises(ValueError):
        ServeOptions(shard_id=-1, n_shards=2)


# ---------------------------------------------------------------------------
# registry snapshot / merge


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


# ---------------------------------------------------------------------------
# end-to-end 2-shard live smoke


def test_two_shard_live_serve_smoke(tmp_path):
    mix = get_mix("medium")
    trace = poisson_trace(rate_rps=6.0, duration_s=8.0, seed=7)
    options = ServeOptions(
        time_scale=FAST,
        journal_dir=str(tmp_path),
        checkpoint_interval_ms=2_000.0,
    )
    result = serve_sharded(
        "rscale", mix, trace, shards=2, drain_ms=20_000.0,
        cluster_spec=ClusterSpec(n_nodes=4), seed=7, options=options)
    assert isinstance(result, ShardedServeResult)
    assert result.mode == "live"
    assert result.n_jobs == len(trace.arrivals_ms)
    assert sorted(result.per_shard) == [0, 1]
    # Per-shard durability artifacts under one directory, no contention.
    for shard_id in (0, 1):
        assert (tmp_path / f"journal-{shard_id}.jsonl").exists()
    # Journal conservation holds on both shards, and the merged
    # registry reconciles with the per-shard sums.
    assert result.journal_conserved
    assert set(result.journal) == {0, 1}
    assert int(result.registry.total("jobs_created_total")) \
        == result.n_jobs
    per_shard_appends = sum(
        r.journal_appends for r in result.per_shard.values())
    assert int(result.registry.total("journal_appends_total")) \
        == per_shard_appends
    summary = result.summary()
    assert summary["journal_conserved"] is True
    assert summary["journal_jobs_admitted"] == result.n_jobs


def test_serve_sharded_one_shard_is_plain_runresult(tmp_path):
    mix = get_mix("medium")
    trace = poisson_trace(rate_rps=6.0, duration_s=5.0, seed=3)
    options = ServeOptions(time_scale=FAST)
    result = serve_sharded(
        "rscale", mix, trace, shards=1, drain_ms=15_000.0,
        cluster_spec=ClusterSpec(n_nodes=2), seed=3, options=options)
    assert not isinstance(result, ShardedServeResult)
    assert result.n_jobs == len(trace.arrivals_ms)


def test_serve_sharded_rejects_preassigned_identity():
    mix = get_mix("medium")
    trace = poisson_trace(rate_rps=5.0, duration_s=2.0, seed=1)
    with pytest.raises(ValueError, match="shard identities"):
        serve_sharded(
            "rscale", mix, trace, shards=2,
            options=ServeOptions(shard_id=1, n_shards=2))
