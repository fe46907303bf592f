"""Durability and crash recovery: journal, checkpoint, restore.

Covers the exactly-once contract end to end: journal round-trips
(including torn tails and lost unflushed buffers), a Hypothesis
property over arbitrary journal prefixes, checkpoint save/load,
live gateway/control-loop crash injection, graceful shutdown, the
``max_pending`` backpressure counter, the simulator's blackout
mirror, the journal's single-writer lock, and atomic artifact writes.
"""

import asyncio
import json
import os
import pathlib
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.faults import FaultEvent, FaultTimeline
from repro.experiments.export import atomic_write_json, atomic_write_text
from repro.core.policies import make_policy_config
from repro.runtime.system import ClusterSpec, ServerlessSystem, run_policy
from repro.scenario import Scenario
from repro.serve import (
    JournalLockedError,
    RequestJournal,
    ServeOptions,
    ServingRuntime,
    build_recovery_plan,
    replay_journal,
    serve_trace,
)
from repro.serve.checkpoint import (
    CHECKPOINT_BASENAME,
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointManager,
)
from repro.serve.journal import (
    EV_ADMIT,
    EV_COMPLETE,
    JOURNAL_BASENAME,
    TERMINAL_EVENTS,
    journal_conservation,
)
from repro.sim.engine import Simulator
from repro.traces import poisson_trace
from repro.workflow.lifecycle import RECOVERY_EXPIRED_REASON
from repro.workflow.statestore import StateStore
from repro.workloads import get_mix


def _job(job_id, app="ingest", arrival_ms=0.0):
    return SimpleNamespace(
        job_id=job_id,
        arrival_ms=arrival_ms,
        app=SimpleNamespace(name=app),
    )


# ---------------------------------------------------------------------------
# journal


class TestJournal:
    def test_round_trip_preserves_order_and_fields(self, tmp_path):
        path = tmp_path / JOURNAL_BASENAME
        journal = RequestJournal(path)
        journal.admit(_job(1, app="alpha", arrival_ms=10.0))
        journal.hop(_job(1), 1, 25.0)
        journal.complete(_job(1), 40.0)
        journal.close()

        records = RequestJournal.read_records(path)
        assert [r["ev"] for r in records] == ["admit", "hop", "complete"]
        assert records[0] == {
            "v": 1, "ev": "admit", "job": 1, "t": 10.0, "app": "alpha",
        }
        assert records[1]["stage"] == 1

    def test_torn_tail_is_tolerated_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / JOURNAL_BASENAME
        journal = RequestJournal(path)
        journal.admit(_job(1))
        journal.complete(_job(1), 5.0)
        journal.close()

        # A crash mid-append leaves a truncated final line: readable.
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"ev": "admit", "job":')
        records = RequestJournal.read_records(path)
        assert [r["ev"] for r in records] == ["admit", "complete"]

        # The same corruption mid-file is a storage fault: loud.
        lines = path.read_text().splitlines()
        lines.insert(1, "{broken")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="mid-file"):
            RequestJournal.read_records(path)

    def test_drop_unflushed_loses_only_batched_records(self, tmp_path):
        path = tmp_path / JOURNAL_BASENAME
        journal = RequestJournal(path)
        journal.admit(_job(1))          # durable: forced to disk
        journal.hop(_job(1), 1, 5.0)    # progress hint: buffered
        journal.hop(_job(1), 2, 9.0)
        assert journal.drop_unflushed() == 2
        journal.close()
        assert [r["ev"] for r in RequestJournal.read_records(path)] == [
            "admit"
        ]

    def test_unknown_events_skipped_missing_file_empty(self, tmp_path):
        path = tmp_path / JOURNAL_BASENAME
        path.write_text(
            '{"ev": "admit", "job": 1, "t": 0.0, "app": "a"}\n'
            '{"ev": "from-the-future", "job": 1, "t": 1.0}\n'
        )
        assert len(RequestJournal.read_records(path)) == 1
        assert RequestJournal.read_records(tmp_path / "absent.jsonl") == []


class TestOlderJournals:
    """A WAL written before admit records lost their ``scale`` key (every
    one of them ``1.0``) — admits, hops, a retry, one terminal and a torn
    tail — recovers to the partition it recovered to then, and each
    requeued job resumes with its journaled id, arrival and stage."""

    GOLDEN = (pathlib.Path(__file__).parent / "golden"
              / "journal_with_scale_key.jsonl")

    def test_partition_and_resume_point_are_unchanged(self):
        records = RequestJournal.read_records(self.GOLDEN)
        assert sum("scale" in r for r in records) == 4
        mix = get_mix("medium")
        slo = {app.name: app.slo_ms for app in mix.applications}
        plan = build_recovery_plan(records, 1_200.0, slo.get)
        assert [(j.job_id, j.app, j.arrival_ms, j.last_stage, j.attempts)
                for j in plan.requeue] == [
            (12, "img", 200.0, 2, 0), (13, "img", 900.0, 0, 1)]
        assert [(j.job_id, j.app, j.arrival_ms) for j in plan.expired] == [
            (11, "ipa", 50.0)]
        assert plan.deduped == [10]

        system = ServerlessSystem(
            config=make_policy_config("rscale"), mix=mix,
            cluster_spec=ClusterSpec(n_nodes=2))
        sim = Simulator()
        system._build(sim)
        enqueued = []
        system.lifecycle.enqueue_stage = lambda job, stage: enqueued.append(
            (job.job_id, job.arrival_ms, stage))
        for entry in plan.requeue:
            system.lifecycle.requeue_recovered(entry)
        sim.run(until=1_000.0)
        assert enqueued == [(12, 200.0, 2), (13, 900.0, 0)]


# ---------------------------------------------------------------------------
# recovery plan (property-based)


_JOB_IDS = st.integers(min_value=0, max_value=9)
_TS = st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False)


def _record_lists():
    admit = st.builds(
        lambda j, t, a: {"ev": "admit", "job": j, "t": t, "app": a,
                         "scale": 1.0},
        _JOB_IDS, _TS, st.sampled_from(["alpha", "beta"]),
    )
    hop = st.builds(
        lambda j, t, s: {"ev": "hop", "job": j, "t": t, "stage": s},
        _JOB_IDS, _TS, st.integers(min_value=0, max_value=4),
    )
    retry = st.builds(
        lambda j, t, a: {"ev": "retry", "job": j, "t": t, "stage": 0,
                         "attempt": a},
        _JOB_IDS, _TS, st.integers(min_value=1, max_value=3),
    )
    terminal = st.builds(
        lambda j, t, ev: {"ev": ev, "job": j, "t": t},
        _JOB_IDS, _TS, st.sampled_from(sorted(TERMINAL_EVENTS)),
    )
    return st.lists(st.one_of(admit, hop, retry, terminal), max_size=60)


def _slo(app):
    return 500.0 if app == "alpha" else None


class TestRecoveryPlanProperties:
    @given(records=_record_lists(), cut=st.integers(min_value=0, max_value=60),
           now=st.floats(min_value=0.0, max_value=20_000.0, allow_nan=False))
    @settings(max_examples=120, deadline=None)
    def test_any_prefix_partitions_without_loss_or_duplication(
        self, records, cut, now
    ):
        # The crash can land between any two appends: every prefix of
        # the journal must recover to a total, disjoint partition.
        prefix = records[:cut]
        plan = build_recovery_plan(prefix, now, _slo)

        admitted = {r["job"] for r in prefix if r["ev"] == EV_ADMIT}
        requeue = {j.job_id for j in plan.requeue}
        expired = {j.job_id for j in plan.expired}
        deduped = set(plan.deduped)

        assert requeue | expired | deduped == admitted
        assert plan.admitted == len(admitted)  # disjoint: no double count
        assert not (requeue & expired or requeue & deduped
                    or expired & deduped)

        jobs = replay_journal(prefix)
        for job_id in deduped:
            assert jobs[job_id].terminal in TERMINAL_EVENTS
        for entry in plan.requeue + plan.expired:
            assert jobs[entry.job_id].terminal is None

        # Idempotence: journal the plan's own outcomes, re-derive, and
        # nothing is in flight any more — every admission is deduped.
        settled = prefix + [
            {"ev": EV_COMPLETE, "job": j.job_id, "t": now}
            for j in plan.requeue
        ] + [
            {"ev": "shed", "job": j.job_id, "t": now,
             "reason": RECOVERY_EXPIRED_REASON}
            for j in plan.expired
        ]
        replan = build_recovery_plan(settled, now, _slo)
        assert not replan.requeue and not replan.expired
        assert set(replan.deduped) == admitted

    def test_expiry_respects_slo_budget(self):
        records = [
            {"ev": "admit", "job": 1, "t": 0.0, "app": "alpha"},
            {"ev": "admit", "job": 2, "t": 900.0, "app": "alpha"},
            {"ev": "admit", "job": 3, "t": 0.0, "app": "no-slo"},
        ]
        plan = build_recovery_plan(records, 1000.0, _slo)
        assert [j.job_id for j in plan.expired] == [1]
        assert sorted(j.job_id for j in plan.requeue) == [2, 3]

    def test_progress_records_resume_at_furthest_stage(self):
        records = [
            {"ev": "admit", "job": 7, "t": 0.0, "app": "beta"},
            {"ev": "hop", "job": 7, "t": 10.0, "stage": 2},
            {"ev": "hop", "job": 7, "t": 5.0, "stage": 1},  # stale hop
            {"ev": "retry", "job": 7, "t": 12.0, "stage": 2, "attempt": 2},
        ]
        (entry,) = build_recovery_plan(records, 20.0, _slo).requeue
        assert entry.last_stage == 2
        assert entry.attempts == 2


# ---------------------------------------------------------------------------
# checkpoints


class TestCheckpoint:
    def test_save_load_round_trip_is_atomic(self, tmp_path):
        manager = CheckpointManager(tmp_path, interval_ms=1000.0)
        manager.save({"pools": {"ingest": {"containers": 3}}}, 500.0)
        state = manager.load_latest()
        assert state["pools"]["ingest"]["containers"] == 3
        assert state["version"] == CHECKPOINT_SCHEMA_VERSION
        assert state["t_ms"] == 500.0
        assert not list(tmp_path.glob("*.tmp"))  # no torn artifacts

    def test_maybe_honours_interval(self, tmp_path):
        manager = CheckpointManager(tmp_path, interval_ms=1000.0)
        snapshots = []

        def snap(now_ms):
            snapshots.append(now_ms)
            return {"t": now_ms}

        assert manager.maybe(0.0, snap)
        assert not manager.maybe(999.0, snap)
        assert manager.maybe(1000.0, snap)
        assert snapshots == [0.0, 1000.0]

    def test_load_latest_none_when_absent_rejects_newer_schema(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        assert manager.load_latest() is None
        (tmp_path / CHECKPOINT_BASENAME).write_text(
            json.dumps({"version": CHECKPOINT_SCHEMA_VERSION + 1})
        )
        with pytest.raises(ValueError, match="newer"):
            manager.load_latest()

    def test_statestore_snapshot_restore_round_trip(self):
        store = StateStore(seed=3)
        store.insert("jobs", 1, {"stage": 2})
        store.update("jobs", 1, {"stage": 3})
        snap = store.snapshot()

        fresh = StateStore(seed=3)
        fresh.restore(snap)
        # Document keys come back stringified (JSON object keys).
        assert fresh.collection("jobs") == {"1": {"stage": 3}}
        # The snapshot is a deep copy: mutating the restored store must
        # not leak back into the captured state.
        fresh.update("jobs", "1", {"stage": 9})
        assert snap["collections"]["jobs"]["1"]["stage"] == 3


# ---------------------------------------------------------------------------
# live crash injection


def _durable_options(tmp_path, **kwargs):
    kwargs.setdefault("time_scale", 0.01)
    kwargs.setdefault("journal_dir", str(tmp_path))
    kwargs.setdefault("checkpoint_interval_ms", 1_000.0)
    return ServeOptions(**kwargs)


class TestLiveCrashRecovery:
    def test_gateway_crash_recovers_with_exactly_once_accounting(
        self, tmp_path
    ):
        trace = poisson_trace(20.0, 8.0, seed=11)
        result = serve_trace(
            "rscale", get_mix("light"), trace, seed=11,
            options=_durable_options(tmp_path),
            faults=FaultTimeline.parse("crash-gateway@3"),
            idle_timeout_ms=60_000.0,
        )
        assert result.recoveries == 1
        assert result.n_jobs == trace.arrivals_ms.size
        assert result.jobs_deduped_on_recovery > 0
        conservation = journal_conservation(
            RequestJournal.read_records(tmp_path / JOURNAL_BASENAME))
        assert conservation["conserved"], conservation
        assert conservation["jobs_admitted"] == result.n_jobs
        assert (tmp_path / CHECKPOINT_BASENAME).exists()

    def test_control_crash_respawns_loop_and_run_completes(self, tmp_path):
        trace = poisson_trace(15.0, 8.0, seed=4)
        result = serve_trace(
            "rscale", get_mix("light"), trace, seed=4,
            options=_durable_options(tmp_path),
            faults=FaultTimeline.parse("crash-control@3"),
            idle_timeout_ms=60_000.0,
        )
        assert result.recoveries == 1
        assert result.n_completed + result.n_failed + result.shed_jobs \
            == result.n_jobs
        conservation = journal_conservation(
            RequestJournal.read_records(tmp_path / JOURNAL_BASENAME))
        assert conservation["conserved"], conservation

    def test_crash_injection_requires_journal_dir(self):
        from repro.core.policies import make_policy_config

        crash = FaultTimeline.parse("crash-gateway@1")
        # Refused where a run is described ...
        with pytest.raises(ValueError, match="journal_dir"):
            Scenario.make(
                "rscale", live=ServeOptions(), faults=(("timeline", crash),))
        # ... and where a runtime is built without a description.
        with pytest.raises(ValueError, match="journal_dir"):
            ServingRuntime(
                config=make_policy_config("rscale"), mix=get_mix("light"),
                faults=crash)

    def test_durability_on_without_crash_is_invisible(self, tmp_path):
        # The golden-compatibility half: a journalled, checkpointed run
        # with no crash must behave exactly like a plain run — no
        # recoveries, nothing requeued, every admission conserved.
        trace = poisson_trace(15.0, 6.0, seed=9)
        result = serve_trace(
            "rscale", get_mix("light"), trace, seed=9,
            options=_durable_options(tmp_path),
            idle_timeout_ms=60_000.0,
        )
        assert result.recoveries == 0
        assert result.jobs_requeued_on_recovery == 0
        assert result.jobs_deduped_on_recovery == 0
        assert result.n_completed == result.n_jobs
        assert result.journal_appends > 0
        conservation = journal_conservation(
            RequestJournal.read_records(tmp_path / JOURNAL_BASENAME))
        assert conservation["conserved"], conservation

    def test_defaults_leave_durability_machinery_unbuilt(self):
        from repro.core.policies import make_policy_config

        runtime = ServingRuntime(
            config=make_policy_config("rscale", idle_timeout_ms=60_000.0),
            mix=get_mix("light"),
            seed=2,
            options=ServeOptions(time_scale=0.005),
        )
        result = runtime.run(poisson_trace(10.0, 5.0, seed=2))
        assert runtime.journal is None
        assert runtime.checkpointer is None
        assert result.journal_appends == 0
        assert result.recoveries == 0


# ---------------------------------------------------------------------------
# graceful shutdown + backpressure


class TestShutdownAndBackpressure:
    def test_request_shutdown_drains_and_persists(self, tmp_path):
        from repro.core.policies import make_policy_config

        runtime = ServingRuntime(
            config=make_policy_config("rscale", idle_timeout_ms=60_000.0),
            mix=get_mix("light"),
            seed=6,
            options=_durable_options(
                tmp_path, time_scale=0.02, drain_grace_ms=30_000.0),
        )
        trace = poisson_trace(15.0, 30.0, seed=6)

        async def driver():
            serve = asyncio.ensure_future(runtime.serve(trace))
            await asyncio.sleep(0.15)
            runtime.request_shutdown()
            runtime.request_shutdown()  # idempotent
            return await serve

        result = asyncio.run(driver())
        assert runtime.interrupted
        assert runtime.drain_completed
        # The partial run still settles its books and its durable state.
        assert result.n_jobs < trace.arrivals_ms.size
        conservation = journal_conservation(
            RequestJournal.read_records(tmp_path / JOURNAL_BASENAME))
        assert conservation["conserved"], conservation
        assert (tmp_path / CHECKPOINT_BASENAME).exists()

    def test_max_pending_sheds_are_counted_separately(self):
        trace = poisson_trace(150.0, 3.0, seed=8)
        result = serve_trace(
            "bline", get_mix("light"), trace, seed=8,
            options=ServeOptions(time_scale=0.005, max_pending=2),
            idle_timeout_ms=60_000.0,
        )
        assert result.backpressure_sheds > 0
        assert result.backpressure_sheds <= result.shed_jobs
        assert result.n_completed + result.shed_jobs + result.n_failed \
            == result.n_jobs


# ---------------------------------------------------------------------------
# simulator mirror


class TestSimBlackout:
    def test_blackout_sheds_arrivals_and_counts_one_recovery(self):
        trace = poisson_trace(30.0, 60.0, seed=5)
        blackout = FaultEvent(20_000.0, "blackout", until_ms=35_000.0)
        result = run_policy(
            "rscale", get_mix("medium"), trace,
            faults=FaultTimeline((blackout,)), seed=5,
        )
        baseline = run_policy(
            "rscale", get_mix("medium"), trace, seed=5,
        )
        assert result.recoveries == 1
        assert result.shed_jobs > 0
        assert result.n_jobs == baseline.n_jobs  # sheds still accounted
        assert result.n_completed < baseline.n_completed
        assert baseline.recoveries == 0 and baseline.shed_jobs == 0

    def test_parse_and_validation(self):
        blackout = FaultTimeline.parse("blackout@20:35").window("blackout")
        assert (blackout.at_ms, blackout.until_ms) == (20_000.0, 35_000.0)
        assert blackout.covers(20_000.0)
        assert not blackout.covers(35_000.0)
        with pytest.raises(ValueError):
            FaultTimeline.parse("blackout@35")
        with pytest.raises(ValueError):
            FaultEvent(10.0, "blackout", until_ms=10.0)


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
# atomic artifact writes


class TestAtomicExport:
    def test_atomic_write_replaces_whole_file(self, tmp_path):
        target = tmp_path / "artifact.json"
        atomic_write_json(target, {"run": 1})
        atomic_write_json(target, {"run": 2})
        assert json.loads(target.read_text()) == {"run": 2}
        assert not list(tmp_path.glob("*.tmp"))

    def test_only_durable_artifacts_pay_an_fsync(self, tmp_path, monkeypatch):
        import os

        from repro.core.policies import make_policy_config

        synced = []
        real = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real(fd))[1])
        atomic_write_text(tmp_path / "export.json", "{}\n")
        assert len(synced) == 1
        # A liveness hint is rewritten once a second on the event-loop
        # thread: the heartbeat never syncs.
        ServingRuntime(
            config=make_policy_config("rscale"), mix=get_mix("light"),
            options=ServeOptions(journal_dir=str(tmp_path)),
        )._write_heartbeat(3.0)
        assert json.loads((tmp_path / "heartbeat-0.json").read_text())[
            "t_ms"] == 3.0
        assert len(synced) == 1
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_write_leaves_previous_artifact_intact(self, tmp_path):
        target = tmp_path / "artifact.json"
        atomic_write_text(target, "complete\n")
        with pytest.raises(TypeError):
            atomic_write_text(target, 12345)  # write() rejects non-str
        assert target.read_text() == "complete\n"
        assert not list(tmp_path.glob("*.tmp"))
