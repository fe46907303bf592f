"""Tests for the state store, statistics helpers and metrics collector."""

import numpy as np
import pytest

from repro.cluster.energy import EnergyMeter, NodePowerModel
from repro.cluster.node import Node
from repro.metrics.collector import MetricsCollector, RunResult
from repro.metrics.stats import (
    cdf_points,
    percentile,
    quantiles,
    sorted_quantiles,
    summarize_latencies,
)
from repro.workflow.job import Job, JobStage
from repro.workflow.statestore import StateStore
from repro.workloads import get_application


class TestStateStore:
    def test_insert_and_get(self):
        store = StateStore()
        store.insert("jobs", 1, {"app": "ipa"})
        assert store.get("jobs", 1) == {"app": "ipa"}
        assert store.get("jobs", 2) is None

    def test_update_merges(self):
        store = StateStore()
        store.insert("jobs", 1, {"a": 1})
        store.update("jobs", 1, {"b": 2})
        assert store.get("jobs", 1) == {"a": 1, "b": 2}

    def test_update_upserts(self):
        store = StateStore()
        store.update("jobs", 9, {"x": 1})
        assert store.get("jobs", 9) == {"x": 1}

    def test_find_by_criteria(self):
        store = StateStore()
        store.insert("jobs", 1, {"app": "ipa", "done": True})
        store.insert("jobs", 2, {"app": "img", "done": True})
        store.insert("jobs", 3, {"app": "ipa", "done": False})
        found = store.find("jobs", app="ipa", done=True)
        assert len(found) == 1

    def test_returns_copies_not_references(self):
        store = StateStore()
        store.insert("jobs", 1, {"a": 1})
        doc = store.get("jobs", 1)
        doc["a"] = 999
        assert store.get("jobs", 1)["a"] == 1

    def test_latency_accounting_within_paper_bound(self):
        # Section 6.1.5: average access latency well within 1.25 ms.
        store = StateStore(seed=1)
        for i in range(500):
            store.insert("jobs", i, {"i": i})
            store.get("jobs", i)
        assert store.reads == 500
        assert store.writes == 500
        assert store.mean_access_latency_ms < 1.25

    def test_count(self):
        store = StateStore()
        store.insert("c", 1, {})
        store.insert("c", 2, {})
        assert store.count("c") == 2
        assert store.count("empty") == 0


class TestStatsHelpers:
    def test_percentile_basic(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0
        assert percentile([], 50) == 0.0

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    def test_summary_keys(self):
        s = summarize_latencies([10.0, 20.0, 30.0])
        assert set(s) == {"mean", "p50", "p95", "p99", "max"}
        assert s["mean"] == pytest.approx(20.0)
        assert s["max"] == 30.0

    def test_summary_empty(self):
        assert summarize_latencies([])["p99"] == 0.0

    def test_cdf_points_truncation(self):
        values = list(range(100))
        cut = cdf_points(values, up_to_percentile=95.0)
        assert len(cut) == 95
        assert cut[-1] <= 95

    def test_percentile_single_sample(self):
        # A lone sample is its own percentile for every q.
        for q in (0.0, 37.0, 50.0, 99.0, 100.0):
            assert percentile([42.0], q) == 42.0

    def test_percentile_bounds_checked_before_empty(self):
        # An out-of-range q is a caller bug regardless of sample size.
        with pytest.raises(ValueError):
            percentile([], 150)

    def test_percentile_ignores_nan(self):
        assert percentile([1.0, float("nan"), 3.0], 50) == 2.0
        assert percentile([float("nan")] * 3, 99) == 0.0

    def test_quantiles_ignore_nan(self):
        got = quantiles([10.0, float("nan"), 20.0], (0.0, 100.0))
        assert list(got) == [10.0, 20.0]
        assert list(quantiles([float("nan")], (50.0,))) == [0.0]

    def test_quantiles_match_percentile_loop(self):
        values = [5.0, 1.0, 9.0, 3.0]
        qs = (0.0, 25.0, 50.0, 99.0, 100.0)
        assert list(quantiles(values, qs)) == [
            percentile(values, q) for q in qs
        ]

    def test_sorted_quantiles_single_and_nan_tail(self):
        assert list(sorted_quantiles(np.array([7.0]), (50.0,))) == [7.0]
        # NaNs sort to the tail; they must not leak into the estimate.
        arr = np.array([1.0, 2.0, 3.0, np.nan])
        got = sorted_quantiles(arr, (50.0, 100.0))
        assert list(got) == [2.0, 3.0]

    def test_sorted_quantiles_match_percentile(self):
        arr = np.sort(np.array([4.0, 8.0, 15.0, 16.0, 23.0, 42.0]))
        qs = (10.0, 50.0, 90.0, 95.0)
        assert list(sorted_quantiles(arr, qs)) == list(
            np.percentile(arr, qs)
        )

    def test_summarize_latencies_drops_nan(self):
        s = summarize_latencies([10.0, float("nan"), 30.0])
        assert s["mean"] == pytest.approx(20.0)
        assert s["max"] == 30.0
        assert summarize_latencies([float("nan")])["p99"] == 0.0

    def test_summarize_latencies_single_sample(self):
        s = summarize_latencies([12.5])
        assert s == {
            "mean": 12.5, "p50": 12.5, "p95": 12.5, "p99": 12.5,
            "max": 12.5,
        }


def _completed_job(arrival, latency, app="ipa"):
    job = Job(app=get_application(app), arrival_ms=arrival)
    job.completion_ms = arrival + latency
    per_stage = latency / job.app.n_stages
    for stage in job.stages:
        stage.enqueue_ms = arrival
        stage.start_ms = arrival + per_stage * 0.4
        stage.end_ms = arrival + per_stage
        stage.exec_ms = per_stage * 0.5
        stage.cold_start_wait_ms = per_stage * 0.1
    return job


class TestJobAccounting:
    def test_response_latency(self):
        job = _completed_job(100.0, 500.0)
        assert job.response_latency_ms == 500.0
        assert not job.violated_slo

    def test_violation_flag(self):
        assert _completed_job(0.0, 1500.0).violated_slo

    def test_uncompleted_latency_raises(self):
        job = Job(app=get_application("ipa"), arrival_ms=0.0)
        with pytest.raises(RuntimeError):
            _ = job.response_latency_ms

    def test_stage_breakdown_sums(self):
        job = _completed_job(0.0, 900.0)
        assert job.total_queue_delay_ms == pytest.approx(
            job.total_cold_start_wait_ms + job.total_batching_wait_ms
        )

    def test_remaining_work_decreases_by_stage(self):
        job = Job(app=get_application("detect-fatigue"), arrival_ms=0.0)
        works = [job.remaining_work_ms(i) for i in range(job.app.n_stages)]
        assert works == sorted(works, reverse=True)
        assert works[-1] > 0

    def test_stage_defaults(self):
        stage = JobStage(function="ASR")
        assert stage.queue_delay_ms == 0.0
        assert stage.batching_wait_ms == 0.0


class TestMetricsCollector:
    def _collector(self):
        meter = EnergyMeter(model=NodePowerModel(), interval_ms=10_000.0)
        return MetricsCollector(meter)

    def test_finalize_empty_run(self):
        collector = self._collector()
        result = collector.finalize("bline", "heavy", "t", 0.0, {})
        assert result.n_jobs == 0
        assert result.slo_violation_rate == 0.0
        assert result.avg_containers == 0.0
        assert result.p99_breakdown()["exec_time"] == 0.0

    def test_violation_rate_counts_incomplete(self):
        collector = self._collector()
        for _ in range(8):
            collector.record_job_created()
        for i in range(6):
            collector.record_job_completed(_completed_job(0.0, 500.0))
        result = collector.finalize("x", "m", "t", 1000.0, {})
        assert result.n_incomplete == 2
        assert result.slo_violation_rate == pytest.approx(2 / 8)

    def test_latency_percentiles(self):
        collector = self._collector()
        for latency in [100.0, 200.0, 300.0, 2000.0]:
            collector.record_job_created()
            collector.record_job_completed(_completed_job(0.0, latency))
        result = collector.finalize("x", "m", "t", 1000.0, {})
        assert result.median_latency_ms == pytest.approx(250.0)
        assert result.violations == 1

    def test_sampling_containers(self):
        collector = self._collector()

        class FakePool:
            def sample_containers(self): return 3
        nodes = [Node(node_id=0)]
        collector.sample({"ASR": FakePool()}, nodes, 10_000.0)
        collector.sample({"ASR": FakePool()}, nodes, 20_000.0)
        result = collector.finalize("x", "m", "t", 20_000.0, {})
        assert result.avg_containers == pytest.approx(3.0)
        assert result.peak_containers == 3
        assert result.energy_joules > 0

    def test_stage_distribution_normalised(self):
        collector = self._collector()

        class P:
            def __init__(self, n): self.n = n
            def sample_containers(self): return self.n
        pools = {"A": P(3), "B": P(1)}
        collector.sample(pools, [Node(node_id=0)], 10_000.0)
        result = collector.finalize("x", "m", "t", 10_000.0, {})
        dist = result.stage_container_distribution()
        assert dist["A"] == pytest.approx(0.75)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_cumulative_spawn_series(self):
        result = RunResult(
            policy="x", mix="m", trace="t", duration_ms=30_000.0,
            n_jobs=0, n_completed=0, n_incomplete=0,
            latencies_ms=np.array([]), violations=0,
            exec_ms=np.array([]), cold_wait_ms=np.array([]),
            batch_wait_ms=np.array([]), queue_ms=np.array([]),
            sample_times_ms=np.array([]), container_samples={},
            total_spawns=3, spawns_per_pool={"A": 3},
            spawn_times_ms={"A": [1000.0, 15_000.0, 16_000.0]},
            rpc_per_pool={}, failed_spawns=0,
            energy_joules=0.0, mean_power_w=0.0, mean_active_nodes=0.0,
        )
        series = result.cumulative_spawn_series(10_000.0)
        assert list(series) == [1, 3, 3]
        assert result.cold_starts == 3


class TestRegistryReconciliation:
    """RunResult's counters must equal the metrics registry's totals.

    The collector sums per-pool attributes; those attributes are
    property-backed by registry counters, so the two views can only
    diverge if some mutation bypasses the registry — exactly the drift
    these assertions exist to catch.
    """

    def test_collector_counts_match_registry(self):
        meter = EnergyMeter(model=NodePowerModel(), interval_ms=10_000.0)
        collector = MetricsCollector(meter)
        for _ in range(5):
            collector.record_job_created()
        for _ in range(3):
            collector.record_job_completed(_completed_job(0.0, 500.0))
        reg = collector.registry
        assert reg.value("jobs_created_total") == 5
        assert reg.value("jobs_completed_total") == 3
        assert reg.value("jobs_failed_total") == 0
        assert reg.merged_histogram("request_latency_ms").count == 3

    def test_live_run_resilience_counters_reconcile(self):
        from repro.core.policies import make_policy_config
        from repro.cluster.faults import ContainerFaultModel
        from repro.serve import RetryPolicy, ServeOptions, ServingRuntime
        from repro.traces import poisson_trace
        from repro.workloads import get_mix

        runtime = ServingRuntime(
            config=make_policy_config("rscale", idle_timeout_ms=60_000.0),
            mix=get_mix("light"),
            seed=13,
            options=ServeOptions(
                time_scale=0.005,
                retry=RetryPolicy(max_attempts=2, base_backoff_ms=5.0),
            ),
            fault_model=ContainerFaultModel(crash_probability=0.25),
        )
        result = runtime.run(poisson_trace(12.0, 4.0, seed=13))
        reg = runtime.registry
        # The chaos settings must actually exercise the retry path.
        assert result.container_crashes > 0
        assert reg.total("pool_task_retries_total") == result.task_retries
        assert reg.total("pool_container_crashes_total") \
            == result.container_crashes
        assert reg.total("pool_task_timeouts_total") == result.task_timeouts
        assert reg.total("pool_tasks_dead_lettered_total") \
            == result.dead_lettered
        assert result.dead_lettered == len(runtime.retry_manager.dlq)
        assert reg.value("retry_dead_lettered_total") \
            == len(runtime.retry_manager.dlq)
        assert reg.value("gateway_dead_lettered_total") == result.n_failed
        assert reg.value("jobs_created_total") == result.n_jobs
        assert reg.value("jobs_completed_total") == result.n_completed
        assert reg.value("jobs_failed_total") == result.n_failed
        assert reg.value("gateway_in_flight") == 0
