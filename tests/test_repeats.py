"""Tests for the seed-repetition harness."""

import pytest

from repro.experiments.repeats import MetricStats, aggregate, repeated_runs
from repro.traces import poisson_trace


class TestMetricStats:
    def test_of_basic(self):
        s = MetricStats.of([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.min == 1.0 and s.max == 3.0
        assert s.n == 3
        assert s.std == pytest.approx(1.0)

    def test_single_value_zero_std(self):
        assert MetricStats.of([5.0]).std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MetricStats.of([])


class TestRepeatedRuns:
    @pytest.fixture(scope="class")
    def batch(self):
        return repeated_runs(
            "rscale", mix_name="light", seeds=(1, 2, 3),
            trace_factory=lambda seed: poisson_trace(12.0, 60.0, seed=seed),
            idle_timeout_ms=60_000.0,
        )

    def test_one_result_per_seed(self, batch):
        assert len(batch) == 3
        for r in batch:
            assert r.n_completed == r.n_jobs

    def test_seeds_produce_distinct_runs(self, batch):
        job_counts = [r.n_jobs for r in batch]
        assert len(set(job_counts)) > 1

    def test_aggregate_shapes(self, batch):
        stats = aggregate(batch)
        assert "avg_containers" in stats
        s = stats["avg_containers"]
        assert s.min <= s.mean <= s.max
        assert s.n == 3

    def test_aggregate_custom_metric(self, batch):
        stats = aggregate(batch, metrics=["peak_containers"])
        assert stats["peak_containers"].n == 3

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            repeated_runs("rscale", seeds=())
        with pytest.raises(ValueError):
            aggregate([])
