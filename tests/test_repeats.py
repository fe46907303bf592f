"""Tests for the seed-repetition statistics and a repeat batch."""

import pytest

from repro.experiments.repeats import (
    DEFAULT_METRICS,
    MetricStats,
    aggregate_summaries,
)
from repro.experiments.runner import ExperimentRunner, derive_seeds
from repro.scenario import Scenario


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
    """A repeat batch the one way there is to run one: a scenario per
    derived seed through the experiment runner, folded by
    ``aggregate_summaries`` (what ``repro run --repeats`` does)."""

    @pytest.fixture(scope="class")
    def batch(self):
        specs = [Scenario.make("rscale", mix="light", trace_kind="poisson",
                               rate_rps=12.0, duration_s=60.0, seed=seed)
                 for seed in derive_seeds(1, 3)]
        return ExperimentRunner().run_summaries(specs)

    def test_one_result_per_seed(self, batch):
        assert len(batch) == 3
        for summary in batch:
            assert summary["completed"] == summary["jobs"]

    def test_seeds_produce_distinct_runs(self, batch):
        assert len({summary["jobs"] for summary in batch}) > 1

    def test_aggregate_shapes(self, batch):
        stats = aggregate_summaries(batch)
        assert set(stats) == set(DEFAULT_METRICS)
        s = stats["avg_containers"]
        assert s.min <= s.mean <= s.max
        assert s.n == 3

    def test_aggregate_custom_metric(self, batch):
        stats = aggregate_summaries(batch, metrics=["mean_active_nodes"])
        assert stats["mean_active_nodes"].n == 3

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            aggregate_summaries([])
