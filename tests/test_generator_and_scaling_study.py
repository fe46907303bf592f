"""Tests for the cluster-scaling study."""

import pytest

from repro.experiments.scaling_study import container_savings, run_scaling_study


class TestScalingStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_scaling_study(
            scales=((0.5, 15.0, 2), (1.0, 30.0, 4)),
            duration_s=90.0,
            seed=3,
        )

    def test_all_scales_complete(self, study):
        assert set(study) == {0.5, 1.0}
        for results in study.values():
            for r in results.values():
                assert r.n_completed == r.n_jobs

    def test_savings_positive_at_every_scale(self, study):
        for scale, results in study.items():
            assert container_savings(results) > 0.2, scale

    def test_savings_zero_for_empty_baseline(self):
        class Fake:
            avg_containers = 0.0
        assert container_savings({"bline": Fake(), "fifer": Fake()}) == 0.0
