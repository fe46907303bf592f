"""Tests for the knob-sweep harness and the report generator."""

import pytest

from repro.experiments.summary import ReportScale, generate_report
from repro.experiments.sweeps import (
    idle_timeout_sweep,
    max_batch_sweep,
    sweep_config_field,
)
from repro.scenario import Scenario
from repro.traces import poisson_trace


@pytest.fixture(scope="module")
def tiny_trace():
    return poisson_trace(15.0, 60.0, seed=1)


class TestSweeps:
    def test_sweep_unknown_field(self):
        with pytest.raises(ValueError, match="not an RMConfig field"):
            sweep_config_field("rscale", "warp_factor", [1])

    def test_sweep_refuses_a_bad_value_before_running(self, monkeypatch):
        monkeypatch.setattr(Scenario, "run",
                            lambda *args, **kwargs: pytest.fail("a point ran"))
        with pytest.raises(ValueError, match="max_batch"):
            sweep_config_field("rscale", "max_batch", [4, "many"])

    def test_sweep_empty_values(self):
        with pytest.raises(ValueError, match="at least one value"):
            sweep_config_field("rscale", "max_batch", [])

    def test_sweep_runs_per_value(self, tiny_trace):
        results = sweep_config_field(
            "rscale", "max_batch", [1, 8],
            mix_name="light", trace=tiny_trace, seed=2,
        )
        assert set(results) == {1, 8}
        for r in results.values():
            assert r.n_completed == r.n_jobs

    def test_max_batch_one_degenerates_to_nonbatching(self, tiny_trace):
        results = sweep_config_field(
            "rscale", "max_batch", [1, 16],
            mix_name="light", trace=tiny_trace, seed=2,
        )
        # A cap of 1 forces one request per container: never fewer
        # containers than the batched variant.
        assert results[1].avg_containers >= results[16].avg_containers

    def test_named_sweeps_smoke(self, tiny_trace):
        for sweep in (idle_timeout_sweep, max_batch_sweep):
            results = sweep(
                mix_name="light", trace=tiny_trace, seed=2,
            ) if sweep is not max_batch_sweep else sweep(
                caps=[2, 8], mix_name="light", trace=tiny_trace, seed=2,
            )
            assert len(results) >= 2


class TestReportGenerator:
    def test_quick_report_without_traces(self):
        scale = ReportScale(
            prototype_duration_s=45.0,
            trace_duration_s=60.0,
            predictor_duration_s=600.0,
            mixes=("light",),
        )
        report = generate_report(scale=scale, include_traces=False, seed=2)
        assert report.startswith("# Fifer reproduction")
        assert "Figure 2" in report
        assert "Table 4" in report
        assert "light mix" in report
        assert "Table 6" in report
        assert "wiki" not in report  # traces skipped
        # Every policy row rendered.
        for policy in ("bline", "sbatch", "rscale", "bpred", "fifer"):
            assert policy in report

    def test_scales(self):
        assert ReportScale.quick().prototype_duration_s < \
            ReportScale.full().prototype_duration_s
        assert ReportScale.full().mixes == ("heavy", "medium", "light")
