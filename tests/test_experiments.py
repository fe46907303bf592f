"""Tests for the experiment harness (small-parameter runs)."""

import numpy as np
import pytest

from repro.experiments import (
    TABLE6_FEATURES,
    figure2_rows,
    figure3a_rows,
    figure3b_rows,
    format_table,
    make_scaled_trace,
    normalize,
    pretrained_predictor,
    run_prototype,
    run_trace_simulation,
    simulation_cluster,
    table4_rows,
    table6_rows,
    training_series_for,
)
from repro.experiments.features import FEATURES, fifer_features_from_code
from repro.experiments.prototype import prototype_cluster


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [(1, 2.5), ("x", 10_000.0)])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]
        assert "10,000" in out

    def test_format_table_with_title(self):
        out = format_table(["h"], [("v",)], title="T")
        assert out.startswith("T\n")

    def test_normalize(self):
        norm = normalize({"a": 10.0, "b": 5.0}, "a")
        assert norm == {"a": 1.0, "b": 0.5}

    def test_normalize_zero_base_returns_raw(self):
        values = {"a": 0.0, "b": 3.0}
        assert normalize(values, "a") == values

    def test_normalize_missing_base(self):
        with pytest.raises(KeyError):
            normalize({"a": 1.0}, "z")


class TestCharacterization:
    def test_figure2_seven_rows(self):
        rows = figure2_rows(warm_samples=10, seed=0)
        assert len(rows) == 7
        for row in rows:
            name, cold_exec, cold_rtt, warm_exec, warm_rtt, gap = row
            assert cold_rtt > warm_rtt
            assert gap == pytest.approx(cold_rtt - warm_rtt)

    def test_figure3a_shares_sum_to_one(self):
        rows = figure3a_rows()
        apps = {r[0] for r in rows}
        assert len(apps) == 4
        for app in apps:
            assert sum(r[3] for r in rows if r[0] == app) == pytest.approx(1.0)

    def test_figure3b_std_within_20ms(self):
        rows = figure3b_rows(runs=50, seed=0)
        assert len(rows) == 8
        assert all(r[2] < 20.0 for r in rows)

    def test_table4_matches_paper(self):
        rows = table4_rows()
        assert [r[0] for r in rows] == [
            "face-security", "img", "ipa", "detect-fatigue",
        ]
        assert [round(r[2]) for r in rows] == [788, 700, 697, 572]


class TestFeatures:
    def test_fifer_row_all_checked(self):
        assert all(TABLE6_FEATURES["Fifer"].values())

    def test_derived_row_matches_table(self):
        assert fifer_features_from_code() == TABLE6_FEATURES["Fifer"]

    def test_every_framework_covers_every_feature_key(self):
        for feats in TABLE6_FEATURES.values():
            assert set(feats) == set(FEATURES)

    def test_rows_shape(self):
        rows = table6_rows()
        assert len(rows) == 8
        assert all(len(r) == 1 + len(FEATURES) for r in rows)


class TestPredictorPretraining:
    def test_training_series_kinds(self):
        for kind in ("poisson", "wiki", "wits"):
            series = training_series_for(kind, duration_s=400.0, seed=1)
            assert len(series) == 40
            assert np.all(series >= 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            training_series_for("bogus")

    def test_pretrained_predictor_cached(self):
        a = pretrained_predictor("poisson", model="ewma")
        b = pretrained_predictor("poisson", model="ewma")
        assert a is b

    def test_pretrained_unknown_model(self):
        with pytest.raises(ValueError):
            pretrained_predictor("poisson", model="oracle")


class TestPolicyExperiments:
    def test_prototype_small_run(self):
        results = run_prototype(
            "light", policies=["bline", "rscale"],
            duration_s=60.0, mean_rate_rps=20.0, seed=1,
        )
        assert set(results) == {"bline", "rscale"}
        for r in results.values():
            assert r.n_completed == r.n_jobs > 0
            assert r.mix == "light"

    def test_prototype_cluster_is_80_cores(self):
        spec = prototype_cluster()
        assert spec.n_nodes * spec.cores_per_node == 80.0

    def test_simulation_cluster_is_paper_scale(self):
        spec = simulation_cluster()
        assert (spec.n_nodes, spec.cores_per_node) == (156, 16.0)

    def test_scaled_traces(self):
        # The paper's rates: Wiki averages 1500 req/s, WITS 300 req/s
        # with flash crowds peaking near 1200.
        wiki = make_scaled_trace("wiki")
        wits = make_scaled_trace("wits")
        assert wiki.mean_rate_rps == pytest.approx(1500.0, rel=0.02)
        assert wits.mean_rate_rps == pytest.approx(300.0, rel=0.05)
        assert wits.profile.max_rate == pytest.approx(1200.0, rel=0.1)
        with pytest.raises(ValueError):
            make_scaled_trace("nasdaq")

    def test_trace_memo_keeps_only_scalars(self, monkeypatch):
        from repro.experiments import simulation

        small = dict(policies=["bline"], duration_s=5.0, seed=2)
        monkeypatch.setattr(simulation, "_TRACE_CACHE", {})
        real = simulation.run_trace_simulation
        monkeypatch.setattr(
            simulation, "run_trace_simulation",
            lambda kind, mix: real(kind, mix, **small))
        cell = simulation.cached_trace_simulation("wits", "light")["bline"]
        assert simulation.cached_trace_simulation("wits", "light")["bline"] \
            is cell
        assert not any(isinstance(value, np.ndarray)
                       for cells in simulation._TRACE_CACHE.values()
                       for row in cells.values() for value in row)
        result = real("wits", "light", **small)["bline"]
        assert cell == tuple(getattr(result, name) for name in cell._fields)

    def test_trace_simulation_small_run(self):
        results = run_trace_simulation(
            "wits", "light", policies=["bline", "sbatch"],
            duration_s=90.0, seed=2,
        )
        assert set(results) == {"bline", "sbatch"}
        for r in results.values():
            assert r.n_jobs > 0
            assert r.trace == "wits"
