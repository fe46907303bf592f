"""Forecast-health guard: monitor, guarded wrapper, chaos wrapper."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.prediction.classical import EWMAPredictor
from repro.prediction.guarded import (
    DIVERGENCE_APE,
    DIVERGENCE_FACTOR,
    MAPE_WINDOW,
    DivergentPredictor,
    ForecastHealthMonitor,
    GuardedPredictor,
)


class TestForecastHealthMonitor:
    def test_accurate_forecasts_stay_healthy(self):
        m = ForecastHealthMonitor(mape_threshold=0.5)
        for _ in range(20):
            m.record(forecast=10.0, actual=10.5)
        assert m.healthy
        assert not m.fallback_active
        assert m.fallbacks == 0
        assert m.window_mape < 0.1

    def test_persistent_error_trips_fallback_after_hysteresis(self):
        m = ForecastHealthMonitor(mape_threshold=0.5, hysteresis=2)
        m.record(forecast=100.0, actual=10.0)  # bad #1: not yet
        assert not m.fallback_active
        m.record(forecast=100.0, actual=10.0)  # bad #2: trips
        assert m.fallback_active
        assert m.fallbacks == 1

    def test_recovery_after_healthy_streak(self):
        m = ForecastHealthMonitor(mape_threshold=0.5, hysteresis=2)
        for _ in range(4):
            m.record(forecast=100.0, actual=10.0)
        assert m.fallback_active
        # Window MAPE must drain below threshold (all MAPE_WINDOW
        # evaluations accurate), then hysteresis must agree, before the
        # guard re-arms.
        for _ in range(MAPE_WINDOW):
            m.record(forecast=10.0, actual=10.0)
        assert m.fallback_active
        m.record(forecast=10.0, actual=10.0)
        assert not m.fallback_active
        assert m.recoveries == 1

    def test_non_finite_forecast_is_instant_divergence(self):
        m = ForecastHealthMonitor(mape_threshold=0.5, hysteresis=1)
        m.record(forecast=float("nan"), actual=10.0)
        assert m.divergences == 1
        assert m.fallback_active

    def test_blowup_beyond_divergence_factor_is_divergence(self):
        m = ForecastHealthMonitor(mape_threshold=0.5, hysteresis=1)
        m.record(forecast=10.0 * (DIVERGENCE_FACTOR + 5.0), actual=10.0)
        assert m.divergences == 1

    def test_record_failure_counts_as_divergence(self):
        m = ForecastHealthMonitor(hysteresis=1)
        m.record_failure()
        assert m.divergences == 1
        assert m.fallback_active

    @pytest.mark.parametrize("kwargs", [
        dict(mape_threshold=0.0),
        dict(mape_threshold=-1.0),
        dict(hysteresis=0),
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ForecastHealthMonitor(**kwargs)


class TestHysteresisProperty:
    @given(st.lists(st.booleans(), min_size=1, max_size=120),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=120, deadline=None)
    def test_transitions_at_least_hysteresis_apart(self, bads, hysteresis):
        """The no-flap guarantee: any two state transitions are at
        least ``hysteresis`` evaluations apart, for *any* interleaving
        of healthy and unhealthy windows."""
        # A bad forecast is 2x off (APE 2), so an evaluation is unhealthy
        # while more than a quarter of the window (the last MAPE_WINDOW
        # evaluations) was bad: the list drives the state through it.
        m = ForecastHealthMonitor(mape_threshold=0.5, hysteresis=hysteresis)
        transition_evals = []
        state = m.fallback_active
        for i, bad in enumerate(bads):
            m.record(forecast=30.0 if bad else 10.0, actual=10.0)
            if m.fallback_active != state:
                transition_evals.append(i)
                state = m.fallback_active
        for a, b in zip(transition_evals, transition_evals[1:]):
            assert b - a >= hysteresis
        # And a transition needs at least ``hysteresis`` evaluations of
        # evidence before it can happen at all.
        if transition_evals:
            assert transition_evals[0] >= hysteresis - 1
        assert m.fallbacks - m.recoveries in (0, 1)


class TestGuardedPredictor:
    def _guarded(self, **kwargs):
        base = EWMAPredictor().fit([10.0] * 8)
        return GuardedPredictor(base, mape_threshold=0.5, **kwargs)

    def test_transparent_while_healthy(self):
        g = self._guarded()
        path = g.predict_horizon([10.0] * 8, 3)
        assert path.shape == (3,)
        assert np.all(np.isfinite(path))
        assert g.healthy

    def test_observe_scores_pending_forecast(self):
        g = self._guarded(hysteresis=1)
        g.predict_horizon([10.0] * 8, 1)
        g.observe(10.0)  # accurate
        assert g.monitor.evaluations == 1
        assert g.healthy

    def test_wildly_wrong_forecasts_trigger_fallback(self):
        g = self._guarded(hysteresis=2)
        for _ in range(4):
            g.predict_horizon([10.0] * 8, 1)
            g.observe(10_000.0)  # actual is 1000x the forecast
        assert g.fallback_active
        assert g.monitor.fallbacks == 1

    def test_non_finite_forecast_raises_and_records(self):
        class NaNPredictor(EWMAPredictor):
            def predict(self, history):
                return float("nan")

        g = GuardedPredictor(NaNPredictor().fit([10.0] * 8),
                             mape_threshold=0.5, hysteresis=1)
        with pytest.raises(ValueError):
            g.predict_horizon([10.0] * 8, 3)
        assert g.monitor.divergences == 1

    def test_raising_base_recorded_and_reraised(self):
        class BrokenPredictor(EWMAPredictor):
            def predict(self, history):
                raise RuntimeError("model fell over")

        g = GuardedPredictor(BrokenPredictor().fit([10.0] * 8),
                             mape_threshold=0.5, hysteresis=1)
        with pytest.raises(RuntimeError):
            g.predict_horizon([10.0] * 8, 3)
        assert g.monitor.divergences == 1
        assert g.fallback_active

    def test_name_reflects_wrapping(self):
        g = self._guarded()
        assert g.name == "guarded(EWMA)"


class TestDivergentPredictor:
    def _base(self):
        return EWMAPredictor().fit([10.0] * 8)

    def test_honest_until_diverge_tick(self):
        d = DivergentPredictor(self._base(), diverge_after=2, factor=25.0)
        p1 = d.predict_horizon([10.0] * 8, 1)
        p2 = d.predict_horizon([10.0] * 8, 1)
        p3 = d.predict_horizon([10.0] * 8, 1)
        assert p1[0] == pytest.approx(p2[0])
        assert p3[0] == pytest.approx(p1[0] * 25.0)

    def test_nan_mode(self):
        d = DivergentPredictor(self._base(), diverge_after=0, mode="nan")
        d.predict_horizon([10.0] * 8, 1)  # tick 0 counts, already diverged
        path = d.predict_horizon([10.0] * 8, 2)
        assert np.all(np.isnan(path))

    def test_guard_catches_divergence_end_to_end(self):
        """Guarded(Divergent(ewma)): the exact chain the robustness
        study and CI smoke run — the guard must trip."""
        d = DivergentPredictor(self._base(), diverge_after=1, factor=50.0)
        g = GuardedPredictor(d, mape_threshold=0.5, hysteresis=2)
        for _ in range(6):
            path = g.predict_horizon([10.0] * 8, 1)
            assert np.all(np.isfinite(path))
            g.observe(10.0)  # the world stays at 10 rps
        assert g.fallback_active
        assert g.monitor.divergences > 0

    @pytest.mark.parametrize("kwargs", [
        dict(diverge_after=-1),
        dict(diverge_after=1, factor=0.0),
        dict(diverge_after=1, mode="melt"),
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DivergentPredictor(EWMAPredictor(), **kwargs)

    def test_divergence_ape_sentinel_is_enormous(self):
        assert DIVERGENCE_APE > 1e6
        assert math.isfinite(DIVERGENCE_APE)
