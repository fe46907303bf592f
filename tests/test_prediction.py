"""Tests for the eight load-prediction models and their harness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.prediction import (
    DeepARPredictor,
    EWMAPredictor,
    LinearRegressionPredictor,
    LogisticRegressionPredictor,
    LSTMPredictor,
    MovingWindowAveragePredictor,
    SimpleFeedForwardPredictor,
    WaveNetPredictor,
    default_predictors,
    evaluate_all,
    evaluate_predictor,
    windowed_max_series,
)
from repro.prediction.evaluate import train_test_split
from repro.prediction.nn import Adam, SeriesScaler, clip_gradients, sliding_windows
from repro.prediction.windowed import WindowedMaxSampler
from repro.traces import poisson_trace, wiki_trace


@pytest.fixture(scope="module")
def sine_series():
    """A clean periodic series every decent model should learn."""
    t = np.arange(200)
    return 100.0 + 50.0 * np.sin(2 * np.pi * t / 20.0)


@pytest.fixture(scope="module")
def wiki_series():
    trace = wiki_trace(avg_rps=100.0, duration_s=1200.0, period_s=300.0, seed=5)
    return windowed_max_series(trace)


class TestClassicalPredictors:
    def test_mwa_is_mean_of_window(self):
        p = MovingWindowAveragePredictor(window=3)
        assert p.predict([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(4.0)

    def test_mwa_short_history(self):
        assert MovingWindowAveragePredictor(window=10).predict([5.0]) == 5.0

    def test_ewma_recency_weighting(self):
        p = EWMAPredictor(alpha=0.5)
        # 0.5*4 + 0.5*(0.5*2 + 0.5*0) = 2.5
        assert p.predict([0.0, 2.0, 4.0]) == pytest.approx(2.5)

    def test_ewma_constant_series(self):
        assert EWMAPredictor().predict([7.0] * 10) == pytest.approx(7.0)

    def test_ewma_invalid_alpha(self):
        with pytest.raises(ValueError):
            EWMAPredictor(alpha=0.0)

    def test_linear_extrapolates_trend(self):
        p = LinearRegressionPredictor(window=5)
        assert p.predict([10.0, 20.0, 30.0, 40.0, 50.0]) == pytest.approx(60.0)

    def test_linear_never_negative(self):
        p = LinearRegressionPredictor(window=5)
        assert p.predict([50.0, 40.0, 30.0, 20.0, 10.0]) == pytest.approx(0.0)

    def test_logistic_saturating_ramp(self):
        p = LogisticRegressionPredictor(window=10)
        ramp = [1, 5, 20, 50, 80, 95, 99, 100, 100, 100]
        pred = p.predict([float(x) for x in ramp])
        assert 80.0 <= pred <= 125.0

    def test_logistic_constant_series(self):
        p = LogisticRegressionPredictor()
        assert p.predict([10.0] * 10) == pytest.approx(10.0)

    def test_empty_history_raises(self):
        for p in [MovingWindowAveragePredictor(), EWMAPredictor(),
                  LinearRegressionPredictor(), LogisticRegressionPredictor()]:
            with pytest.raises(ValueError):
                p.predict([])

    def test_predict_horizon_feeds_back(self):
        p = MovingWindowAveragePredictor(window=2)
        path = p.predict_horizon([2.0, 4.0], steps=3)
        assert path.shape == (3,)
        assert path[0] == pytest.approx(3.0)


class TestNNUtilities:
    def test_scaler_roundtrip(self):
        s = SeriesScaler().fit(np.array([0.0, 50.0, 200.0]))
        assert s.transform(np.array([100.0]))[0] == pytest.approx(0.5)
        assert s.inverse(0.5) == pytest.approx(100.0)

    def test_scaler_zero_series(self):
        s = SeriesScaler().fit(np.zeros(5))
        assert s.scale == 1.0

    def test_sliding_windows_shapes(self):
        x, y = sliding_windows(np.arange(10.0), lookback=3)
        assert x.shape == (7, 3)
        assert y.shape == (7,)
        assert list(x[0]) == [0.0, 1.0, 2.0]
        assert y[0] == 3.0

    def test_sliding_windows_too_short(self):
        x, y = sliding_windows(np.arange(3.0), lookback=5)
        assert x.shape == (0, 5)

    def test_adam_reduces_quadratic_loss(self):
        params = {"w": np.array([5.0])}
        opt = Adam(params, lr=0.1)
        for _ in range(200):
            opt.step({"w": 2.0 * params["w"]})  # d/dw of w^2
        assert abs(params["w"][0]) < 0.1

    def test_adam_rejects_unknown_grad(self):
        opt = Adam({"w": np.zeros(1)})
        with pytest.raises(KeyError):
            opt.step({"v": np.zeros(1)})

    def test_clip_gradients(self):
        grads = {"a": np.array([30.0, 40.0])}  # norm 50
        clipped = clip_gradients(grads, max_norm=5.0)
        norm = np.sqrt(np.sum(clipped["a"] ** 2))
        assert norm == pytest.approx(5.0)

    def test_clip_noop_when_small(self):
        grads = {"a": np.array([1.0])}
        assert clip_gradients(grads, max_norm=5.0)["a"][0] == 1.0


class TestNeuralPredictors:
    @pytest.mark.parametrize("factory", [
        lambda: SimpleFeedForwardPredictor(epochs=80, seed=0),
        lambda: LSTMPredictor(epochs=30, hidden=16, layers=1, seed=0),
        lambda: WaveNetPredictor(epochs=40, seed=0),
        lambda: DeepARPredictor(epochs=30, seed=0),
    ])
    def test_learns_periodic_series(self, factory, sine_series):
        model = factory()
        model.fit(sine_series[:150])
        errors = []
        for i in range(150, 195):
            pred = model.predict(sine_series[max(0, i - 20): i])
            errors.append(abs(pred - sine_series[i]))
        rmse = np.sqrt(np.mean(np.square(errors)))
        # Naive last-value RMSE on this sine is ~15.5; learning must beat it.
        assert rmse < 15.0

    def test_predict_before_fit_raises(self):
        for model in [SimpleFeedForwardPredictor(), LSTMPredictor(),
                      WaveNetPredictor(), DeepARPredictor()]:
            with pytest.raises(RuntimeError):
                model.predict([1.0, 2.0])

    def test_fit_too_short_raises(self):
        for model in [SimpleFeedForwardPredictor(lookback=10), LSTMPredictor(lookback=10)]:
            with pytest.raises(ValueError):
                model.fit(np.arange(5.0))

    def test_prediction_non_negative(self, sine_series):
        model = LSTMPredictor(epochs=5, hidden=8, layers=1, seed=0)
        model.fit(sine_series[:100])
        assert model.predict([0.0] * 10) >= 0.0

    def test_short_history_padded(self, sine_series):
        model = SimpleFeedForwardPredictor(epochs=5, seed=0)
        model.fit(sine_series[:100])
        # Shorter history than lookback still predicts.
        assert np.isfinite(model.predict([100.0, 120.0]))

    def test_deterministic_training(self, sine_series):
        a = LSTMPredictor(epochs=5, hidden=8, layers=1, seed=3).fit(sine_series[:100])
        b = LSTMPredictor(epochs=5, hidden=8, layers=1, seed=3).fit(sine_series[:100])
        hist = sine_series[100:110]
        assert a.predict(hist) == pytest.approx(b.predict(hist))

    def test_lstm_training_loss_decreases(self, sine_series):
        model = LSTMPredictor(epochs=20, hidden=16, layers=1, seed=0)
        model.fit(sine_series[:150])
        assert model.train_losses[-1] < model.train_losses[0]


class TestLSTMGradients:
    def test_backprop_matches_numerical_gradient(self):
        """Finite-difference check of the full BPTT implementation."""
        rng = np.random.default_rng(0)
        model = LSTMPredictor(lookback=5, hidden=4, layers=2, seed=1)
        x = rng.random((3, 5))
        y = rng.random(3)

        preds, ctx = model._forward(x)
        grads = model._backward(x, preds, y, ctx)

        def loss():
            p, _ = model._forward(x)
            return float(np.mean((p - y) ** 2))

        eps = 1e-5
        params = model._params()
        for name in ["w0", "w1", "w_out", "b0"]:
            param = params[name]
            flat_idx = (0,) * param.ndim  # probe the first element
            original = param[flat_idx]
            param[flat_idx] = original + eps
            up = loss()
            param[flat_idx] = original - eps
            down = loss()
            param[flat_idx] = original
            numeric = (up - down) / (2 * eps)
            analytic = grads[name][flat_idx]
            assert analytic == pytest.approx(numeric, rel=1e-3, abs=1e-6), name


class TestWindowedMaxSeries:
    def test_offline_series_shape(self):
        trace = poisson_trace(100.0, 120.0, seed=0)
        series = windowed_max_series(trace)
        assert len(series) == 12  # 120 s / 10 s intervals
        # Windowed max of Poisson(100) sits above the mean rate.
        assert series.mean() >= 100.0

    def test_invalid_window(self):
        trace = poisson_trace(10.0, 60.0, seed=0)
        with pytest.raises(ValueError):
            windowed_max_series(trace, interval_ms=5000.0, window_ms=10_000.0)


def _small_sampler():
    # Horizon 30 ms behind the newest arrival, so runs of a few dozen
    # milliseconds prune.
    return WindowedMaxSampler(interval_ms=10.0, window_ms=5.0, lookback_ms=20.0)


#: Runs of non-negative gaps (0 makes ties); a run may be empty.
_gap_runs = st.lists(
    st.lists(st.sampled_from((0.0, 0.0, 0.25, 1.5, 7.0, 31.0)), max_size=12),
    max_size=8,
)


class TestWindowedMaxSampler:
    @given(_gap_runs)
    @settings(max_examples=200, deadline=None)
    def test_record_many_leaves_the_deque_record_leaves(self, runs):
        one, many = _small_sampler(), _small_sampler()
        t = 0.0
        for gaps in runs:
            run = []
            for gap in gaps:
                t += gap
                run.append(t)
            for at in run:
                one.record(at)
            many.record_many(np.array(run))
            assert list(many._arrivals) == list(one._arrivals)
            assert all(type(x) is float for x in many._arrivals)

    def test_out_of_order_raises_as_record_does(self):
        sampler = _small_sampler()
        sampler.record_many([1.0, 2.0, 2.0])
        with pytest.raises(ValueError, match="time order"):
            sampler.record(1.5)
        with pytest.raises(ValueError, match="time order"):
            sampler.record_many([1.5, 3.0])
        with pytest.raises(ValueError, match="time order"):
            sampler.record_many([3.0, 2.5])
        # A refused run records nothing.
        assert list(sampler._arrivals) == [1.0, 2.0, 2.0]


class TestEvaluation:
    def test_split_chronological(self):
        train, test = train_test_split(np.arange(10.0), 0.6)
        assert list(train) == [0, 1, 2, 3, 4, 5]
        assert list(test) == [6, 7, 8, 9]

    def test_split_too_short(self):
        with pytest.raises(ValueError):
            train_test_split([1.0, 2.0], 0.5)

    def test_evaluate_perfect_predictor(self):
        class Oracle(EWMAPredictor):
            name = "oracle"
            def predict(self, history):
                return 42.0

        series = np.full(50, 42.0)
        report = evaluate_predictor(Oracle(), series)
        assert report.rmse == pytest.approx(0.0)
        assert report.accuracy == pytest.approx(1.0)
        assert report.mean_latency_ms >= 0.0

    def test_evaluate_all_returns_report_per_model(self, wiki_series):
        models = [MovingWindowAveragePredictor(), EWMAPredictor()]
        reports = evaluate_all(models, wiki_series)
        assert [r.name for r in reports] == ["MWA", "EWMA"]
        for r in reports:
            assert r.rmse > 0
            assert len(r.predictions) == len(r.actuals)

    def test_default_predictors_are_the_figure6_eight(self):
        names = [p.name for p in default_predictors()]
        assert names == [
            "MWA", "EWMA", "Linear R.", "Logistic R.",
            "Simple FF.", "WeaveNet", "DeepArEst", "LSTM",
        ]

    def test_lstm_beats_naive_on_periodic_trace(self, wiki_series):
        lstm = LSTMPredictor(epochs=30, hidden=16, layers=2, seed=0)
        mwa = MovingWindowAveragePredictor()
        lstm_report = evaluate_predictor(lstm, wiki_series)
        mwa_report = evaluate_predictor(mwa, wiki_series)
        assert lstm_report.rmse < mwa_report.rmse
