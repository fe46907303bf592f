"""Load-prediction models (section 4.5 / Figure 6).

Fifer compares four non-ML forecasters — Moving Window Average (MWA),
Exponentially Weighted Moving Average (EWMA), Linear Regression and
Logistic Regression — against four ML forecasters — a simple
feed-forward network, a WaveNet-style dilated causal CNN, a DeepAR-style
probabilistic RNN and an LSTM — and picks the LSTM (lowest RMSE).

All models here are implemented from scratch on numpy (no TensorFlow in
this environment); they consume the same *windowed-max* arrival-rate
series the paper feeds its predictor: sampling interval T = 10 s,
adjacent windows Ws = 5 s over the past 100 s, forecasting the max
arrival rate of the next interval.
"""

from repro.prediction.base import Predictor
from repro.prediction.windowed import WindowedMaxSampler, windowed_max_series
from repro.prediction.classical import (
    EWMAPredictor,
    LinearRegressionPredictor,
    LogisticRegressionPredictor,
    MovingWindowAveragePredictor,
)
from repro.prediction.feedforward import SimpleFeedForwardPredictor
from repro.prediction.lstm import LSTMPredictor
from repro.prediction.wavenet import WaveNetPredictor
from repro.prediction.deepar import DeepARPredictor
from repro.prediction.evaluate import PredictorReport, evaluate_predictor, evaluate_all

__all__ = [
    "Predictor",
    "WindowedMaxSampler",
    "windowed_max_series",
    "MovingWindowAveragePredictor",
    "EWMAPredictor",
    "LinearRegressionPredictor",
    "LogisticRegressionPredictor",
    "SimpleFeedForwardPredictor",
    "LSTMPredictor",
    "WaveNetPredictor",
    "DeepARPredictor",
    "PredictorReport",
    "evaluate_predictor",
    "evaluate_all",
    "default_predictors",
]


def default_predictors(seed: int = 0):
    """The eight Figure 6 models with paper-faithful settings."""
    return [
        MovingWindowAveragePredictor(),
        EWMAPredictor(),
        LinearRegressionPredictor(),
        LogisticRegressionPredictor(),
        SimpleFeedForwardPredictor(seed=seed),
        WaveNetPredictor(seed=seed),
        DeepARPredictor(seed=seed),
        LSTMPredictor(seed=seed),
    ]
