"""Figure 6 predictor comparison and pre-training for policy runs.

The paper pre-trains its ML forecasters on 60% of the WITS arrival
trace; the policy experiments then hand Fifer an already-trained LSTM.
Training is cached per (model, trace-kind, seed) so repeated benches do
not re-train.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.prediction import (
    LSTMPredictor,
    PredictorReport,
    default_predictors,
    evaluate_all,
    windowed_max_series,
)
from repro.prediction.base import Predictor
from repro.runtime.system import _UNTRAINED_PREDICTORS
from repro.traces import step_poisson_trace, wiki_trace, wits_trace

#: Compact training settings: a fraction of the paper's 100 epochs is
#: plenty at this series length and keeps benches quick.
LSTM_SETTINGS = dict(epochs=40, hidden=32, layers=2, lookback=12)

_SERIES_CACHE: Dict[Tuple, np.ndarray] = {}
_PREDICTOR_CACHE: Dict[Tuple, Predictor] = {}


def training_series_for(
    kind: str,
    duration_s: float = 1800.0,
    mean_rate_rps: float = 50.0,
    seed: int = 99,
) -> np.ndarray:
    """Windowed-max rate series of a *kind* trace, for offline training.

    ``kind`` is one of ``poisson`` (the prototype's fluctuating Poisson),
    ``wiki`` or ``wits``; the generated trace shares the distribution of
    the corresponding evaluation trace but uses an independent seed —
    i.e. the predictor has seen the *pattern*, never the test data.
    """
    key = (kind, duration_s, mean_rate_rps, seed)
    if key not in _SERIES_CACHE:
        if kind == "poisson":
            trace = step_poisson_trace(
                mean_rate_rps, duration_s, variation=0.4, seed=seed
            )
        elif kind == "wiki":
            trace = wiki_trace(
                avg_rps=mean_rate_rps, duration_s=duration_s, seed=seed
            )
        elif kind == "wits":
            trace = wits_trace(
                avg_rps=mean_rate_rps,
                peak_rps=mean_rate_rps * 4.0,
                duration_s=duration_s,
                seed=seed,
            )
        else:
            raise ValueError(f"unknown trace kind {kind!r}")
        _SERIES_CACHE[key] = windowed_max_series(trace)
    return _SERIES_CACHE[key]


def pretrained_predictor(
    kind: str,
    mean_rate_rps: float = 50.0,
    seed: int = 99,
    model: str = "lstm",
) -> Predictor:
    """A trained forecaster for policy runs on a *kind* trace (cached)."""
    key = (model, kind, mean_rate_rps, seed)
    if key not in _PREDICTOR_CACHE:
        series = training_series_for(kind, mean_rate_rps=mean_rate_rps, seed=seed)
        if model == "lstm":
            predictor: Predictor = LSTMPredictor(seed=seed, **LSTM_SETTINGS)
        else:
            candidates = {p.name.lower(): p for p in default_predictors(seed=seed)}
            if model.lower() not in candidates:
                raise ValueError(f"unknown predictor {model!r}")
            predictor = candidates[model.lower()]
        if predictor.trainable:
            predictor.fit(series)
        _PREDICTOR_CACHE[key] = predictor
    return _PREDICTOR_CACHE[key]


def predictor_for_run(
    wanted: Optional[str], trace_kind: str, rate_rps: float
) -> Optional[Predictor]:
    """The forecaster a run must be handed — the one training rule: the
    policy's ``proactive_predictor`` (*wanted*) pre-trained on
    ``poisson`` for every trace kind containing it (``poisson``,
    ``step-poisson``), else on the kind itself; None when the policy
    has no proactive tier or the system builds *wanted* untrained."""
    if wanted is None or wanted.lower() in _UNTRAINED_PREDICTORS:
        return None
    train_kind = "poisson" if "poisson" in trace_kind else trace_kind
    # LSTM is pretrained_predictor's default model.
    model = {} if wanted == "lstm" else {"model": wanted}
    return pretrained_predictor(train_kind, mean_rate_rps=rate_rps, **model)


def figure6_reports(
    duration_s: float = 2400.0,
    avg_rps: float = 300.0,
    peak_rps: float = 1200.0,
    seed: int = 11,
) -> List[PredictorReport]:
    """Figure 6a/6b: all eight models on a WITS-like series.

    Defaults mirror the paper's WITS shape (avg 300 req/s, peak 1200);
    models train on the first 60% and forecast the rest walk-forward.
    """
    trace = wits_trace(
        avg_rps=avg_rps, peak_rps=peak_rps, duration_s=duration_s, seed=seed
    )
    series = windowed_max_series(trace)
    return evaluate_all(default_predictors(seed=seed), series)
