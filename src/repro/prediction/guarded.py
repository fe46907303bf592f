"""Online forecast-health monitoring: degrade Fifer to RScale, safely.

The paper's proactive scaler trusts its LSTM unconditionally; section 5
concedes that mispredictions either waste containers or blow the
1000 ms SLO, and the evaluation never exercises a *broken* predictor.
This module closes that gap with a guarded wrapper usable by both the
simulator and the live serving runtime:

* :class:`ForecastHealthMonitor` — a sliding-window MAPE tracker with
  NaN/divergence detection and **hysteresis**: the fallback trips only
  after ``hysteresis`` consecutive unhealthy evaluations and re-arms
  only after ``hysteresis`` consecutive healthy ones, so a single noisy
  window can never flap the control plane.
* :class:`GuardedPredictor` — wraps any :class:`~repro.prediction.base
  .Predictor`; every ``observe()`` scores the previous one-step
  forecast against ground truth.  While ``fallback_active`` the
  proactive scaler suspends pre-spawning — Fifer degrades to RScale
  (reactive-only), the paper's own no-prediction policy — and re-arms
  automatically once the forecast heals.
* :class:`DivergentPredictor` — chaos wrapper that corrupts a healthy
  predictor's forecasts after a configurable number of ticks (scale
  blow-up or NaN), used by the robustness study and the CI smoke to
  exercise the guard end to end.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional, Sequence

import numpy as np

from repro.prediction.base import Predictor

#: APE assigned to an evaluation whose forecast was unusable (NaN/inf
#: or the predictor raised) — large enough to trip any sane threshold.
DIVERGENCE_APE = 1e9
#: Evaluations the window MAPE averages over (six monitor intervals).
MAPE_WINDOW = 6
#: A forecast this many times off its actual is a divergence, not an
#: error to average.
DIVERGENCE_FACTOR = 20.0


class ForecastHealthMonitor:
    """Sliding-window MAPE + divergence detector with hysteresis.

    One evaluation happens per :meth:`record` call (one forecast scored
    against one actual).  The window MAPE is the mean absolute
    percentage error over the last :data:`MAPE_WINDOW` evaluations; an
    evaluation is *unhealthy* when that MAPE exceeds
    ``mape_threshold``, or instantly when the forecast itself was
    non-finite / diverged beyond :data:`DIVERGENCE_FACTOR` times the
    actual.

    Hysteresis: ``fallback_active`` flips only after ``hysteresis``
    consecutive evaluations agree on the new state, and the consecutive
    counters reset on every transition — two transitions are therefore
    always at least ``hysteresis`` evaluations apart (the monotone
    no-flap property the test suite asserts).
    """

    def __init__(self, mape_threshold: float = 0.5,
                 hysteresis: int = 2) -> None:
        if not mape_threshold > 0:
            raise ValueError("mape_threshold must be positive")
        if hysteresis < 1:
            raise ValueError("hysteresis must be >= 1")
        self.mape_threshold = mape_threshold
        self.hysteresis = hysteresis
        self._errors: Deque[float] = deque(maxlen=MAPE_WINDOW)
        self._consecutive_bad = 0
        self._consecutive_good = 0
        self.fallback_active = False
        # Counters (mirrored into the run registry by the scaler).
        self.evaluations = 0
        self.unhealthy_evaluations = 0
        self.divergences = 0
        self.fallbacks = 0
        self.recoveries = 0

    @property
    def healthy(self) -> bool:
        return not self.fallback_active

    @property
    def window_mape(self) -> float:
        """Mean absolute percentage error over the current window."""
        if not self._errors:
            return 0.0
        total = 0.0
        for ape in self._errors:  # left to right: sum() compensates on 3.12+
            total += ape
        return total / len(self._errors)

    def record(self, forecast: float, actual: float) -> None:
        """Score one forecast against its realised actual."""
        ape = self._ape(forecast, actual)
        self._errors.append(ape)
        self._evaluate(instant_divergence=ape >= DIVERGENCE_APE)

    def record_failure(self) -> None:
        """The predictor raised (or emitted non-finite output)."""
        self._errors.append(DIVERGENCE_APE)
        self._evaluate(instant_divergence=True)

    def _ape(self, forecast: float, actual: float) -> float:
        if not math.isfinite(forecast):
            return DIVERGENCE_APE
        denom = max(abs(actual), 1e-9)
        ape = abs(forecast - actual) / denom
        if ape >= DIVERGENCE_FACTOR:
            return DIVERGENCE_APE
        return ape

    def _evaluate(self, instant_divergence: bool) -> None:
        self.evaluations += 1
        if instant_divergence:
            self.divergences += 1
        bad = instant_divergence or self.window_mape > self.mape_threshold
        if bad:
            self.unhealthy_evaluations += 1
            self._consecutive_bad += 1
            self._consecutive_good = 0
        else:
            self._consecutive_good += 1
            self._consecutive_bad = 0
        if not self.fallback_active and self._consecutive_bad >= self.hysteresis:
            self.fallback_active = True
            self.fallbacks += 1
            self._consecutive_bad = 0
            self._consecutive_good = 0
        elif self.fallback_active and self._consecutive_good >= self.hysteresis:
            self.fallback_active = False
            self.recoveries += 1
            self._consecutive_bad = 0
            self._consecutive_good = 0


class GuardedPredictor(Predictor):
    """Wrap any predictor with an online forecast-health guard.

    The wrapper is transparent while healthy: ``predict`` /
    ``predict_horizon`` delegate to the base model, and each
    :meth:`observe` scores the *previous* one-step forecast against the
    newly observed actual.  A base predictor that raises, or emits
    non-finite forecasts, is scored as diverged; past the monitor's
    threshold (with hysteresis) ``fallback_active`` turns on and the
    proactive scaler stops acting on forecasts until the guard re-arms.
    """

    def __init__(self, base: Predictor, mape_threshold: float = 0.5,
                 hysteresis: int = 2) -> None:
        self.base = base
        self.monitor = ForecastHealthMonitor(mape_threshold, hysteresis)
        self.name = f"guarded({base.name})"
        self.trainable = base.trainable
        #: One-step forecast awaiting its ground-truth observation.
        self._pending_forecast: Optional[float] = None

    # -- health surface ----------------------------------------------------

    @property
    def fallback_active(self) -> bool:
        return self.monitor.fallback_active

    @property
    def healthy(self) -> bool:
        return self.monitor.healthy

    # -- predictor interface ----------------------------------------------

    def fit(self, series: Sequence[float]) -> "GuardedPredictor":
        self.base.fit(series)
        return self

    def observe(self, value: float) -> None:
        """Feed one realised actual; scores the pending forecast."""
        if self._pending_forecast is not None:
            self.monitor.record(self._pending_forecast, float(value))
            self._pending_forecast = None
        base_observe = getattr(self.base, "observe", None)
        if base_observe is not None:
            base_observe(value)

    def predict(self, history: Sequence[float]) -> float:
        try:
            value = float(self.base.predict(history))
        except Exception:
            self.monitor.record_failure()
            raise
        if not math.isfinite(value):
            self.monitor.record_failure()
            raise ValueError(f"{self.base.name} produced a non-finite forecast")
        return value

    def predict_horizon(self, history: Sequence[float], steps: int) -> np.ndarray:
        try:
            path = np.asarray(
                self.base.predict_horizon(history, steps), dtype=float
            )
        except Exception:
            self.monitor.record_failure()
            raise
        if path.size == 0 or not np.all(np.isfinite(path)):
            self.monitor.record_failure()
            raise ValueError(f"{self.base.name} produced a non-finite forecast")
        self._pending_forecast = float(path[0])
        return path


class DivergentPredictor(Predictor):
    """Chaos wrapper: corrupt forecasts after ``diverge_after`` ticks.

    ``mode="scale"`` multiplies every forecast by ``factor`` (the
    over-provisioning failure: proactive scaling floods the cluster);
    ``mode="nan"`` returns NaN (the outright-broken model).  The tick
    count advances once per :meth:`predict_horizon` call — the proactive
    scaler's once-per-monitoring-interval cadence.
    """

    def __init__(
        self,
        base: Predictor,
        diverge_after: int,
        factor: float = 25.0,
        mode: str = "scale",
    ) -> None:
        if diverge_after < 0:
            raise ValueError("diverge_after must be >= 0")
        if factor <= 0:
            raise ValueError("factor must be positive")
        if mode not in ("scale", "nan"):
            raise ValueError("mode must be 'scale' or 'nan'")
        self.base = base
        self.diverge_after = diverge_after
        self.factor = factor
        self.mode = mode
        self.name = f"divergent({base.name})"
        self.trainable = base.trainable
        self.ticks = 0

    @property
    def diverged(self) -> bool:
        return self.ticks >= self.diverge_after

    def fit(self, series: Sequence[float]) -> "DivergentPredictor":
        self.base.fit(series)
        return self

    def observe(self, value: float) -> None:
        base_observe = getattr(self.base, "observe", None)
        if base_observe is not None:
            base_observe(value)

    def _corrupt(self, value: float) -> float:
        if self.mode == "nan":
            return float("nan")
        return value * self.factor

    def predict(self, history: Sequence[float]) -> float:
        value = float(self.base.predict(history))
        return self._corrupt(value) if self.diverged else value

    def predict_horizon(self, history: Sequence[float], steps: int) -> np.ndarray:
        path = np.asarray(self.base.predict_horizon(history, steps), dtype=float)
        was_diverged = self.diverged
        self.ticks += 1
        if was_diverged:
            return np.asarray([self._corrupt(v) for v in path])
        return path
