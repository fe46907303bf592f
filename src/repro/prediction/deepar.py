"""DeepAR-style probabilistic forecaster ("DeepArEst" in Figure 6a).

An autoregressive recurrent network that outputs the parameters of a
Gaussian predictive distribution and is trained by maximum likelihood
(negative log-likelihood loss), following Salinas et al.'s DeepAR.  The
point forecast used by the resource manager is the predictive mean.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.prediction.base import Predictor
from repro.prediction.lstm import _LSTMLayer
from repro.prediction.nn import (
    Adam,
    SeriesScaler,
    clip_gradients,
    glorot,
    sliding_windows,
    softplus,
)

_SIGMA_FLOOR = 1e-3


class DeepARPredictor(Predictor):
    """LSTM encoder with a Gaussian (mu, sigma) output head."""

    name = "DeepArEst"
    trainable = True

    def __init__(
        self,
        lookback: int = 10,
        hidden: int = 24,
        epochs: int = 40,
        lr: float = 5e-3,
        batch_size: int = 32,
        seed: int = 0,
    ) -> None:
        if lookback < 1 or hidden < 1 or epochs < 1:
            raise ValueError("lookback, hidden and epochs must be >= 1")
        self.lookback = lookback
        self.hidden = hidden
        self.epochs = epochs
        self.lr = lr
        self.batch_size = batch_size
        self.seed = seed
        self.scaler = SeriesScaler()
        rng = np.random.default_rng(seed)
        self.rnn = _LSTMLayer(1, hidden, rng)
        self.params: Dict[str, np.ndarray] = {
            "w_rnn": self.rnn.w,
            "b_rnn": self.rnn.b,
            "w_mu": glorot(rng, (hidden, 1)),
            "b_mu": np.zeros(1),
            "w_sigma": glorot(rng, (hidden, 1)),
            "b_sigma": np.zeros(1),
        }
        self._trained = False

    def _forward(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, list, np.ndarray]:
        """x: (B, T). Returns (mu, sigma, caches, final_h)."""
        hs, caches = self.rnn.forward(x[:, :, None])
        final_h = hs[:, -1, :]
        mu = (final_h @ self.params["w_mu"] + self.params["b_mu"])[:, 0]
        raw = (final_h @ self.params["w_sigma"] + self.params["b_sigma"])[:, 0]
        sigma = softplus(raw) + _SIGMA_FLOOR
        return mu, sigma, caches, final_h

    def fit(self, series: Sequence[float]) -> "DeepARPredictor":
        arr = np.asarray(series, dtype=float)
        if arr.size < self.lookback + 2:
            raise ValueError(f"series too short: need > {self.lookback + 1} points")
        self.scaler.fit(arr)
        scaled = self.scaler.transform(arr)
        x, y = sliding_windows(scaled, self.lookback)
        rng = np.random.default_rng(self.seed + 1)
        opt = Adam(self.params, lr=self.lr)
        n = x.shape[0]
        hid = self.hidden
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for lo in range(0, n, self.batch_size):
                idx = order[lo : lo + self.batch_size]
                xb, yb = x[idx], y[idx]
                mu, sigma, caches, final_h = self._forward(xb)
                batch = xb.shape[0]
                # Gaussian NLL gradients.
                inv_var = 1.0 / sigma**2
                dmu = (mu - yb) * inv_var / batch
                dsigma = (1.0 / sigma - (yb - mu) ** 2 / sigma**3) / batch
                # Through softplus: d raw = dsigma * sigmoid(raw); recover
                # sigmoid(raw) from sigma: softplus'(x) = 1 - exp(-softplus(x)).
                dsig_draw = 1.0 - np.exp(-(sigma - _SIGMA_FLOOR))
                draw = dsigma * dsig_draw
                grads: Dict[str, np.ndarray] = {
                    "w_mu": final_h.T @ dmu[:, None],
                    "b_mu": np.array([dmu.sum()]),
                    "w_sigma": final_h.T @ draw[:, None],
                    "b_sigma": np.array([draw.sum()]),
                }
                dfinal = (
                    dmu[:, None] @ self.params["w_mu"].T
                    + draw[:, None] @ self.params["w_sigma"].T
                )
                dhs = np.zeros((batch, xb.shape[1], hid))
                dhs[:, -1, :] = dfinal
                _, dw, db = self.rnn.backward(dhs, caches)
                grads["w_rnn"] = dw
                grads["b_rnn"] = db
                opt.step(clip_gradients(grads))
        self._trained = True
        return self

    def _window(self, history: Sequence[float]) -> np.ndarray:
        arr = self._as_history(history)
        scaled = self.scaler.transform(arr)
        if scaled.size < self.lookback:
            scaled = np.concatenate(
                [np.full(self.lookback - scaled.size, scaled[0]), scaled]
            )
        return scaled[-self.lookback :][None, :]

    def predict(self, history: Sequence[float]) -> float:
        """Point forecast: the predictive mean."""
        if not self._trained:
            raise RuntimeError("predictor not trained; call fit() first")
        mu, _, _, _ = self._forward(self._window(history))
        return max(0.0, self.scaler.inverse(float(mu[0])))
