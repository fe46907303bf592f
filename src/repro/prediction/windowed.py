"""Windowed-max sampling of the arrival process (section 4.5).

"For a periodic monitoring interval (T) of 10 s, Fifer samples the
arrival rate in adjacent windows of size Ws (5 s) over the past 100
seconds.  It keeps track of the maximum arrival rate at each window and
calculates the global maximum arrival rate."

This module converts raw arrival timestamps into that series: the
per-interval *maximum* of the Ws-window arrival rates, which is what
every predictor trains on and forecasts.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.traces.base import ArrivalTrace

#: Paper defaults.
MONITOR_INTERVAL_MS = 10_000.0
SAMPLE_WINDOW_MS = 5_000.0
LOOKBACK_MS = 100_000.0


def windowed_max_series(
    trace: ArrivalTrace,
    interval_ms: float = MONITOR_INTERVAL_MS,
    window_ms: float = SAMPLE_WINDOW_MS,
    duration_ms: Optional[float] = None,
) -> np.ndarray:
    """Per-interval max of window arrival rates (req/s), oldest first.

    Interval *k* covers ``[k*T, (k+1)*T)`` and reports the maximum rate
    among its Ws-sized sub-windows.
    """
    if interval_ms <= 0 or window_ms <= 0:
        raise ValueError("interval and window must be positive")
    if window_ms > interval_ms:
        raise ValueError("window must not exceed the monitoring interval")
    span = duration_ms if duration_ms is not None else trace.duration_ms
    fine = trace.rate_series(window_ms, duration_ms=span)
    per_interval = max(1, int(round(interval_ms / window_ms)))
    n_intervals = int(np.ceil(len(fine) / per_interval))
    out = np.empty(n_intervals)
    for k in range(n_intervals):
        chunk = fine[k * per_interval : (k + 1) * per_interval]
        out[k] = chunk.max() if chunk.size else 0.0
    return out


class WindowedMaxSampler:
    """Online version used inside the running system.

    Arrivals are recorded as they happen; :meth:`series` returns the
    windowed-max history over the configured lookback, ready to hand to
    a :class:`~repro.prediction.base.Predictor`.
    """

    def __init__(
        self,
        interval_ms: float = MONITOR_INTERVAL_MS,
        window_ms: float = SAMPLE_WINDOW_MS,
        lookback_ms: float = LOOKBACK_MS,
    ) -> None:
        if window_ms > interval_ms:
            raise ValueError("window must not exceed the monitoring interval")
        if lookback_ms < interval_ms:
            raise ValueError("lookback must cover at least one interval")
        self.interval_ms = interval_ms
        self.window_ms = window_ms
        self.lookback_ms = lookback_ms
        self._arrivals: Deque[float] = deque()

    def record(self, t_ms: float) -> None:
        """Record one arrival at time *t_ms* (non-decreasing order)."""
        if self._arrivals and t_ms < self._arrivals[-1]:
            raise ValueError("arrivals must be recorded in time order")
        self._arrivals.append(t_ms)
        self._prune(t_ms)

    def record_many(self, times_ms) -> None:
        """Record a run of arrivals (non-decreasing order) in one call.

        Leaves exactly the deque one :meth:`record` per element leaves:
        the deque stays sorted, so pruning to each element's horizon in
        turn removes what pruning to the last one's removes.  Out-of-order
        input raises the same ``ValueError``, before anything is recorded.
        """
        values = np.asarray(times_ms, dtype=np.float64)
        if values.size == 0:
            return
        arrivals = self._arrivals
        if (arrivals and values[0] < arrivals[-1]) or bool(
                np.any(values[1:] < values[:-1])):
            raise ValueError("arrivals must be recorded in time order")
        floats = values.tolist()
        arrivals.extend(floats)
        self._prune(floats[-1])

    def _prune(self, now_ms: float) -> None:
        horizon = now_ms - self.lookback_ms - self.interval_ms
        while self._arrivals and self._arrivals[0] < horizon:
            self._arrivals.popleft()

    def series(self, now_ms: float) -> np.ndarray:
        """Windowed-max rate series covering [now - lookback, now)."""
        start = max(0.0, now_ms - self.lookback_ms)
        n_intervals = max(1, int(round((now_ms - start) / self.interval_ms)))
        arr = np.asarray(self._arrivals)
        out = np.zeros(n_intervals)
        per_interval = max(1, int(round(self.interval_ms / self.window_ms)))
        for k in range(n_intervals):
            lo = start + k * self.interval_ms
            best = 0.0
            for w in range(per_interval):
                wlo = lo + w * self.window_ms
                whi = min(wlo + self.window_ms, now_ms)
                if whi <= wlo:
                    continue
                count = int(np.searchsorted(arr, whi) - np.searchsorted(arr, wlo))
                best = max(best, count / ((whi - wlo) / 1000.0))
            out[k] = best
        return out
