"""Arrival traces and time-varying rate profiles."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.typing import ArrayLike


@dataclass(frozen=True)
class RateProfile:
    """A piecewise-constant request rate over time.

    Attributes:
        times_ms: bucket start times, strictly increasing, starting at 0.
        rates_rps: request rate (requests/second) in each bucket.
    """

    times_ms: np.ndarray
    rates_rps: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times_ms, dtype=float)
        rates = np.asarray(self.rates_rps, dtype=float)
        if times.ndim != 1 or rates.ndim != 1 or len(times) != len(rates):
            raise ValueError("times_ms and rates_rps must be 1-D and equal length")
        if len(times) == 0:
            raise ValueError("rate profile must be non-empty")
        if times[0] != 0:
            raise ValueError("rate profile must start at t=0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times_ms must be strictly increasing")
        if np.any(rates < 0):
            raise ValueError("rates must be non-negative")
        object.__setattr__(self, "times_ms", times)
        object.__setattr__(self, "rates_rps", rates)

    @property
    def max_rate(self) -> float:
        return float(self.rates_rps.max())

    @property
    def mean_rate(self) -> float:
        return float(self.rates_rps.mean())

    def rates_at(self, times_ms: ArrayLike) -> np.ndarray:
        """Rate (req/s) in effect at each of *times_ms* — the one bucket
        lookup: a time reads the last bucket starting at or before it,
        a negative time the first."""
        idx = np.searchsorted(self.times_ms, times_ms, side="right") - 1
        return self.rates_rps[np.maximum(idx, 0)]

    def rate_at(self, t_ms: float) -> float:
        """Rate (req/s) in effect at time *t_ms*."""
        return float(self.rates_at(t_ms))

    def scaled(self, factor: float) -> "RateProfile":
        """A profile with every rate multiplied by *factor*."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return RateProfile(self.times_ms.copy(), self.rates_rps * factor)

    def sample_arrivals(
        self, duration_ms: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw arrival timestamps via inhomogeneous-Poisson thinning."""
        lam_max = self.max_rate
        if lam_max <= 0:
            return np.empty(0)
        lam_max_per_ms = lam_max / 1000.0
        # Over-sample homogeneous arrivals at the peak rate, then thin.
        expected = duration_ms * lam_max_per_ms
        n_draw = int(expected + 6 * np.sqrt(expected + 1) + 16)
        gaps = rng.exponential(1.0 / lam_max_per_ms, size=n_draw)
        times = np.cumsum(gaps)
        while times.size and times[-1] < duration_ms:
            more = rng.exponential(1.0 / lam_max_per_ms, size=n_draw)
            times = np.concatenate([times, times[-1] + np.cumsum(more)])
        times = times[times < duration_ms]
        keep_prob = self.rates_at(times) / lam_max
        # A subset of a cumulative sum of non-negative gaps: still ordered.
        return times[rng.random(times.size) < keep_prob]


@dataclass
class ArrivalTrace:
    """An ordered sequence of request arrival timestamps (ms).

    This is the unit the load generator consumes: each timestamp becomes
    one job (an application-chain invocation).
    """

    arrivals_ms: np.ndarray
    name: str = "trace"
    profile: Optional[RateProfile] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.arrivals_ms, dtype=float)
        if arr.ndim != 1:
            raise ValueError("arrivals must be 1-D")
        if arr.size and np.any(np.diff(arr) < 0):
            arr = np.sort(arr)
        if arr.size and arr[0] < 0:
            raise ValueError("arrival times must be non-negative")
        self.arrivals_ms = arr

    def __len__(self) -> int:
        return int(self.arrivals_ms.size)

    @property
    def duration_ms(self) -> float:
        return float(self.arrivals_ms[-1]) if len(self) else 0.0

    @property
    def mean_rate_rps(self) -> float:
        """Average request rate over the trace span."""
        if len(self) < 2:
            return 0.0
        return (len(self) - 1) / (self.duration_ms / 1000.0)

    def rate_series(self, window_ms: float, duration_ms: Optional[float] = None) -> np.ndarray:
        """Requests/second in consecutive windows of *window_ms*."""
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        span = duration_ms if duration_ms is not None else self.duration_ms
        n_windows = max(1, int(np.ceil(span / window_ms)))
        edges = np.arange(n_windows + 1) * window_ms
        counts, _ = np.histogram(self.arrivals_ms, bins=edges)
        return counts / (window_ms / 1000.0)

    def clipped(self, start_ms: float, end_ms: float) -> "ArrivalTrace":
        """Sub-trace in [start, end), re-based to start at 0."""
        mask = (self.arrivals_ms >= start_ms) & (self.arrivals_ms < end_ms)
        return ArrivalTrace(self.arrivals_ms[mask] - start_ms, name=self.name)

    def thinned(self, keep_fraction: float, rng: np.random.Generator) -> "ArrivalTrace":
        """Randomly keep *keep_fraction* of arrivals (rate scaling)."""
        if not 0.0 <= keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in [0, 1]")
        mask = rng.random(len(self)) < keep_fraction
        return ArrivalTrace(self.arrivals_ms[mask], name=f"{self.name}-x{keep_fraction:g}")

    @staticmethod
    def merge(traces: Sequence["ArrivalTrace"], name: str = "merged") -> "ArrivalTrace":
        """Union of several traces' arrivals, time-sorted."""
        if not traces:
            return ArrivalTrace(np.empty(0), name=name)
        merged = np.sort(np.concatenate([t.arrivals_ms for t in traces]))
        return ArrivalTrace(merged, name=name)


def trace_from_profile(
    profile: RateProfile,
    duration_ms: float,
    seed: int,
    name: str,
) -> ArrivalTrace:
    """Sample an :class:`ArrivalTrace` from a rate profile."""
    rng = np.random.default_rng(seed)
    arrivals = profile.sample_arrivals(duration_ms, rng)
    return ArrivalTrace(arrivals, name=name, profile=profile)
