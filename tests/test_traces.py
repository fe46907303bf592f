"""Tests for the arrival-trace substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.traces import (
    ArrivalTrace,
    RateProfile,
    poisson_trace,
    step_poisson_trace,
    wiki_rate_profile,
    wiki_trace,
    wits_rate_profile,
    wits_trace,
)


class TestRateProfile:
    def test_basic_lookup(self):
        p = RateProfile(np.array([0.0, 1000.0]), np.array([10.0, 20.0]))
        assert p.rate_at(0.0) == 10.0
        assert p.rate_at(999.0) == 10.0
        assert p.rate_at(1000.0) == 20.0
        assert p.rate_at(5000.0) == 20.0

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            RateProfile(np.array([10.0]), np.array([5.0]))

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            RateProfile(np.array([0.0, 0.0]), np.array([1.0, 2.0]))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            RateProfile(np.array([0.0]), np.array([-1.0]))

    def test_scaled(self):
        p = RateProfile(np.array([0.0]), np.array([10.0]))
        assert p.scaled(2.0).rates_rps[0] == 20.0
        assert p.scaled(0.0).rates_rps[0] == 0.0

    def test_mean_and_max(self):
        p = RateProfile(np.array([0.0, 1000.0]), np.array([10.0, 30.0]))
        assert p.max_rate == 30.0
        assert p.mean_rate == 20.0

    def test_sample_arrivals_rate_accuracy(self):
        p = RateProfile(np.array([0.0]), np.array([100.0]))
        rng = np.random.default_rng(0)
        arrivals = p.sample_arrivals(60_000.0, rng)
        # 100 req/s for 60 s -> ~6000 arrivals (within 5%).
        assert 5700 <= arrivals.size <= 6300
        assert np.all(np.diff(arrivals) >= 0)
        assert arrivals[-1] < 60_000.0

    def test_sample_zero_rate(self):
        p = RateProfile(np.array([0.0]), np.array([0.0]))
        assert p.sample_arrivals(1000.0, np.random.default_rng(0)).size == 0

    def test_thinning_respects_profile_shape(self):
        # Second half has 4x the rate of the first half.
        p = RateProfile(np.array([0.0, 30_000.0]), np.array([20.0, 80.0]))
        arrivals = p.sample_arrivals(60_000.0, np.random.default_rng(1))
        first = np.sum(arrivals < 30_000.0)
        second = np.sum(arrivals >= 30_000.0)
        assert 2.5 < second / first < 6.0


@st.composite
def profiles_and_times(draw):
    """A valid profile plus lookup times that lean on its corners:
    negative, exactly on a bucket edge, one ulp either side of an edge,
    past the last bucket, ``1e9``."""
    widths = draw(st.lists(
        st.floats(min_value=1e-3, max_value=1e6), min_size=0, max_size=8))
    starts = np.concatenate([[0.0], np.cumsum(widths)])
    rates = draw(st.lists(
        st.floats(min_value=0.0, max_value=1e4),
        min_size=len(starts), max_size=len(starts)))
    edge = st.sampled_from(list(starts))
    times = draw(st.lists(st.one_of(
        st.floats(min_value=-1e6, max_value=2e7),
        edge,
        edge.map(lambda t: float(np.nextafter(t, -np.inf))),
        edge.map(lambda t: float(np.nextafter(t, np.inf))),
        st.just(1e9),
    ), min_size=0, max_size=20))
    return RateProfile(starts, np.array(rates)), times


class TestRateLookup:
    """``rates_at`` is the only bucket lookup under ``traces/``."""

    @staticmethod
    def _reference(profile, t):
        """The documented scalar semantics, by linear scan: the last
        bucket starting at or before *t*; the first one for t < 0."""
        bucket = 0
        for i, start in enumerate(profile.times_ms):
            if start <= t:
                bucket = i
        return profile.rates_rps[bucket]

    @given(profiles_and_times())
    @settings(max_examples=200, deadline=None)
    def test_rates_at_matches_scalar_semantics(self, case):
        profile, times = case
        looked_up = profile.rates_at(np.array(times, dtype=float))
        assert looked_up.shape == (len(times),)
        for t, rate in zip(times, looked_up):
            assert rate == self._reference(profile, t)
            assert profile.rate_at(t) == rate

    def test_rate_at_returns_a_python_float(self):
        p = RateProfile(np.array([0.0, 1000.0]), np.array([10.0, 20.0]))
        assert type(p.rate_at(-5.0)) is float
        assert p.rate_at(-5.0) == 10.0


class TestArrivalTrace:
    def test_length_and_duration(self):
        t = ArrivalTrace(np.array([0.0, 500.0, 1500.0]))
        assert len(t) == 3
        assert t.duration_ms == 1500.0

    def test_unsorted_input_gets_sorted(self):
        t = ArrivalTrace(np.array([5.0, 1.0, 3.0]))
        assert list(t.arrivals_ms) == [1.0, 3.0, 5.0]

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            ArrivalTrace(np.array([-1.0, 2.0]))

    def test_mean_rate(self):
        t = ArrivalTrace(np.linspace(0, 10_000, 101))  # 100 gaps over 10 s
        assert t.mean_rate_rps == pytest.approx(10.0)

    def test_rate_series_counts(self):
        t = ArrivalTrace(np.array([100.0, 200.0, 1100.0, 1200.0, 1300.0]))
        series = t.rate_series(1000.0, duration_ms=2000.0)
        assert series.shape == (2,)
        assert series[0] == pytest.approx(2.0)
        assert series[1] == pytest.approx(3.0)

    def test_clipped_rebases(self):
        t = ArrivalTrace(np.array([100.0, 600.0, 1100.0]))
        sub = t.clipped(500.0, 1200.0)
        assert list(sub.arrivals_ms) == [100.0, 600.0]

    def test_thinned_fraction(self):
        t = ArrivalTrace(np.arange(10_000, dtype=float))
        thin = t.thinned(0.5, np.random.default_rng(0))
        assert 4500 <= len(thin) <= 5500

    def test_thinned_invalid_fraction(self):
        t = ArrivalTrace(np.array([1.0]))
        with pytest.raises(ValueError):
            t.thinned(1.5, np.random.default_rng(0))

    def test_merge(self):
        a = ArrivalTrace(np.array([1.0, 3.0]))
        b = ArrivalTrace(np.array([2.0, 4.0]))
        merged = ArrivalTrace.merge([a, b])
        assert list(merged.arrivals_ms) == [1.0, 2.0, 3.0, 4.0]

    def test_merge_empty(self):
        assert len(ArrivalTrace.merge([])) == 0


class TestPoisson:
    def test_average_rate(self):
        t = poisson_trace(50.0, 120.0, seed=1)
        assert t.mean_rate_rps == pytest.approx(50.0, rel=0.1)

    def test_deterministic_for_seed(self):
        a = poisson_trace(20.0, 30.0, seed=7)
        b = poisson_trace(20.0, 30.0, seed=7)
        assert np.array_equal(a.arrivals_ms, b.arrivals_ms)

    def test_different_seeds_differ(self):
        a = poisson_trace(20.0, 30.0, seed=7)
        b = poisson_trace(20.0, 30.0, seed=8)
        assert not np.array_equal(a.arrivals_ms, b.arrivals_ms)

    def test_zero_rate_gives_empty(self):
        assert len(poisson_trace(0.0, 10.0, seed=0)) == 0

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            poisson_trace(10.0, 0.0)

    def test_exponential_gaps(self):
        t = poisson_trace(100.0, 300.0, seed=2)
        gaps = np.diff(t.arrivals_ms)
        # Exponential(10ms): mean ~ 10, CV ~ 1.
        assert gaps.mean() == pytest.approx(10.0, rel=0.1)
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.15)


class TestStepPoisson:
    def test_mean_preserved(self):
        t = step_poisson_trace(50.0, 600.0, seed=3)
        assert t.mean_rate_rps == pytest.approx(50.0, rel=0.15)

    def test_variation_bounds(self):
        t = step_poisson_trace(50.0, 600.0, variation=0.4, seed=3)
        assert t.profile is not None
        # Renormalised rates stay in a sane band around the mean.
        assert t.profile.rates_rps.min() > 0
        assert t.profile.max_rate < 50.0 * 2.0

    def test_invalid_variation(self):
        with pytest.raises(ValueError):
            step_poisson_trace(50.0, 60.0, variation=1.0)

    def test_rates_actually_vary(self):
        t = step_poisson_trace(50.0, 600.0, variation=0.5, seed=3)
        assert t.profile.rates_rps.std() > 5.0


class TestWiki:
    def test_average_rate(self):
        t = wiki_trace(avg_rps=100.0, duration_s=600.0, seed=4)
        assert t.mean_rate_rps == pytest.approx(100.0, rel=0.15)

    def test_diurnal_periodicity(self):
        profile = wiki_rate_profile(
            avg_rps=100.0, duration_s=1200.0, period_s=300.0, noise=0.0, seed=0
        )
        rates = profile.rates_rps
        n_period = int(300.0 / 5.0)
        # Autocorrelation at one full period should be strongly positive.
        a = rates[: len(rates) - n_period]
        b = rates[n_period:]
        corr = np.corrcoef(a, b)[0, 1]
        assert corr > 0.8

    def test_moderate_peak_to_mean(self):
        profile = wiki_rate_profile(avg_rps=100.0, duration_s=1200.0, seed=0)
        ratio = profile.max_rate / profile.mean_rate
        assert 1.2 < ratio < 2.5

    def test_rates_never_collapse(self):
        profile = wiki_rate_profile(avg_rps=100.0, duration_s=2400.0, seed=1)
        assert profile.rates_rps.min() > 100.0 * 0.1


class TestWits:
    def test_average_rate(self):
        t = wits_trace(avg_rps=60.0, peak_rps=240.0, duration_s=600.0, seed=5)
        assert t.mean_rate_rps == pytest.approx(60.0, rel=0.2)

    def test_bursty_peak_to_median(self):
        profile = wits_rate_profile(
            avg_rps=100.0, peak_rps=500.0, duration_s=2400.0, seed=2
        )
        ratio = profile.max_rate / np.median(profile.rates_rps)
        # The paper reports a ~5x peak-to-median ratio for WITS.
        assert ratio > 2.5

    def test_wits_less_periodic_than_wiki(self):
        wiki = wiki_rate_profile(
            avg_rps=100.0, duration_s=1200.0, period_s=300.0, noise=0.0, seed=0
        )
        wits = wits_rate_profile(avg_rps=100.0, peak_rps=500.0, duration_s=1200.0, seed=0)
        n_period = int(300.0 / 5.0)

        def autocorr(rates):
            a = rates[: len(rates) - n_period]
            b = rates[n_period:]
            return np.corrcoef(a, b)[0, 1]

        assert autocorr(wiki.rates_rps) > autocorr(wits.rates_rps)

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            wits_rate_profile(avg_rps=100.0, peak_rps=50.0)
