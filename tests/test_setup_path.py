"""The set-up path: everything between a rate profile and the first event.

Before an engine runs, a cold process samples the workload trace, samples
the 1800 s training trace, reduces it to the windowed-max series and fits
the LSTM Fifer is handed (DESIGN.md §10.3).  Two things are pinned here:

* **Bit identity.**  Every digest below was generated at the commit
  *before* ``RateProfile.sample_arrivals`` thinned through the vectorised
  ``rates_at`` — same RNG draws in the same order, same accepted arrivals,
  same training series, same trained model.
* **No Python per arrival.**  A call count, not a wall clock: sampling a
  trace a hundred times longer must execute the same number of
  Python-level calls.

Deliberately numpy + pytest only (no Hypothesis), so the ``perf-smoke``
CI job can run this file.
"""

import hashlib
import sys

import numpy as np
import pytest

from repro.experiments.predictors import pretrained_predictor, training_series_for
from repro.traces import (
    RateProfile,
    step_poisson_trace,
    wiki_rate_profile,
    wiki_trace,
    wits_rate_profile,
    wits_trace,
)
from repro.traces.base import trace_from_profile


def _sha256(values: np.ndarray) -> str:
    assert values.dtype == np.float64 and values.ndim == 1
    return hashlib.sha256(values.tobytes()).hexdigest()


def _ledger_wits():
    # benchmarks/ledger/workloads.py, sim-eventloop-wits at --seed 1.
    profile = wits_rate_profile(
        avg_rps=100.0, peak_rps=400.0, duration_s=400.0, seed=8)
    return trace_from_profile(profile, 400_000.0, seed=1, name="wits")


def _ledger_wiki():
    # benchmarks/ledger/workloads.py, sim-vector-wiki at --seed 1.
    profile = wiki_rate_profile(
        avg_rps=500.0, duration_s=300.0, period_s=300.0, seed=7)
    return trace_from_profile(profile, 300_000.0, seed=1, name="wiki")


#: name -> (trace factory, arrivals, sha256 of the float64 arrival bytes).
TRACE_PINS = {
    "wits_trace": (
        lambda: wits_trace(
            avg_rps=100.0, peak_rps=400.0, duration_s=600.0, seed=11),
        59754,
        "43715abbf7452487eebadd227fc8e59b0ccf06301f0a1d45ebc3bc3060b6b779"),
    "wiki_trace": (
        lambda: wiki_trace(avg_rps=200.0, duration_s=600.0, seed=7),
        119893,
        "f815a744f6cf6bbbb9562be11681723d8aec450c2941027089f626a21b93a8a7"),
    "step_poisson_trace": (
        lambda: step_poisson_trace(50.0, 600.0, seed=3),
        29997,
        "b4b073413c2f1f9c1bde502c048f1c0f5cbbbaf4076be6701a080dc07d0f7e54"),
    "ledger_wits": (
        _ledger_wits, 40562,
        "df77e594158a28342c584ef90426a50fe515897337f6de2a8f30971a861fb73e"),
    "ledger_wiki": (
        _ledger_wiki, 150859,
        "359711984210191c6f1812f29d3ad8315b4273a5e800cd766ea5c71ad8431be4"),
}

#: (kind, mean rate) -> sha256 of the 180-point windowed-max series.
SERIES_PINS = {
    ("wits", 100.0):
        "5ede2766f0d58898fb8ba7cdf8a14ad20e43a1cc55c0bdfb6b61957562671bb2",
    ("wiki", 500.0):
        "cd1b3900326b893e3673201202693c466fbfa10b28df1f1fff6e6d56eb07a8f2",
}


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(TRACE_PINS))
    def test_trace_digest(self, name):
        make, n_arrivals, digest = TRACE_PINS[name]
        arrivals = make().arrivals_ms
        assert arrivals.size == n_arrivals
        assert _sha256(arrivals) == digest

    @pytest.mark.parametrize("kind,rate", sorted(SERIES_PINS))
    def test_training_series_digest(self, kind, rate):
        series = training_series_for(kind, mean_rate_rps=rate)
        assert series.size == 180
        assert _sha256(series) == SERIES_PINS[kind, rate]

    def test_fifer_is_handed_the_same_model(self):
        series = training_series_for("wits", mean_rate_rps=100.0)
        forecast = pretrained_predictor("wits", 100.0).predict(series[-12:])
        assert repr(forecast) == "116.90040924550382"


def _python_calls(fn):
    """``(calls, fn())``: the Python-level function calls made while
    *fn* runs (C calls arrive as ``c_call`` and are not counted)."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return calls, result


class TestNoPythonPerArrival:
    @staticmethod
    def _sample(duration_s: float) -> int:
        """Arrivals of a four-bucket 80 req/s profile stretched over
        *duration_s*; the over-sample's 6-sigma margin means the top-up
        loop in ``sample_arrivals`` does not run at this seed."""
        edges_ms = np.arange(4) * duration_s * 250.0
        profile = RateProfile(edges_ms, np.array([40.0, 120.0, 60.0, 100.0]))
        trace = trace_from_profile(
            profile, duration_s * 1000.0, seed=5, name="guard")
        return len(trace)

    def test_call_count_does_not_grow_with_the_trace(self):
        short_calls, short_arrivals = _python_calls(lambda: self._sample(10.0))
        long_calls, long_arrivals = _python_calls(lambda: self._sample(1000.0))
        # The two traces really differ a hundredfold in arrivals ...
        assert long_arrivals > 50 * short_arrivals > 0
        # ... and cost the same number of Python calls.
        assert short_calls == long_calls
