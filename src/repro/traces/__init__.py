"""Arrival-trace substrate.

The paper drives its load generator with three inputs (section 5.3):

* a synthetic Poisson arrival process (lambda = 50 req/s) for the
  real-system prototype experiments,
* the Wikipedia request trace — diurnal, high average rate
  (~1500 req/s), recurring hour-of-day / day-of-week patterns, and
* the WITS (Waikato Internet Traffic Storage) trace — lower average
  (~300 req/s) but unpredictable flash-crowd spikes up to 1200 req/s
  (peak-to-median about 5x).

We do not have the raw traces, so :mod:`repro.traces.wiki` and
:mod:`repro.traces.wits` synthesise arrival processes with the published
shape parameters (average rate, peak rate, periodicity, burstiness); see
DESIGN.md for the substitution argument.
"""

from repro.traces.base import ArrivalTrace, RateProfile
from repro.traces.factory import TRACE_KINDS, make_trace
from repro.traces.poisson import poisson_trace, step_poisson_trace
from repro.traces.wiki import wiki_rate_profile, wiki_trace
from repro.traces.wits import wits_rate_profile, wits_trace

__all__ = [
    "ArrivalTrace",
    "RateProfile",
    "TRACE_KINDS",
    "make_trace",
    "poisson_trace",
    "step_poisson_trace",
    "wiki_trace",
    "wiki_rate_profile",
    "wits_trace",
    "wits_rate_profile",
]
