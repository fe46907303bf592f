"""The event-loop engine's hot path: Python calls per simulated job.

The default engine is the reference every other plane is held to, so its
per-job cost is pinned here the way ``test_setup_path.py`` pins set-up:
by a count, not a clock.  One run of the ledger's ``sim-eventloop-wits``
configuration (fifer, heavy mix, 52 nodes, the WITS shape at 100 req/s
with one flash crowd to 400), cut to its first 60 model-seconds:

* **Calls per job.**  cProfile's call count (Python and builtin calls)
  over the run, per completed job, stays under a ceiling about 4 % above
  the 192 of the buffered application stream (DESIGN.md §10.1): an
  arrival reads its application from a chunk drawn in one numpy call
  instead of making a scalar draw.  Same-instant dispatch before it (a
  task entering an empty stage queue goes straight to a container,
  containers keep a free-slot tally, the clock is a plain attribute)
  made 210 calls per job; the flat hot path before that (timers
  without ``Event`` objects, counters bumped in place, one totals pass
  per job) 295; the run before that, 450.
* **Same simulation.**  The event count and the ``summary()`` digest are
  the ones the run had before the hot path was flattened: a speed-up
  must not move a single event or bit.

Deliberately numpy + pytest only (no Hypothesis), so the ``perf-smoke``
CI job can run this file.
"""

import cProfile
import hashlib
import json
import pstats

import pytest

from repro.core.policies import make_policy_config
from repro.experiments.predictors import pretrained_predictor
from repro.runtime.system import ClusterSpec, ServerlessSystem
from repro.traces import wits_rate_profile
from repro.traces.base import trace_from_profile
from repro.workloads import get_mix

#: Calls per completed job: 450.0 before the flat hot path, 295.8 after
#: it, 213.1 with same-instant dispatch (209.6 on a later measurement),
#: 191.7 with the buffered application stream.
CALLS_PER_JOB_CEILING = 200.0
JOBS = 4775
EVENTS = 38211
SUMMARY_SHA256 = (
    "967455293a319e6a5815adcbc9b516ac24a5b29d3e2601e845f7893b4f66e385")


@pytest.fixture(scope="module")
def profiled_run():
    """``(calls, system, result)`` of one cProfiled run."""
    # benchmarks/ledger/workloads.py, sim-eventloop-wits at --seed 1.
    profile = wits_rate_profile(
        avg_rps=100.0, peak_rps=400.0, duration_s=400.0, seed=8)
    trace = trace_from_profile(
        profile, 400_000.0, seed=1, name="wits").clipped(0.0, 60_000.0)
    system = ServerlessSystem(
        config=make_policy_config("fifer", idle_timeout_ms=60_000.0),
        mix=get_mix("heavy"),
        cluster_spec=ClusterSpec(n_nodes=52),
        predictor=pretrained_predictor("wits", 100.0),
        seed=1,
    )
    profiler = cProfile.Profile()
    result = profiler.runcall(system.run, trace)
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    calls = sum(n_calls for _, n_calls, _, _, _ in stats.values())
    return calls, system, result


def test_calls_per_job_under_ceiling(profiled_run):
    calls, _, result = profiled_run
    assert result.n_completed == JOBS
    assert calls / result.n_completed <= CALLS_PER_JOB_CEILING


def test_same_events_and_summary(profiled_run):
    _, system, result = profiled_run
    assert system.sim.events_executed == EVENTS
    digest = hashlib.sha256(json.dumps(
        result.summary(), sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == SUMMARY_SHA256
