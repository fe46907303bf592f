"""The vector engine's hot path: Python calls per simulated job.

The twin of ``test_eventloop_hotpath.py`` for ``engine="vector"``.  One
run of the ledger's ``sim-vector-wiki`` configuration (fifer + LSTM,
heavy mix, 52 nodes, the Wiki shape at 500 req/s), cut to its first 60
model-seconds:

* **Calls per job.**  cProfile's call count (Python and builtin calls)
  over the run, per completed job, stays under a ceiling about 5 % above
  the same-instant dispatch loop's 51.9 (DESIGN.md §13): an enqueue that
  finds its stage queue empty goes straight to a container, containers
  carry a free-slot count, and arrivals reach the sampler once per tick.
  Before it the run made 84.4 calls per job.
* **Same simulation.**  The event count and the ``summary()`` digest are
  the ones the run had before that loop landed: a speed-up must not move
  a single event or bit.

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
from repro.traces import wiki_rate_profile
from repro.traces.base import trace_from_profile
from repro.workloads import get_mix

#: Calls per completed job: 84.4 before same-instant dispatch, 51.9 after.
CALLS_PER_JOB_CEILING = 54.5
EVENTS = 173796
SUMMARY_SHA256 = (
    "7f74cb29285b4c90de514a5446c3932814633361c9cc83a1eeb144e63b1fdd1e")


@pytest.fixture(scope="module")
def profiled_run():
    """``(calls, system, result)`` of one cProfiled run."""
    # benchmarks/ledger/workloads.py, sim-vector-wiki at --seed 1.
    profile = wiki_rate_profile(
        avg_rps=500.0, duration_s=300.0, period_s=300.0, seed=7)
    trace = trace_from_profile(
        profile, 300_000.0, seed=1, name="wiki").clipped(0.0, 60_000.0)
    system = ServerlessSystem(
        config=make_policy_config("fifer", idle_timeout_ms=60_000.0),
        mix=get_mix("heavy"),
        cluster_spec=ClusterSpec(n_nodes=52),
        predictor=pretrained_predictor("wiki", 500.0),
        seed=1,
        engine="vector",
    )
    profiler = cProfile.Profile()
    result = profiler.runcall(system.run, trace)
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    calls = sum(n_calls for _, n_calls, _, _, _ in stats.values())
    return calls, system, result


def test_calls_per_job_under_ceiling(profiled_run):
    calls, _, result = profiled_run
    assert calls / result.n_completed <= CALLS_PER_JOB_CEILING


def test_same_events_and_summary(profiled_run):
    _, system, result = profiled_run
    assert system.sim.events_executed == EVENTS
    digest = hashlib.sha256(json.dumps(
        result.summary(), sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == SUMMARY_SHA256
