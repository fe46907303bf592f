"""Sim-vs-live parity: the serving runtime must agree with the simulator.

Same policy, mix, trace and seed through both planes.  The replayer
draws applications from the same seeded stream as the simulator, so the
offered workload is bit-identical, and the live arm runs on virtual time
(``tests/virtual_time.py``), so host load cannot move it.  The planes
must make the same decisions (EXPERIMENTS.md "Live serving — sim-vs-live
parity"): equal job count, SLO rate and peak containers, and every job's
latency and every spawn instant equal within :data:`FLOAT_MS`.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.runtime.system import ClusterSpec
from repro.scenario import Scenario
from repro.serve import RetryPolicy, ServeOptions
from repro.traces import poisson_trace
from repro.workloads import get_mix

POLICY = "rscale"  # reactive-only: no offline predictor training needed
MIX = "medium"
RATE_RPS = 15.0
DURATION_S = 30.0
SEED = 0

#: The live clock's float round trip: model ms -> loop seconds -> model ms.
FLOAT_MS = 1e-6


def _both_planes(options, **members):
    """One description, two planes: the live arm is the simulated
    scenario plus a ``live`` block — no member is spelled twice."""
    scenario = Scenario.of(
        POLICY, get_mix(MIX), poisson_trace(RATE_RPS, DURATION_S, seed=SEED),
        ClusterSpec(), SEED, idle_timeout_ms=60_000.0, **members)
    assert scenario.plane == "sim"
    return scenario.run(), dataclasses.replace(scenario, live=options).run()


def assert_same_decisions(sim, live):
    """Equal counts, SLO rate and peak; per-job latencies (in completion
    order) and spawn instants equal within :data:`FLOAT_MS`.  The one
    stated difference: the live runtime ends with one closing control
    tick (``ServingRuntime.serve``), so its container samples are the
    simulator's plus one at the end of the run."""
    assert live.n_jobs == sim.n_jobs
    assert live.slo_violation_rate == sim.slo_violation_rate
    assert live.peak_containers == sim.peak_containers
    np.testing.assert_allclose(
        live.latencies_ms, sim.latencies_ms, rtol=0, atol=FLOAT_MS)
    assert live.spawn_times_ms.keys() == sim.spawn_times_ms.keys()
    for pool, times in sim.spawn_times_ms.items():
        np.testing.assert_allclose(
            live.spawn_times_ms[pool], times, rtol=0, atol=FLOAT_MS)
    n = sim.sample_times_ms.size
    assert live.sample_times_ms.size == n + 1
    np.testing.assert_allclose(
        live.sample_times_ms[:n], sim.sample_times_ms, rtol=0, atol=FLOAT_MS)
    assert live.sample_times_ms[n] == live.duration_ms
    for pool, counts in sim.container_samples.items():
        assert list(live.container_samples[pool][:n]) == list(counts)


@pytest.fixture(scope="module")
def pair():
    return _both_planes(ServeOptions())


class TestSimLiveParity:
    def test_same_offered_workload(self, pair):
        sim, live = pair
        assert live.n_jobs == sim.n_jobs
        assert live.trace == sim.trace
        assert live.policy == sim.policy

    def test_all_jobs_complete(self, pair):
        sim, live = pair
        assert sim.n_incomplete == 0
        assert live.n_incomplete == 0

    def test_slo_violation_rate_within_tolerance(self, pair):
        # On virtual time the tolerance is zero: the planes agree exactly.
        sim, live = pair
        assert live.slo_violation_rate == sim.slo_violation_rate

    def test_peak_containers_within_tolerance(self, pair):
        sim, live = pair
        assert live.peak_containers == sim.peak_containers

    def test_median_latency_close(self, pair):
        sim, live = pair
        assert abs(np.median(live.latencies_ms) - np.median(sim.latencies_ms)) \
            <= FLOAT_MS

    def test_same_decisions(self, pair):
        assert_same_decisions(*pair)


# ---------------------------------------------------------------------------
# chaos mode: identical fault models through both worlds


CRASH_PROB = 0.1
CHAOS_SLO_TOLERANCE = 0.15  # the two crash paths differ (ROADMAP 16(b))
CHAOS = dict(faults=(("crash_probability", CRASH_PROB),), drain_ms=1_200_000.0)
#: The simulator retries crashed tasks without bound, so the live side
#: gets a generous attempt budget and no deadline cut-off.
CHAOS_OPTIONS = ServeOptions(retry=RetryPolicy(max_attempts=10))


@pytest.fixture(scope="module")
def chaos_pair():
    """Sim and live runs injecting the *same* ContainerFaultModel."""
    return _both_planes(CHAOS_OPTIONS, **CHAOS)


class TestChaosParity:
    def test_same_offered_workload(self, chaos_pair):
        sim, live = chaos_pair
        assert live.n_jobs == sim.n_jobs

    def test_both_sides_injected_crashes(self, chaos_pair):
        sim, live = chaos_pair
        assert sim.container_crashes > 0
        assert live.container_crashes > 0
        assert sim.task_retries > 0
        assert live.task_retries > 0

    def test_work_survives_chaos_on_both_sides(self, chaos_pair):
        sim, live = chaos_pair
        assert sim.n_incomplete == 0
        # The live side may dead-letter a handful of jobs that the sim
        # (with unbounded retries) eventually completes.
        assert live.n_completed + live.n_failed == live.n_jobs
        assert live.n_completed >= 0.9 * live.n_jobs

    def test_slo_violation_rate_within_chaos_tolerance(self, chaos_pair):
        sim, live = chaos_pair
        assert abs(live.slo_violation_rate - sim.slo_violation_rate) \
            <= CHAOS_SLO_TOLERANCE

    def test_live_chaos_run_is_deterministic(self, chaos_pair):
        _, again = _both_planes(CHAOS_OPTIONS, **CHAOS)
        assert json.dumps(again.summary(), sort_keys=True) \
            == json.dumps(chaos_pair[1].summary(), sort_keys=True)
