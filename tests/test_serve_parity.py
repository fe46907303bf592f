"""Sim-vs-live parity: the serving runtime must agree with the simulator.

Same policy, mix, trace and seed through both worlds.  The replayer
draws applications from the same seeded stream as the simulator, so the
offered workload is bit-identical; what differs is only the clock (the
live run compresses time 10x) and real scheduling jitter.  Tolerances
(documented in EXPERIMENTS.md §live-serving):

* job count — exactly equal (deterministic replay),
* SLO-violation rate — within 0.10 absolute,
* peak concurrent containers — within 2,
* median latency — live may exceed sim by at most 250 model ms
  (event-loop jitter is amplified 10x by the compressed clock; at the
  previous 20x compression a 15 ms wall hiccup already read as 300
  model ms and the bound was a coin flip on a loaded host).
"""

import dataclasses

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
TIME_SCALE = 0.1  # 30 model seconds in 3 wall seconds

SLO_TOLERANCE = 0.10
PEAK_TOLERANCE = 2
MEDIAN_SLACK_MS = 250.0


def _both_planes(options, **members):
    """One description, two planes: the live arm is the simulated
    scenario plus a ``live`` block — no member is spelled twice."""
    scenario = Scenario.of(
        POLICY, get_mix(MIX), poisson_trace(RATE_RPS, DURATION_S, seed=SEED),
        ClusterSpec(), SEED, idle_timeout_ms=60_000.0, **members)
    assert scenario.plane == "sim"
    return scenario.run(), dataclasses.replace(scenario, live=options).run()


@pytest.fixture(scope="module")
def pair():
    return _both_planes(ServeOptions(time_scale=TIME_SCALE))


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
        sim, live = pair
        assert abs(live.slo_violation_rate - sim.slo_violation_rate) \
            <= SLO_TOLERANCE

    def test_peak_containers_within_tolerance(self, pair):
        sim, live = pair
        assert abs(live.peak_containers - sim.peak_containers) \
            <= PEAK_TOLERANCE

    def test_median_latency_close(self, pair):
        sim, live = pair
        # Live latency is sim latency plus bounded wall-clock jitter —
        # it should never be *faster* than the model by more than noise.
        assert live.median_latency_ms >= sim.median_latency_ms - 50.0
        assert live.median_latency_ms <= sim.median_latency_ms + MEDIAN_SLACK_MS


# ---------------------------------------------------------------------------
# chaos mode: identical fault models through both worlds


CRASH_PROB = 0.1
CHAOS_SLO_TOLERANCE = 0.15  # crash timing adds variance on top of jitter


@pytest.fixture(scope="module")
def chaos_pair():
    """Sim and live runs injecting the *same* ContainerFaultModel.

    The simulator retries crashed tasks without bound, so the live side
    gets a generous attempt budget and no deadline cut-off — the paired
    runs then differ only in clock and crash-timing jitter.
    """
    return _both_planes(
        ServeOptions(
            time_scale=TIME_SCALE,
            retry=RetryPolicy(max_attempts=10, base_backoff_ms=10.0)),
        faults=(("crash_probability", CRASH_PROB),),
        drain_ms=1_200_000.0)


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
