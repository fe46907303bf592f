"""The PR's acceptance criteria: guarded Fifer under injected failures.

Two claims, both asserted against real runs:

1. **Robustness inequality** — with the predictor diverging mid-trace,
   guarded Fifer's SLO-violation rate is at most pure RScale's plus two
   points (falling back costs nearly nothing) and strictly below
   unguarded Fifer's (riding the diverged forecasts is worse).
2. **Sim-vs-live parity** — a node-kill-plus-divergence scenario run
   through the simulator and the live serving runtime (on virtual time)
   makes the same decisions — equal SLO-violation rate and peak, equal
   per-job latencies and spawn instants — and the guard/fault events
   appear in *both* registries under the same counter names.
"""

import pytest

from repro.cluster.faults import FaultTimeline
from repro.experiments.robustness import run_robustness_study, study_specs
from repro.prediction.classical import EWMAPredictor
from repro.prediction.guarded import DivergentPredictor
from repro.runtime.system import ClusterSpec, run_policy
from repro.serve import ServeOptions, serve_trace
from repro.traces import poisson_trace
from repro.workloads import get_mix
from tests.test_serve_parity import assert_same_decisions


class TestRobustnessStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_robustness_study(quick=True, workers=3, use_cache=False)

    def test_structure(self, study):
        assert set(study["scenarios"]) == {"divergence", "node-loss"}
        for arms in study["scenarios"].values():
            assert set(arms) == {"unguarded", "guarded", "rscale"}

    def test_guarded_within_two_points_of_rscale(self, study):
        div = study["scenarios"]["divergence"]
        assert div["guarded"]["slo_violation_rate"] \
            <= div["rscale"]["slo_violation_rate"] + 0.02

    def test_guarded_strictly_beats_unguarded(self, study):
        div = study["scenarios"]["divergence"]
        assert div["guarded"]["slo_violation_rate"] \
            < div["unguarded"]["slo_violation_rate"]

    def test_fallback_engaged_only_in_guarded_arm(self, study):
        div = study["scenarios"]["divergence"]
        assert div["guarded"]["guards"]["predictor_fallbacks"] > 0
        assert div["unguarded"]["guards"]["predictor_fallbacks"] == 0
        assert div["rscale"]["guards"]["predictor_fallbacks"] == 0

    def test_node_loss_hits_every_arm(self, study):
        loss = study["scenarios"]["node-loss"]
        for arm in ("unguarded", "guarded", "rscale"):
            assert loss[arm]["guards"]["nodes_killed"] == 1
            assert loss[arm]["guards"]["nodes_recovered"] == 1

    def test_acceptance_verdicts_all_pass(self, study):
        assert all(study["acceptance"].values()), study["acceptance"]

    def test_specs_are_cacheable_and_distinct(self):
        from repro.experiments.runner import config_hash

        matrix = study_specs(quick=True)
        hashes = [
            config_hash(spec)
            for arms in matrix.values() for spec in arms.values()
        ]
        assert len(set(hashes)) == len(hashes)


# ---------------------------------------------------------------------------
# sim-vs-live parity for the node-kill + predictor-fallback scenario


MIX = "medium"
RATE_RPS = 15.0
DURATION_S = 60.0
SEED = 0

SCENARIO = dict(
    proactive_predictor="ewma",
    mape_threshold=0.5,
    fallback_hysteresis=2,
    max_surge=8,
    spawn_retry_attempts=2,
    idle_timeout_ms=60_000.0,
)
FAULT_SPEC = "kill-node@20=0;recover-node@40=0"


def _divergent():
    # Separate but identical chaos predictors per world: each wraps a
    # fresh EWMA, diverging 30x from the second monitor tick on.
    return DivergentPredictor(EWMAPredictor(), diverge_after=2, factor=30.0)


@pytest.fixture(scope="module")
def guarded_pair():
    mix = get_mix(MIX)
    trace = poisson_trace(RATE_RPS, DURATION_S, seed=SEED)
    spec = ClusterSpec(n_nodes=3)
    sim = run_policy(
        "fifer", mix, trace, seed=SEED, cluster_spec=spec,
        predictor=_divergent(),
        faults=FaultTimeline.parse(FAULT_SPEC),
        **SCENARIO,
    )
    live = serve_trace(
        "fifer", mix, trace, seed=SEED, cluster_spec=spec,
        predictor=_divergent(),
        faults=FaultTimeline.parse(FAULT_SPEC),
        options=ServeOptions(),
        **SCENARIO,
    )
    return sim, live


class TestGuardedParity:
    def test_same_offered_workload(self, guarded_pair):
        sim, live = guarded_pair
        assert live.n_jobs == sim.n_jobs

    def test_same_decisions(self, guarded_pair):
        assert_same_decisions(*guarded_pair)

    def test_fallback_fired_in_both_worlds(self, guarded_pair):
        sim, live = guarded_pair
        assert sim.predictor_fallbacks > 0
        assert live.predictor_fallbacks > 0
        assert sim.fallback_ticks > 0
        assert live.fallback_ticks > 0

    def test_node_faults_fired_in_both_worlds(self, guarded_pair):
        sim, live = guarded_pair
        assert sim.nodes_killed == 1
        assert live.nodes_killed == 1
        assert sim.nodes_recovered == 1
        assert live.nodes_recovered == 1

    def test_guardrail_counters_present_in_both_summaries(self, guarded_pair):
        sim, live = guarded_pair
        for key in ("predictor_fallbacks", "fallback_ticks", "surge_clamped",
                    "spawn_retries", "spawn_retries_exhausted",
                    "nodes_killed", "nodes_recovered", "stage_sheds"):
            assert key in sim.summary()
            assert key in live.summary()
