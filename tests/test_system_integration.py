"""End-to-end integration tests of the serverless platform simulation."""

import numpy as np
import pytest

from repro import (
    ClusterSpec,
    ServerlessSystem,
    get_mix,
    make_policy_config,
    poisson_trace,
    run_policy,
)
from repro.prediction.classical import EWMAPredictor
from repro.traces import step_poisson_trace


@pytest.fixture(scope="module")
def small_trace():
    return poisson_trace(20.0, 60.0, seed=1)


@pytest.fixture(scope="module")
def bursty_trace():
    return step_poisson_trace(30.0, 240.0, variation=0.5, seed=2)


class TestEndToEnd:
    @pytest.mark.parametrize("policy", ["bline", "sbatch", "rscale", "bpred"])
    def test_all_jobs_complete(self, policy, small_trace):
        result = run_policy(policy, get_mix("heavy"), small_trace, seed=3)
        assert result.n_jobs == len(small_trace)
        assert result.n_completed == result.n_jobs
        assert result.n_incomplete == 0

    def test_fifer_with_explicit_predictor(self, small_trace):
        result = run_policy(
            "fifer", get_mix("heavy"), small_trace, seed=3,
            predictor=EWMAPredictor(),
        )
        assert result.n_completed == result.n_jobs

    def test_fifer_without_predictor_raises(self, small_trace):
        with pytest.raises(ValueError, match="pre-trained"):
            run_policy("fifer", get_mix("heavy"), small_trace, seed=3)

    def test_latency_includes_exec_and_overheads(self, small_trace):
        result = run_policy("bline", get_mix("light"), small_trace, seed=3)
        # Response latency can never be below execution + transition time.
        floor = min(
            app.total_exec_ms * 0.5 + app.total_overhead_ms
            for app in get_mix("light").applications
        )
        assert result.latencies_ms.min() >= floor

    def test_latency_breakdown_consistency(self, small_trace):
        result = run_policy("rscale", get_mix("medium"), small_trace, seed=3)
        total_components = (
            result.exec_ms + result.queue_ms
        )
        # Latency = exec + queue + fixed overheads, so latency >= components.
        assert np.all(result.latencies_ms >= total_components - 1e-6)
        assert np.all(
            np.abs(result.queue_ms - result.cold_wait_ms - result.batch_wait_ms)
            < 1e-6
        )

    def test_determinism(self, small_trace):
        a = run_policy("rscale", get_mix("heavy"), small_trace, seed=7)
        b = run_policy("rscale", get_mix("heavy"), small_trace, seed=7)
        assert np.array_equal(a.latencies_ms, b.latencies_ms)
        assert a.total_spawns == b.total_spawns
        assert a.energy_joules == b.energy_joules

    def test_different_seed_differs(self, small_trace):
        a = run_policy("bline", get_mix("heavy"), small_trace, seed=7)
        b = run_policy("bline", get_mix("heavy"), small_trace, seed=8)
        assert not np.array_equal(a.latencies_ms, b.latencies_ms)

    def test_jobs_match_mix_applications(self, small_trace):
        system = ServerlessSystem(
            config=make_policy_config("bline"),
            mix=get_mix("medium"),
            seed=3,
        )
        result = system.run(small_trace)
        apps = {j.app.name for j in system.metrics.completed_jobs}
        assert apps == {"ipa", "img"}

    def test_pools_cover_all_mix_functions(self, small_trace):
        system = ServerlessSystem(
            config=make_policy_config("rscale"), mix=get_mix("heavy"), seed=0
        )
        system.run(small_trace)
        assert set(system.pools) == set(get_mix("heavy").function_names())

    def test_shared_pools_in_medium_mix(self, small_trace):
        system = ServerlessSystem(
            config=make_policy_config("rscale"), mix=get_mix("medium"), seed=0
        )
        system.run(small_trace)
        # NLP and QA serve both IPA and IMG.
        nlp_tasks = system.pools["NLP"].tasks_completed
        total_jobs = system.metrics.jobs_created
        assert nlp_tasks == total_jobs  # every job passes through NLP

    @pytest.mark.parametrize("engine", ["fast", "vector"])
    def test_statestore_keeps_stage_rows_only(self, engine, small_trace):
        # The store holds one row per stage on every plane and no row
        # per job: nothing read the job rows, and their modelled access
        # latency was never charged to a job.
        system = ServerlessSystem(
            config=make_policy_config("bline"), mix=get_mix("heavy"),
            seed=0, engine=engine,
        )
        result = system.run(small_trace)
        assert result.n_completed == len(small_trace)
        assert system.store.count("stages") == len(system.pools)
        assert system.store.count("jobs") == 0


class TestPolicyShapes:
    """The paper's qualitative orderings on a fluctuating arrival trace."""

    @pytest.fixture(scope="class")
    def results(self, bursty_trace):
        out = {}
        for policy in ["bline", "sbatch", "rscale", "bpred"]:
            out[policy] = run_policy(
                policy, get_mix("heavy"), bursty_trace, seed=5,
                idle_timeout_ms=60_000.0,
            )
        out["fifer"] = run_policy(
            "fifer", get_mix("heavy"), bursty_trace, seed=5,
            idle_timeout_ms=60_000.0, predictor=EWMAPredictor(),
        )
        return out

    def test_batching_uses_fewer_containers(self, results):
        assert results["fifer"].avg_containers < 0.6 * results["bline"].avg_containers
        # RScale batches too, but reactive cold-start storms make it
        # overshoot (paper: up to 3.5x Fifer's count while still below
        # the baseline).
        assert results["rscale"].avg_containers < results["bline"].avg_containers

    def test_batching_raises_median_latency(self, results):
        assert results["fifer"].median_latency_ms > results["bline"].median_latency_ms

    def test_sbatch_never_scales(self, results):
        assert results["sbatch"].cold_starts == 0

    def test_sbatch_worst_violations(self, results):
        assert results["sbatch"].slo_violation_rate >= max(
            results[p].slo_violation_rate for p in ["bline", "bpred", "fifer"]
        )

    def test_fifer_fewer_cold_starts_than_rscale(self, results):
        assert results["fifer"].cold_starts <= results["rscale"].cold_starts

    def test_consolidation_saves_energy(self, results):
        assert results["fifer"].energy_joules < results["bline"].energy_joules

    def test_fifer_rpc_highest(self, results):
        def mean_rpc(res):
            return np.mean(list(res.rpc_per_pool.values()))
        assert mean_rpc(results["fifer"]) > mean_rpc(results["bline"])


class TestClusterPressure:
    def test_tiny_cluster_still_completes(self):
        trace = poisson_trace(20.0, 30.0, seed=1)
        result = run_policy(
            "bline", get_mix("heavy"), trace, seed=3,
            cluster_spec=ClusterSpec(n_nodes=1, cores_per_node=8.0),
        )
        # Capacity pressure may delay but must not deadlock.
        assert result.n_completed == result.n_jobs

    def test_overload_beyond_capacity_counts_failures(self):
        # 1 node x 2 cores = 4 containers cannot sustain 60 rps of the
        # heavy mix (offered load ~9 erlangs): spawns fail, the drain
        # window expires, and unfinished jobs count as SLO violations.
        trace = poisson_trace(60.0, 30.0, seed=1)
        result = run_policy(
            "bline", get_mix("heavy"), trace, seed=3,
            cluster_spec=ClusterSpec(n_nodes=1, cores_per_node=2.0),
        )
        assert result.failed_spawns > 0
        assert result.n_incomplete > 0
        assert result.slo_violation_rate >= result.n_incomplete / result.n_jobs

    def test_scaled_cluster_spec(self):
        spec = ClusterSpec(n_nodes=10, cores_per_node=32.0)
        assert spec.total_cores == 320.0


class TestDrainBehaviour:
    def test_inflight_jobs_drain_after_trace_end(self):
        # A burst right at the end must still finish inside the drain window.
        arrivals = np.linspace(58_000.0, 59_900.0, 50)
        from repro.traces.base import ArrivalTrace
        trace = ArrivalTrace(arrivals, name="tail-burst")
        result = run_policy("rscale", get_mix("heavy"), trace, seed=3)
        assert result.n_completed == result.n_jobs
