"""Tests for ServerlessSystem internals and edge behaviours."""

import numpy as np
import pytest

from repro.cluster.cluster import NodePlacementPolicy
from repro.core.controlplane import reclaim_idle_capacity
from repro.core.policies import make_policy_config
from repro.prediction.classical import EWMAPredictor, MovingWindowAveragePredictor
from repro.runtime.system import ClusterSpec, ServerlessSystem
from repro.traces import poisson_trace
from repro.traces.base import ArrivalTrace
from repro.workloads import get_mix


def _system(policy="rscale", mix="heavy", **kwargs):
    return ServerlessSystem(
        config=make_policy_config(policy),
        mix=get_mix(mix),
        **kwargs,
    )


class TestStageShares:
    def test_shares_for_disjoint_mix(self):
        # Heavy mix: IPA and Detect-Fatigue share no functions; every
        # stage belongs to exactly one app with weight 0.5.
        system = _system(mix="heavy")
        assert set(system.stage_shares.values()) == {0.5}

    def test_shares_for_shared_mix(self):
        # Medium mix: NLP and QA appear in both chains -> share 1.0.
        system = _system(mix="medium")
        assert system.stage_shares["NLP"] == pytest.approx(1.0)
        assert system.stage_shares["QA"] == pytest.approx(1.0)
        assert system.stage_shares["ASR"] == pytest.approx(0.5)
        assert system.stage_shares["IMC"] == pytest.approx(0.5)


class TestPredictorResolution:
    def test_none_for_non_proactive(self):
        assert _system("bline").predictor is None
        assert _system("rscale").predictor is None

    def test_auto_ewma_for_bpred(self):
        system = _system("bpred")
        assert isinstance(system.predictor, EWMAPredictor)

    def test_explicit_predictor_wins(self):
        mwa = MovingWindowAveragePredictor()
        system = ServerlessSystem(
            config=make_policy_config("bpred"),
            mix=get_mix("heavy"),
            predictor=mwa,
        )
        assert system.predictor is mwa

    def test_trainable_without_instance_raises(self):
        with pytest.raises(ValueError):
            _system("fifer")


class TestBatchSizes:
    def test_non_batching_policy_uses_b1(self):
        system = _system("bline")
        assert set(system.batch_sizes.values()) == {1}

    def test_batching_policy_uses_slack_sizes(self):
        system = _system("rscale")
        assert max(system.batch_sizes.values()) > 1

    def test_fixed_batch_override(self):
        system = _system("hpa")
        assert set(system.batch_sizes.values()) == {4}

    def test_max_batch_override_reaches_every_policy(self):
        # The cap is the batching switch: raised on a non-batching
        # policy it batches, and it caps the HPA baseline's fixed batch.
        def sizes(policy, max_batch):
            return set(ServerlessSystem(
                config=make_policy_config(policy, max_batch=max_batch),
                mix=get_mix("heavy"),
            ).batch_sizes.values())

        assert max(sizes("bline", 8)) > 1
        assert sizes("hpa", 2) == {2}

    def test_shared_function_takes_min(self):
        system = _system("rscale", mix="medium")
        # QA appears in both chains; its batch must be the min of both.
        from repro.core.slack import build_stage_plan
        plans = [build_stage_plan(a) for a in get_mix("medium").applications]
        qa_batches = [
            p.stage_batch[p.stage_index_of("QA")] for p in plans
        ]
        assert system.batch_sizes["QA"] == min(qa_batches)


class TestPlacementWiring:
    def test_pack_policy_reaches_cluster(self):
        system = _system("fifer", predictor=EWMAPredictor())
        trace = poisson_trace(5.0, 20.0, seed=1)
        system.run(trace)
        assert system.cluster.policy == NodePlacementPolicy.PACK

    def test_spread_policy_reaches_cluster(self):
        system = _system("bline")
        system.run(poisson_trace(5.0, 20.0, seed=1))
        assert system.cluster.policy == NodePlacementPolicy.SPREAD


class TestEdgeTraces:
    def test_empty_trace(self):
        system = _system("bline")
        result = system.run(ArrivalTrace(np.empty(0), name="empty"))
        assert result.n_jobs == 0
        assert result.slo_violation_rate == 0.0

    def test_single_arrival(self):
        system = _system("bline")
        result = system.run(ArrivalTrace(np.array([100.0]), name="one"))
        assert result.n_jobs == 1
        assert result.n_completed == 1

    def test_monitor_interval_override(self):
        system = ServerlessSystem(
            config=make_policy_config("rscale", monitor_interval_ms=5000.0),
            mix=get_mix("light"),
        )
        result = system.run(poisson_trace(10.0, 30.0, seed=1))
        # Samples every 5 s over >= 30 s -> at least 6 samples.
        assert len(result.sample_times_ms) >= 6

    def test_prewarm_capacity_respects_tiny_cluster(self):
        system = ServerlessSystem(
            config=make_policy_config("sbatch"),
            mix=get_mix("heavy"),
            cluster_spec=ClusterSpec(n_nodes=1, cores_per_node=1.0),
        )
        result = system.run(poisson_trace(5.0, 20.0, seed=1))
        # Static pool wanted more than 2 containers but placement is
        # capped by the cluster; run must not crash.
        assert result.n_jobs > 0


class TestReclaim:
    def test_reclaim_prefers_pool_with_most_idle(self):
        system = _system("bline")
        system.run(poisson_trace(20.0, 30.0, seed=1))
        # After the run every pool has idle containers; reclaim works.
        total_before = sum(p.n_containers for p in system.pools.values())
        assert reclaim_idle_capacity(system.pools) is True
        total_after = sum(p.n_containers for p in system.pools.values())
        assert total_after == total_before - 1

    def test_reclaim_false_when_nothing_idle(self):
        system = _system("bline")
        system.run(ArrivalTrace(np.empty(0), name="empty"))
        for pool in system.pools.values():
            for container in list(pool.containers):
                if container.is_reapable:
                    pool._retire(container)
            pool._compact()
        assert reclaim_idle_capacity(system.pools) is False
