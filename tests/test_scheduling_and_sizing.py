"""Tests for task scheduling queues, Little's-law sizing and policies."""

import pytest

from repro.cluster.cluster import NodePlacementPolicy
from repro.core.policies import POLICY_NAMES, Provisioning, make_policy_config
from repro.core.scheduling import (
    FIFOQueue,
    LSFQueue,
    SchedulingPolicy,
    make_queue,
)
from repro.core.sizing import containers_for_rate
from repro.core.slack import SlackDivision
from repro.workflow.job import Job, Task
from repro.workloads import get_application


def _task(app_name: str, arrival_ms: float, stage: int = 0) -> Task:
    job = Job(app=get_application(app_name), arrival_ms=arrival_ms)
    return Task(job=job, stage_index=stage, enqueue_ms=arrival_ms)


class TestFIFOQueue:
    def test_fifo_order(self):
        q = FIFOQueue()
        t1 = _task("ipa", 0.0)
        t2 = _task("ipa", 10.0)
        q.push(t1)
        q.push(t2)
        assert q.pop() is t1
        assert q.pop() is t2

    def test_empty_pop_and_peek(self):
        q = FIFOQueue()
        assert q.pop() is None
        assert q.peek() is None
        assert not q

    def test_peek_does_not_remove(self):
        q = FIFOQueue()
        t = _task("ipa", 0.0)
        q.push(t)
        assert q.peek() is t
        assert len(q) == 1


class TestLSFQueue:
    def test_least_slack_first_across_apps(self):
        q = LSFQueue()
        # Same arrival: detect-fatigue has far less slack than face-security.
        loose = _task("face-security", 0.0)
        tight = _task("detect-fatigue", 0.0)
        q.push(loose)
        q.push(tight)
        assert q.pop() is tight
        assert q.pop() is loose

    def test_earlier_arrival_has_less_slack(self):
        q = LSFQueue()
        early = _task("ipa", 0.0)
        late = _task("ipa", 500.0)
        q.push(late)
        q.push(early)
        assert q.pop() is early

    def test_later_stage_has_more_available_slack(self):
        # Remaining work shrinks with stage index, so for the same job a
        # later-stage task has a larger slack key.
        job = Job(app=get_application("ipa"), arrival_ms=0.0)
        t0 = Task(job=job, stage_index=0, enqueue_ms=0.0)
        t2 = Task(job=job, stage_index=2, enqueue_ms=0.0)
        assert t0.slack_key < t2.slack_key

    def test_slack_key_time_invariance(self):
        t = _task("img", 100.0)
        assert t.available_slack_ms(200.0) == t.slack_key - 200.0
        assert (
            t.available_slack_ms(300.0) - t.available_slack_ms(200.0)
        ) == pytest.approx(-100.0)

    def test_fifo_tiebreak_prevents_starvation(self):
        q = LSFQueue()
        first = _task("ipa", 0.0)
        second = _task("ipa", 0.0)
        q.push(first)
        q.push(second)
        assert q.pop() is first

    def test_len(self):
        q = LSFQueue()
        q.push(_task("ipa", 0.0))
        assert len(q) == 1
        q.pop()
        assert len(q) == 0


class TestMakeQueue:
    def test_factory(self):
        assert isinstance(make_queue(SchedulingPolicy.FIFO), FIFOQueue)
        assert isinstance(make_queue(SchedulingPolicy.LSF), LSFQueue)


class TestContainersForRate:
    def test_littles_law(self):
        # 100 req/s x 100 ms = 10 erlangs; at util 1.0 -> 10 containers.
        assert containers_for_rate(100.0, 100.0, utilization_target=1.0) == 10

    def test_headroom(self):
        assert containers_for_rate(100.0, 100.0, utilization_target=0.5) == 20

    def test_zero_rate(self):
        assert containers_for_rate(0.0, 100.0) == 0
        assert containers_for_rate(0.0, 100.0, minimum=1) == 1

    def test_ceil(self):
        assert containers_for_rate(11.0, 100.0, utilization_target=1.0) == 2

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            containers_for_rate(-1.0, 100.0)
        with pytest.raises(ValueError):
            containers_for_rate(1.0, 0.0)
        with pytest.raises(ValueError):
            containers_for_rate(1.0, 1.0, utilization_target=0.0)


class TestPolicyConfigs:
    def test_all_policies_constructible(self):
        for name in POLICY_NAMES:
            config = make_policy_config(name)
            assert config.name == name

    def test_paper_feature_matrix(self):
        bline = make_policy_config("bline")
        assert bline.max_batch == 1
        assert bline.provisioning is Provisioning.ON_DEMAND
        assert bline.scheduling == SchedulingPolicy.FIFO
        assert bline.placement == NodePlacementPolicy.SPREAD

        sbatch = make_policy_config("sbatch")
        assert sbatch.max_batch > 1
        assert sbatch.provisioning is Provisioning.STATIC
        assert sbatch.slack_division == SlackDivision.EQUAL

        rscale = make_policy_config("rscale")
        assert rscale.max_batch > 1
        assert rscale.provisioning is Provisioning.RSCALE
        assert rscale.proactive_predictor is None
        assert rscale.scheduling == SchedulingPolicy.LSF

        bpred = make_policy_config("bpred")
        assert bpred.max_batch == 1 and bpred.proactive_predictor == "ewma"
        assert bpred.provisioning is Provisioning.ON_DEMAND

        fifer = make_policy_config("fifer")
        assert fifer.max_batch > 1
        assert fifer.provisioning is Provisioning.RSCALE
        assert fifer.proactive_predictor == "lstm"
        assert fifer.placement == NodePlacementPolicy.PACK

    def test_overrides_for_ablations(self):
        ablated = make_policy_config(
            "fifer", scheduling=SchedulingPolicy.FIFO,
            slack_division=SlackDivision.EQUAL,
        )
        assert ablated.scheduling == SchedulingPolicy.FIFO
        assert ablated.slack_division == SlackDivision.EQUAL

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            make_policy_config("magic")

    def test_invalid_utilization(self):
        with pytest.raises(ValueError):
            make_policy_config("fifer", utilization_target=1.5)
