"""Tests for slack distribution, batch sizing and stage plans."""

import math

import pytest

from repro.core.slack import (
    SlackDivision,
    batch_size_for,
    build_stage_plan,
    distribute_slack,
    function_batch_sizes,
    function_response_ms,
    function_slack_ms,
)
from repro.workloads import get_application


class TestDistributeSlack:
    def test_proportional_sums_to_total(self):
        for name in ["ipa", "img", "detect-fatigue", "face-security"]:
            app = get_application(name)
            slacks = distribute_slack(app, SlackDivision.PROPORTIONAL)
            assert sum(slacks) == pytest.approx(app.slack_ms)

    def test_equal_sums_to_total(self):
        app = get_application("ipa")
        slacks = distribute_slack(app, SlackDivision.EQUAL)
        assert sum(slacks) == pytest.approx(app.slack_ms)
        assert all(s == pytest.approx(slacks[0]) for s in slacks)

    def test_proportional_weights_by_exec_time(self):
        app = get_application("detect-fatigue")
        slacks = distribute_slack(app, SlackDivision.PROPORTIONAL)
        # HS (151.2ms) dominates, so it gets the largest slack share.
        assert slacks[0] == max(slacks)
        ratio = slacks[0] / app.slack_ms
        exec_ratio = app.stage_exec_ms(0) / app.total_exec_ms
        assert ratio == pytest.approx(exec_ratio)

    def test_proportional_gives_uniform_batch_sizes(self):
        # The paper: proportional allocation "results in having similar
        # batch sizes for the containers at every stage".
        app = get_application("ipa")
        slacks = distribute_slack(app, SlackDivision.PROPORTIONAL)
        batches = [
            slack / svc.mean_exec_ms for slack, svc in zip(slacks, app.stages)
        ]
        assert max(batches) - min(batches) < 1e-9


class TestBatchSize:
    def test_formula(self):
        assert batch_size_for(600.0, 100.0) == 6

    def test_floor_behaviour(self):
        assert batch_size_for(599.0, 100.0) == 5

    def test_minimum_one(self):
        assert batch_size_for(10.0, 100.0) == 1
        assert batch_size_for(0.0, 100.0) == 1

    def test_max_batch_cap(self):
        # Sub-millisecond stages (NLP) would otherwise explode.
        assert batch_size_for(500.0, 0.19, max_batch=64) == 64

    def test_invalid_exec(self):
        with pytest.raises(ValueError):
            batch_size_for(100.0, 0.0)

    def test_negative_slack_clamps_to_one(self):
        # A stage can end up with zero or negative residual slack (SLO
        # already blown upstream); sizing must degrade to no batching,
        # never raise or return 0.
        assert batch_size_for(-1.0, 10.0) == 1
        assert batch_size_for(-1e9, 10.0) == 1

    def test_invalid_max_batch(self):
        with pytest.raises(ValueError):
            batch_size_for(100.0, 10.0, max_batch=0)


class TestStagePlan:
    def test_plan_consistency(self):
        app = get_application("ipa")
        plan = build_stage_plan(app)
        assert len(plan.stage_slack_ms) == app.n_stages
        assert len(plan.stage_batch) == app.n_stages
        for slack, batch, resp, svc in zip(
            plan.stage_slack_ms, plan.stage_batch, plan.stage_response_ms, app.stages
        ):
            assert resp == pytest.approx(slack + svc.mean_exec_ms)
            assert batch >= 1
            # Full local queue must drain within the allocated slack.
            assert batch * svc.mean_exec_ms <= slack or batch == 1

    def test_non_batching_plan_pins_batch_to_one(self):
        plan = build_stage_plan(get_application("ipa"), max_batch=1)
        assert all(b == 1 for b in plan.stage_batch)
        # Slack accounting survives for LSF.
        assert sum(plan.stage_slack_ms) == pytest.approx(
            get_application("ipa").slack_ms
        )

    def test_stage_index_of(self):
        plan = build_stage_plan(get_application("img"))
        assert plan.stage_index_of("NLP") == 1
        with pytest.raises(KeyError):
            plan.stage_index_of("ASR")

    def test_equal_division_plan(self):
        plan = build_stage_plan(
            get_application("ipa"), division=SlackDivision.EQUAL
        )
        assert plan.stage_slack_ms[0] == pytest.approx(plan.stage_slack_ms[1])


class TestSharedFunctionAggregation:
    def test_min_batch_across_apps(self):
        plans = [
            build_stage_plan(get_application("ipa")),
            build_stage_plan(get_application("img")),
        ]
        sizes = function_batch_sizes(plans)
        # Shared stages take the conservative minimum.
        ipa_qa = plans[0].stage_batch[plans[0].stage_index_of("QA")]
        img_qa = plans[1].stage_batch[plans[1].stage_index_of("QA")]
        assert sizes["QA"] == min(ipa_qa, img_qa)
        # Non-shared stages keep their own value.
        assert sizes["ASR"] == plans[0].stage_batch[0]
        assert sizes["IMC"] == plans[1].stage_batch[0]

    def test_min_slack_and_response(self):
        plans = [
            build_stage_plan(get_application("ipa")),
            build_stage_plan(get_application("img")),
        ]
        slacks = function_slack_ms(plans)
        responses = function_response_ms(plans)
        assert set(slacks) == {"ASR", "NLP", "QA", "IMC"}
        for fn in slacks:
            candidates = []
            for plan in plans:
                try:
                    idx = plan.stage_index_of(fn)
                except KeyError:
                    continue
                candidates.append(plan.stage_slack_ms[idx])
            assert slacks[fn] == pytest.approx(min(candidates))
        for fn in responses:
            assert responses[fn] > slacks[fn]  # response = slack + exec
