"""Tests for the workload substrate (Tables 3, 4, 5 and Figure 2)."""

import numpy as np
import pytest

from repro.workloads import (
    APPLICATIONS,
    LAMBDA_MODELS,
    MICROSERVICES,
    WORKLOAD_MIXES,
    DEFAULT_SLO_MS,
    get_application,
    get_microservice,
    get_mix,
    measure_cold_start,
    measure_warm_start,
)
from repro.workloads.applications import TABLE4_SLACK_MS
from repro.workloads.microservices import Microservice


class TestMicroservices:
    def test_table3_exec_times(self):
        expected = {
            "IMC": 43.5, "AP": 30.3, "HS": 151.2, "FACER": 5.5,
            "FACED": 6.1, "ASR": 46.1, "POS": 0.100, "NER": 0.09, "QA": 56.1,
        }
        for name, exec_ms in expected.items():
            assert MICROSERVICES[name].mean_exec_ms == pytest.approx(exec_ms)

    def test_nlp_is_pos_plus_ner(self):
        nlp = MICROSERVICES["NLP"]
        assert nlp.mean_exec_ms == pytest.approx(0.19)

    def test_lookup_case_insensitive(self):
        assert get_microservice("asr").name == "ASR"

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            get_microservice("nope")

    def test_exec_time_deterministic_without_rng(self):
        svc = MICROSERVICES["ASR"]
        assert svc.exec_time_ms() == svc.mean_exec_ms

    def test_exec_time_jitter_bounded(self):
        # Figure 3b: std-dev within 20 ms over repeated runs.
        rng = np.random.default_rng(0)
        svc = MICROSERVICES["HS"]
        samples = [svc.exec_time_ms(rng) for _ in range(100)]
        assert np.std(samples) < 20.0
        assert all(s > 0 for s in samples)

    def test_exec_time_never_near_zero(self):
        rng = np.random.default_rng(0)
        svc = Microservice("X", "x", "m", "d", mean_exec_ms=1.0, exec_std_ms=5.0)
        assert min(svc.exec_time_ms(rng) for _ in range(200)) >= 0.1

    def test_invalid_exec_time_rejected(self):
        with pytest.raises(ValueError):
            Microservice("bad", "b", "m", "d", mean_exec_ms=0.0)

    def test_container_resources_match_paper(self):
        for svc in MICROSERVICES.values():
            assert svc.cpu_cores == 0.5
            assert svc.memory_mb <= 1024


class TestApplications:
    def test_table4_chains(self):
        assert get_application("face-security").stage_names == ("FACED", "FACER")
        assert get_application("img").stage_names == ("IMC", "NLP", "QA")
        assert get_application("ipa").stage_names == ("ASR", "NLP", "QA")
        assert get_application("detect-fatigue").stage_names == (
            "HS", "AP", "FACED", "FACER",
        )

    def test_slack_matches_table4_exactly(self):
        for name, slack in TABLE4_SLACK_MS.items():
            assert APPLICATIONS[name].slack_ms == pytest.approx(slack)

    def test_slo_is_1000ms(self):
        for app in APPLICATIONS.values():
            assert app.slo_ms == DEFAULT_SLO_MS == 1000.0

    def test_slack_ordering_matches_paper(self):
        # Table 4 is ordered by decreasing slack.
        slacks = [
            APPLICATIONS[n].slack_ms
            for n in ["face-security", "img", "ipa", "detect-fatigue"]
        ]
        assert slacks == sorted(slacks, reverse=True)

    def test_transition_overhead_positive(self):
        for app in APPLICATIONS.values():
            assert app.transition_overhead_ms > 0

    def test_total_accounting(self):
        for app in APPLICATIONS.values():
            total = app.total_exec_ms + app.total_overhead_ms + app.slack_ms
            assert total == pytest.approx(app.slo_ms)

    def test_with_slo_changes_slack(self):
        app = get_application("ipa").with_slo(2000.0)
        assert app.slack_ms == pytest.approx(
            get_application("ipa").slack_ms + 1000.0
        )

    def test_with_slo_too_tight_raises(self):
        with pytest.raises(ValueError):
            get_application("detect-fatigue").with_slo(300.0)

    def test_unknown_application(self):
        with pytest.raises(KeyError):
            get_application("unknown")

    def test_detect_fatigue_stage1_dominates(self):
        # Figure 3a: HS dominates Detect-Fatigue's execution time (~81%).
        app = get_application("detect-fatigue")
        share = app.stage_exec_ms(0) / app.total_exec_ms
        assert share > 0.7


class TestMixes:
    def test_table5_composition(self):
        assert {a.name for a in get_mix("heavy").applications} == {
            "ipa", "detect-fatigue",
        }
        assert {a.name for a in get_mix("medium").applications} == {"ipa", "img"}
        assert {a.name for a in get_mix("light").applications} == {
            "img", "face-security",
        }

    def test_slack_ordering_heavy_to_light(self):
        # "Based on the increasing order of total available slack."
        heavy = get_mix("heavy").avg_slack_ms
        medium = get_mix("medium").avg_slack_ms
        light = get_mix("light").avg_slack_ms
        assert heavy < medium < light

    def test_weights_normalised(self):
        for mix in WORKLOAD_MIXES.values():
            assert sum(mix.weights) == pytest.approx(1.0)

    def test_sample_application_distribution(self):
        mix = get_mix("heavy")
        rng = np.random.default_rng(0)
        names = [mix.sample_application(rng).name for _ in range(2000)]
        share = names.count("ipa") / len(names)
        assert 0.45 < share < 0.55

    def test_function_names_unique_and_shared(self):
        medium = get_mix("medium")
        names = medium.function_names()
        assert len(names) == len(set(names))
        # IPA and IMG share NLP and QA.
        assert "NLP" in names and "QA" in names

    def test_unknown_mix(self):
        with pytest.raises(KeyError):
            get_mix("extreme")


def cold_start_overhead_ms(model):
    """Deterministic cold-minus-warm RTT gap for *model*."""
    return measure_cold_start(model)["rtt"] - measure_warm_start(model)["rtt"]


class TestLambdaModel:
    def test_seven_models(self):
        assert len(LAMBDA_MODELS) == 7
        assert "Squeezenet" in LAMBDA_MODELS and "Resnet-200" in LAMBDA_MODELS

    def test_cold_start_overhead_in_paper_range(self):
        # Figure 2: cold starts contribute ~2000-7500ms over warm.
        overheads = [cold_start_overhead_ms(m) for m in LAMBDA_MODELS.values()]
        assert min(overheads) > 1000.0
        assert max(overheads) < 11_000.0

    def test_overhead_grows_with_model_size(self):
        small = cold_start_overhead_ms(LAMBDA_MODELS["Squeezenet"])
        large = cold_start_overhead_ms(LAMBDA_MODELS["Resnet-200"])
        assert large > 3 * small

    def test_warm_under_1500ms_for_small_models(self):
        # Figure 2b: warm totals within ~1500 ms except the largest.
        for name in ["Squeezenet", "Resnet-18", "Resnet-50"]:
            warm = measure_warm_start(LAMBDA_MODELS[name])
            assert warm["rtt"] < 1500.0

    def test_cold_exceeds_warm_always(self):
        rng = np.random.default_rng(0)
        for model in LAMBDA_MODELS.values():
            cold = measure_cold_start(model, rng)
            warm = measure_warm_start(model, rng)
            assert cold["rtt"] > warm["rtt"]
            assert cold["exec_time"] > 0 and warm["exec_time"] > 0

    def test_rtt_includes_exec(self):
        for model in LAMBDA_MODELS.values():
            cold = measure_cold_start(model)
            assert cold["rtt"] > cold["exec_time"]
