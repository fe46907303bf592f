"""Ablation studies on Fifer's design choices (DESIGN.md section 6).

The paper motivates several design decisions without always isolating
them; because our five policies share one mechanism set, each choice can
be toggled independently:

* **Slack division** — proportional (Fifer) vs equal (ED): the paper
  cites GrandSLAm for proportional giving better per-stage utilisation.
* **Scheduling** — LSF vs FIFO on shared stages (section 4.3).
* **Predictor** — any of the eight Figure 6 models can drive Fifer's
  proactive scaler; the LSTM is the paper's pick.
* **Placement** — pack (MostRequestedPriority) vs spread: the energy
  mechanism of section 4.4.2.
* **SLO sensitivity** — section 8: chains whose execution time exceeds
  ~50% of the SLO gain little from batching.
* **HPA baseline** — the Knative-style autoscaler of section 2.2.1.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.cluster.cluster import NodePlacementPolicy
from repro.core.scheduling import SchedulingPolicy
from repro.core.slack import SlackDivision
from repro.experiments.prototype import prototype_cluster, prototype_trace
from repro.metrics.collector import RunResult
from repro.scenario import Scenario
from repro.workloads import get_mix
from repro.workloads.mixes import WorkloadMix


def _run(policy: str, mix, duration_s: float, seed: int,
         **overrides) -> RunResult:
    """One ablation arm: *policy* with *overrides* on the prototype's
    cluster and (nominally 50 req/s step-Poisson) trace."""
    return Scenario.make(
        policy, mix=mix, trace=prototype_trace(duration_s=duration_s, seed=seed),
        cluster=prototype_cluster(), seed=seed, **overrides,
    ).run()


def slack_division_ablation(
    mix_name: str = "heavy",
    duration_s: float = 300.0,
    seed: int = 5,
) -> Dict[str, RunResult]:
    """RScale with proportional vs equal slack division."""
    return {
        division.value: _run(
            "rscale", mix_name, duration_s, seed, slack_division=division)
        for division in (SlackDivision.PROPORTIONAL, SlackDivision.EQUAL)
    }


def scheduling_ablation(
    mix_name: str = "medium",
    duration_s: float = 300.0,
    seed: int = 5,
) -> Dict[str, RunResult]:
    """LSF vs FIFO for Fifer on a mix with *shared* stages.

    The medium mix (IPA + IMG) shares NLP and QA, where the two chains'
    residual slack differs — the scenario section 4.3 designs LSF for.
    """
    return {
        policy.value: _run(
            "fifer", mix_name, duration_s, seed, scheduling=policy)
        for policy in (SchedulingPolicy.LSF, SchedulingPolicy.FIFO)
    }


def predictor_ablation(
    models: Sequence[str] = ("lstm", "ewma", "mwa"),
    mix_name: str = "heavy",
    duration_s: float = 300.0,
    seed: int = 5,
) -> Dict[str, RunResult]:
    """Fifer driven by different forecasters (the swap-ability hook)."""
    return {
        model: _run(
            "fifer", mix_name, duration_s, seed, proactive_predictor=model)
        for model in models
    }


def placement_ablation(
    mix_name: str = "heavy",
    duration_s: float = 300.0,
    seed: int = 5,
) -> Dict[str, RunResult]:
    """Fifer with pack vs spread node selection (energy mechanism)."""
    return {
        placement.value: _run(
            "fifer", mix_name, duration_s, seed, placement=placement)
        for placement in (NodePlacementPolicy.PACK, NodePlacementPolicy.SPREAD)
    }


def slo_sensitivity(
    slos_ms: Sequence[float] = (600.0, 800.0, 1000.0, 1500.0, 2000.0),
    mix_name: str = "heavy",
    duration_s: float = 240.0,
    seed: int = 5,
) -> Dict[float, RunResult]:
    """Fifer under tightening SLOs (section 8's batching-collapse point).

    SLOs below the heaviest chain's execution + overhead are skipped —
    no slack exists there at all.
    """
    base_mix = get_mix(mix_name)
    out: Dict[float, RunResult] = {}
    for slo in slos_ms:
        try:
            apps = tuple(app.with_slo(slo) for app in base_mix.applications)
        except ValueError:
            continue  # execution exceeds this SLO; no feasible plan
        mix = WorkloadMix(
            name=f"{base_mix.name}@slo{slo:.0f}",
            applications=apps,
            weights=base_mix.weights,
        )
        out[slo] = _run("fifer", mix, duration_s, seed)
    return out


def hpa_comparison(
    mix_name: str = "heavy",
    duration_s: float = 300.0,
    seed: int = 5,
) -> Dict[str, RunResult]:
    """Fifer vs the Knative-style HPA baseline (section 2.2.1)."""
    return {policy: _run(policy, mix_name, duration_s, seed)
            for policy in ("hpa", "fifer")}
