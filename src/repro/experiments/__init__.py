"""Experiment definitions: one entry point per paper figure/table.

* :mod:`repro.experiments.characterization` — Figure 2 (cold vs warm
  starts), Figure 3 (stage breakdowns), Table 4 (slack).
* :mod:`repro.experiments.predictors` — Figure 6 (the eight forecasters)
  and cached predictor pre-training for the policy experiments.
* :mod:`repro.experiments.prototype` — the real-system-prototype
  experiments (Figures 8-12, 15) on the 80-core cluster at Poisson-like
  load.
* :mod:`repro.experiments.simulation` — the large-scale trace-driven
  experiments (Figures 13, 14, 16) on Wiki-like and WITS-like arrivals.
* :mod:`repro.experiments.features` — Table 6's feature matrix.
* :mod:`repro.experiments.report` — plain-text table rendering.
* :mod:`repro.experiments.runner` — the one way to repeat or sweep a
  run: scenarios (one per :func:`derive_seeds` seed, or
  :func:`sweep_specs`) through :class:`ExperimentRunner`, parallel and
  cached, folded by :func:`aggregate_summaries`;
  :func:`sweep_config_field` is the in-process one-knob sweep.

Scaled-down defaults: the paper's runs span hours; the defaults here
shrink durations (documented per function) so the whole suite executes
in minutes while preserving the shapes — orderings, approximate ratios
and crossover points.  The trace-driven study keeps the paper's rates
and its 2500-core cluster.
"""

from repro.experiments.characterization import (
    figure2_rows,
    figure3a_rows,
    figure3b_rows,
    table4_rows,
)
from repro.experiments.features import TABLE6_FEATURES, table6_rows
from repro.experiments.predictors import (
    figure6_reports,
    pretrained_predictor,
    training_series_for,
)
from repro.experiments.prototype import (
    PROTOTYPE_POLICIES,
    prototype_cluster,
    run_prototype,
)
from repro.experiments.simulation import (
    make_scaled_trace,
    run_trace_simulation,
    simulation_cluster,
)
from repro.experiments.report import format_table, normalize
from repro.experiments.ablations import (
    hpa_comparison,
    placement_ablation,
    predictor_ablation,
    scheduling_ablation,
    slack_division_ablation,
    slo_sensitivity,
)
from repro.experiments.repeats import MetricStats, aggregate_summaries
from repro.experiments.runner import (
    ExperimentRunner,
    TrialResult,
    config_hash,
    derive_seeds,
    run_trial,
    sweep_specs,
)
from repro.experiments.summary import ReportScale, generate_report
from repro.experiments.sweeps import sweep_config_field

__all__ = [
    "figure2_rows",
    "figure3a_rows",
    "figure3b_rows",
    "table4_rows",
    "TABLE6_FEATURES",
    "table6_rows",
    "figure6_reports",
    "pretrained_predictor",
    "training_series_for",
    "PROTOTYPE_POLICIES",
    "prototype_cluster",
    "run_prototype",
    "make_scaled_trace",
    "run_trace_simulation",
    "simulation_cluster",
    "format_table",
    "normalize",
    "hpa_comparison",
    "placement_ablation",
    "predictor_ablation",
    "scheduling_ablation",
    "slack_division_ablation",
    "slo_sensitivity",
    "MetricStats",
    "aggregate_summaries",
    "ExperimentRunner",
    "TrialResult",
    "config_hash",
    "derive_seeds",
    "run_trial",
    "sweep_specs",
    "ReportScale",
    "generate_report",
    "sweep_config_field",
]
