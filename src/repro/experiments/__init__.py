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

Scaled-down defaults: the paper's runs span hours on up to 2500 cores;
the defaults here shrink rates/durations (documented per function) so
the whole suite executes in minutes while preserving the shapes —
orderings, approximate ratios and crossover points.
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
from repro.experiments.scaling_study import container_savings, run_scaling_study
from repro.experiments.repeats import (
    MetricStats,
    aggregate,
    aggregate_summaries,
    repeated_runs,
    repeated_summaries,
)
from repro.experiments.runner import (
    ExperimentRunner,
    TrialResult,
    config_hash,
    derive_seeds,
    repeat_specs,
    run_trial,
    summaries_json,
    sweep_specs,
)
from repro.experiments.summary import ReportScale, generate_report
from repro.experiments.sweeps import (
    metric_curve,
    sweep_config_field,
    sweep_config_field_parallel,
)

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
    "container_savings",
    "run_scaling_study",
    "MetricStats",
    "aggregate",
    "aggregate_summaries",
    "repeated_runs",
    "repeated_summaries",
    "ExperimentRunner",
    "TrialResult",
    "config_hash",
    "derive_seeds",
    "repeat_specs",
    "run_trial",
    "summaries_json",
    "sweep_specs",
    "ReportScale",
    "generate_report",
    "metric_curve",
    "sweep_config_field",
    "sweep_config_field_parallel",
]
