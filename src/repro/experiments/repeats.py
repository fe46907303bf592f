"""Seed-repetition statistics: metric means and spreads across runs.

Single-seed results can mislead on stochastic workloads; a repeat batch
runs one scenario per seed derived with
:func:`~repro.experiments.runner.derive_seeds` through the
:class:`~repro.experiments.runner.ExperimentRunner` (``repro run
--repeats``), and :func:`aggregate_summaries` reports mean, standard
deviation and extrema per metric over the runner's summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

#: Metrics aggregated by default (``RunResult.summary()`` keys).
DEFAULT_METRICS = (
    "slo_violation_rate",
    "median_latency_ms",
    "p99_latency_ms",
    "avg_containers",
    "cold_starts",
    "energy_joules",
)


@dataclass(frozen=True)
class MetricStats:
    """Mean / spread of one metric across repeated runs."""

    mean: float
    std: float
    min: float
    max: float
    n: int

    @staticmethod
    def of(values: Sequence[float]) -> "MetricStats":
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise ValueError("no values to aggregate")
        return MetricStats(
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            min=float(arr.min()),
            max=float(arr.max()),
            n=int(arr.size),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.3f} ± {self.std:.3f} [{self.min:.3f}, {self.max:.3f}]"


def aggregate_summaries(
    summaries: Sequence[Dict[str, float]],
    metrics: Sequence[str] = DEFAULT_METRICS,
) -> Dict[str, MetricStats]:
    """Per-metric statistics across summary dicts (runner output)."""
    if not summaries:
        raise ValueError("no summaries to aggregate")
    return {
        metric: MetricStats.of([s[metric] for s in summaries])
        for metric in metrics
    }
