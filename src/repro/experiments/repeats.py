"""Seed-repetition harness: metric means and spreads across runs.

Single-seed results can mislead on stochastic workloads; this harness
repeats a (policy, mix, trace-distribution) configuration across seeds
and reports mean, standard deviation and extrema per metric — the
statistical hygiene layer on top of :func:`repro.runtime.run_policy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.policies import RMConfig
from repro.metrics.collector import RunResult
from repro.runtime.system import ClusterSpec
from repro.scenario import Scenario
from repro.traces import step_poisson_trace
from repro.traces.base import ArrivalTrace

#: Metrics aggregated by default (RunResult attributes/properties).
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


def repeated_runs(
    policy: str,
    mix_name: str = "heavy",
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    trace_factory: Optional[Callable[[int], ArrivalTrace]] = None,
    cluster_spec: Optional[ClusterSpec] = None,
    **config_overrides,
) -> List[RunResult]:
    """Run *policy* once per seed; both the trace sample and the
    system's internal randomness vary with the seed.  The policy's stock
    config (the paper's 10 min idle timeout, not the experiments'
    scaled-down one) applies unless *config_overrides* say otherwise."""
    if not seeds:
        raise ValueError("need at least one seed")
    trace_factory = trace_factory or (
        lambda seed: step_poisson_trace(50.0, 180.0, variation=0.4, seed=seed)
    )
    config_overrides.setdefault("idle_timeout_ms", RMConfig.idle_timeout_ms)
    return [
        Scenario.make(
            policy, mix=mix_name, trace=trace_factory(seed),
            cluster=cluster_spec or ClusterSpec(), seed=seed,
            **config_overrides,
        ).run()
        for seed in seeds
    ]


def aggregate(
    results: Sequence[RunResult],
    metrics: Sequence[str] = DEFAULT_METRICS,
) -> Dict[str, MetricStats]:
    """Per-metric statistics across a repeated-run batch."""
    if not results:
        raise ValueError("no results to aggregate")
    out: Dict[str, MetricStats] = {}
    for metric in metrics:
        values = []
        for result in results:
            attr = getattr(result, metric)
            values.append(float(attr() if callable(attr) else attr))
        out[metric] = MetricStats.of(values)
    return out


def repeated_summaries(
    policy: str,
    mix_name: str = "heavy",
    base_seed: int = 1,
    repeats: int = 5,
    trace_kind: str = "step-poisson",
    rate_rps: float = 50.0,
    duration_s: float = 180.0,
    nodes: int = 5,
    workers: int = 1,
    cache_dir=None,
    use_cache: bool = True,
    **config_overrides,
) -> List[Dict[str, float]]:
    """Parallel/cached variant of :func:`repeated_runs`.

    Runs through :class:`~repro.experiments.runner.ExperimentRunner`,
    so trials fan out over *workers* processes and completed trials are
    replayed from *cache_dir*.  Returns one ``RunResult.summary()``
    dict per derived seed, in seed order.  Seeds come from
    :func:`~repro.experiments.runner.derive_seeds`, not ``range()`` —
    pass the same ``base_seed`` to reproduce a batch exactly.
    """
    from repro.experiments.runner import ExperimentRunner, repeat_specs

    specs = repeat_specs(
        policy,
        base_seed=base_seed,
        repeats=repeats,
        mix=mix_name,
        trace_kind=trace_kind,
        rate_rps=rate_rps,
        duration_s=duration_s,
        nodes=nodes,
        overrides=tuple(config_overrides.items()),
    )
    runner = ExperimentRunner(
        workers=workers, cache_dir=cache_dir, use_cache=use_cache
    )
    return runner.run_summaries(specs)


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


def compare_with_confidence(
    policy_a: str,
    policy_b: str,
    metric: str = "avg_containers",
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    **kwargs,
) -> Dict[str, MetricStats]:
    """Repeated-run comparison of one metric between two policies."""
    return {
        policy_a: aggregate(
            repeated_runs(policy_a, seeds=seeds, **kwargs), [metric]
        )[metric],
        policy_b: aggregate(
            repeated_runs(policy_b, seeds=seeds, **kwargs), [metric]
        )[metric],
    }
