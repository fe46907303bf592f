"""Generic design-knob sweeps over RMConfig fields.

Fifer has several magic numbers the paper fixes without sensitivity
analysis — the 10 s monitoring interval, the 10 min idle timeout, the
batch-size cap, the provisioning headroom.  ``sweep_config_field`` runs
one policy across a range of values for any RMConfig field and returns
the metric curves, so each choice's operating range can be mapped.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.policies import RMConfig
from repro.experiments.runner import ExperimentRunner, sweep_specs
from repro.runtime.system import ClusterSpec
from repro.scenario import SCALED_IDLE_TIMEOUT_MS, Scenario
from repro.traces import step_poisson_trace
from repro.traces.base import ArrivalTrace


def _grid(policy: str, field: str, values: Sequence, **members
          ) -> List[Scenario]:
    """One scenario per value of *field*, refused before anything runs
    when ``RMConfig`` has no such field or does not admit a value."""
    if not values:
        raise ValueError("need at least one value to sweep")
    grid = sweep_specs(policy, field, values, **members)
    for scenario in grid:
        scenario.config()
    return grid


def sweep_config_field(
    policy: str,
    field: str,
    values: Sequence,
    mix_name: str = "heavy",
    trace: Optional[ArrivalTrace] = None,
    cluster_spec: Optional[ClusterSpec] = None,
    seed: int = 5,
    base_overrides: Optional[Dict] = None,
) -> Dict:
    """Run *policy* once per value of *field*; {value: RunResult}.

    Every run shares the same trace, cluster and seed so the curve
    isolates the knob under study.  The policy's stock config (the
    paper's 10 min idle timeout) applies unless *base_overrides* say
    otherwise; the trace's measured mean rate stands in for a nominal
    one.
    """
    trace = trace if trace is not None else step_poisson_trace(
        50.0, 240.0, variation=0.4, seed=seed
    )
    grid = _grid(
        policy, field, values, mix=mix_name, trace=trace,
        rate_rps=trace.mean_rate_rps, cluster=cluster_spec or ClusterSpec(),
        seed=seed, overrides=tuple({
            "idle_timeout_ms": RMConfig.idle_timeout_ms,
            **(base_overrides or {})}.items()))
    return {value: scenario.run() for value, scenario in zip(values, grid)}


def sweep_config_field_parallel(
    policy: str,
    field: str,
    values: Sequence,
    mix_name: str = "heavy",
    trace_kind: str = "step-poisson",
    rate_rps: float = 50.0,
    duration_s: float = 240.0,
    nodes: int = 5,
    seed: int = 5,
    base_overrides: Optional[Dict] = None,
    workers: int = 1,
    cache_dir=None,
    use_cache: bool = True,
) -> Dict:
    """Parallel/cached variant of :func:`sweep_config_field`.

    Returns ``{value: summary_dict}`` (not RunResult objects — the
    trials may have run in other processes or been replayed from the
    disk cache).  All points share the trace kind/rate/seed so the
    curve still isolates the knob under study.
    """
    grid = _grid(
        policy, field, values, mix=mix_name, trace_kind=trace_kind,
        rate_rps=rate_rps, duration_s=duration_s, seed=seed, nodes=nodes,
        overrides=tuple((base_overrides or {}).items()))
    runner = ExperimentRunner(
        workers=workers, cache_dir=cache_dir, use_cache=use_cache
    )
    return dict(zip(values, runner.run_summaries(grid)))


def metric_curve(
    results: Dict, metric: str = "slo_violation_rate"
) -> List[tuple]:
    """Extract ``[(value, metric), ...]`` rows from a sweep result.

    Accepts both RunResult sweeps (:func:`sweep_config_field`) and
    summary-dict sweeps (:func:`sweep_config_field_parallel`).
    """
    rows = []
    for value, result in results.items():
        if isinstance(result, dict):
            rows.append((value, result[metric]))
            continue
        attr = getattr(result, metric)
        rows.append((value, attr() if callable(attr) else attr))
    return rows


def monitor_interval_sweep(
    intervals_ms: Sequence[float] = (5_000.0, 10_000.0, 20_000.0, 40_000.0),
    **kwargs,
) -> Dict:
    """How sensitive is RScale to the 10 s monitoring choice?"""
    return sweep_config_field(
        "rscale", "monitor_interval_ms", intervals_ms,
        base_overrides={"idle_timeout_ms": SCALED_IDLE_TIMEOUT_MS}, **kwargs,
    )


def idle_timeout_sweep(
    timeouts_ms: Sequence[float] = (15_000.0, 60_000.0, 240_000.0),
    **kwargs,
) -> Dict:
    """The keep-warm vs reap trade-off (paper: 10 minutes)."""
    return sweep_config_field(
        "rscale", "idle_timeout_ms", timeouts_ms, **kwargs
    )


def max_batch_sweep(
    caps: Sequence[int] = (1, 4, 16, 64),
    **kwargs,
) -> Dict:
    """Batch-size cap: 1 degenerates to non-batching."""
    return sweep_config_field(
        "rscale", "max_batch", caps,
        base_overrides={"idle_timeout_ms": SCALED_IDLE_TIMEOUT_MS}, **kwargs,
    )
