"""Generic design-knob sweeps over RMConfig fields.

Fifer has several magic numbers the paper fixes without sensitivity
analysis — the 10 s monitoring interval, the 10 min idle timeout, the
batch-size cap, the provisioning headroom.  ``sweep_config_field`` runs
one policy across a range of values for any RMConfig field and returns
the metric curves, so each choice's operating range can be mapped.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.policies import RMConfig
from repro.experiments.runner import sweep_specs
from repro.runtime.system import ClusterSpec
from repro.scenario import SCALED_IDLE_TIMEOUT_MS
from repro.traces import step_poisson_trace
from repro.traces.base import ArrivalTrace


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
    if not values:
        raise ValueError("need at least one value to sweep")
    trace = trace if trace is not None else step_poisson_trace(
        50.0, 240.0, variation=0.4, seed=seed
    )
    grid = sweep_specs(
        policy, field, values, mix=mix_name, trace=trace,
        rate_rps=trace.mean_rate_rps, cluster=cluster_spec or ClusterSpec(),
        seed=seed, overrides=tuple({
            "idle_timeout_ms": RMConfig.idle_timeout_ms,
            **(base_overrides or {})}.items()))
    for scenario in grid:
        # Refused before anything runs: RMConfig has no such field, or
        # does not admit one of the values.
        scenario.config()
    return {value: scenario.run() for value, scenario in zip(values, grid)}


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
