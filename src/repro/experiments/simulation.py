"""Large-scale trace-driven simulation experiments (Figures 13, 14, 16).

The paper scales its simulator to a 2500-core cluster and replays the
Wikipedia (avg ~1500 req/s, diurnal) and WITS (avg ~300 req/s, peak
~1200, flash crowds) traces over the three workload mixes.

Scaled-down deviations (documented in EXPERIMENTS.md): rates are divided
by ``RATE_SCALE`` (default 15) and the cluster shrinks proportionally,
keeping offered-load-per-core and the traces' *shape parameters*
(diurnality, peak-to-median ratio ~5x for WITS) identical; durations
default to 900 s covering several diurnal periods of the compressed
Wiki day.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.metrics.collector import RunResult
from repro.runtime.system import ClusterSpec
from repro.scenario import SCALED_IDLE_TIMEOUT_MS, Scenario
from repro.traces import wiki_trace, wits_trace
from repro.traces.base import ArrivalTrace

#: Divide the paper's arrival rates by this factor (cluster shrinks too).
RATE_SCALE = 15.0
#: Paper rates.
WIKI_AVG_RPS = 1500.0
WITS_AVG_RPS = 300.0
WITS_PEAK_RPS = 1200.0

DEFAULT_DURATION_S = 600.0

SIMULATION_POLICIES = ("bline", "sbatch", "rscale", "bpred", "fifer")


def simulation_cluster(rate_scale: float = RATE_SCALE) -> ClusterSpec:
    """The 2500-core simulated cluster, shrunk by the rate scale."""
    cores = 2500.0 / rate_scale
    n_nodes = max(1, round(cores / 16.0))
    return ClusterSpec(n_nodes=n_nodes, cores_per_node=16.0)


def make_scaled_trace(
    kind: str,
    duration_s: float = DEFAULT_DURATION_S,
    rate_scale: float = RATE_SCALE,
    seed: int = 7,
) -> ArrivalTrace:
    """A Wiki- or WITS-like trace at ``paper_rate / rate_scale``."""
    if kind == "wiki":
        return wiki_trace(
            avg_rps=WIKI_AVG_RPS / rate_scale,
            duration_s=duration_s,
            period_s=300.0,
            seed=seed,
        )
    if kind == "wits":
        return wits_trace(
            avg_rps=WITS_AVG_RPS / rate_scale,
            peak_rps=WITS_PEAK_RPS / rate_scale,
            duration_s=duration_s,
            seed=seed,
        )
    raise ValueError(f"unknown trace kind {kind!r} (want 'wiki' or 'wits')")


def run_trace_simulation(
    kind: str,
    mix_name: str = "heavy",
    policies: Optional[List[str]] = None,
    duration_s: float = DEFAULT_DURATION_S,
    rate_scale: float = RATE_SCALE,
    seed: int = 7,
    idle_timeout_ms: float = SCALED_IDLE_TIMEOUT_MS,
) -> Dict[str, RunResult]:
    """Replay a scaled trace under each policy; {policy: result}.

    Fifer's LSTM (and any other trainable predictor) is pre-trained on
    an independently seeded trace of the same distribution — the
    paper's "pre-trained with 60% of the arrival trace input".
    """
    trace = make_scaled_trace(kind, duration_s, rate_scale, seed=seed)
    mean_rate = (WIKI_AVG_RPS if kind == "wiki" else WITS_AVG_RPS) / rate_scale
    return {
        policy: Scenario.make(
            policy, mix=mix_name, trace=trace, trace_kind=kind,
            rate_rps=mean_rate, cluster=simulation_cluster(rate_scale),
            seed=seed, idle_timeout_ms=idle_timeout_ms,
        ).run()
        for policy in policies or SIMULATION_POLICIES
    }


def run_trace_all_mixes(
    kind: str,
    policies: Optional[List[str]] = None,
    **kwargs,
) -> Dict[str, Dict[str, RunResult]]:
    """Figures 13/14's grid for one trace: {mix: {policy: result}}."""
    return {
        mix: run_trace_simulation(kind, mix, policies=policies, **kwargs)
        for mix in ("heavy", "medium", "light")
    }


_TRACE_CACHE: Dict[tuple, Dict[str, RunResult]] = {}


def cached_trace_simulation(kind: str, mix_name: str = "heavy", **kwargs) -> Dict[str, RunResult]:
    """Memoised :func:`run_trace_simulation` — Figures 13, 14 and 16 all
    analyse the same trace replays."""
    if kwargs:
        return run_trace_simulation(kind, mix_name, **kwargs)
    key = (kind, mix_name)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = run_trace_simulation(kind, mix_name)
    return _TRACE_CACHE[key]
