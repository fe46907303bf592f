"""Real-system-prototype experiments (Figures 8-12 and 15).

The paper's prototype: an 80-compute-core Kubernetes cluster driven by a
synthetic Poisson arrival process with average rate lambda = 50 req/s,
three workload mixes, all five resource managers.

Scaled-down deviations (documented in EXPERIMENTS.md):

* run length defaults to 600 s instead of multi-hour runs;
* the idle-container timeout shrinks from 10 min to 60 s so scale-down
  dynamics appear within the shorter run (same ratio to run length);
* the Poisson rate steps ±40% around the mean every 60 s — with hours of
  arrivals the paper's static-lambda process produces the same effect
  through natural drift; a fixed lambda over 10 simulated minutes shows
  no fluctuation at all and every policy degenerates to steady state.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.metrics.collector import RunResult
from repro.runtime.system import ClusterSpec
from repro.scenario import SCALED_IDLE_TIMEOUT_MS, Scenario
from repro.traces import step_poisson_trace
from repro.traces.base import ArrivalTrace

PROTOTYPE_POLICIES = ("bline", "sbatch", "rscale", "bpred", "fifer")

DEFAULT_MEAN_RATE_RPS = 50.0
DEFAULT_DURATION_S = 600.0


def prototype_cluster() -> ClusterSpec:
    """The paper's 80-compute-core worker pool (5 x 16 cores)."""
    return ClusterSpec(n_nodes=5, cores_per_node=16.0)


def prototype_trace(
    mean_rate_rps: float = DEFAULT_MEAN_RATE_RPS,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = 3,
) -> ArrivalTrace:
    """The prototype's Poisson-based arrival process."""
    return step_poisson_trace(
        mean_rate_rps, duration_s, variation=0.4, seed=seed
    )


def run_prototype(
    mix_name: str = "heavy",
    policies: Optional[List[str]] = None,
    mean_rate_rps: float = DEFAULT_MEAN_RATE_RPS,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = 5,
    idle_timeout_ms: float = SCALED_IDLE_TIMEOUT_MS,
    cluster: Optional[ClusterSpec] = None,
) -> Dict[str, RunResult]:
    """Run the prototype experiment for one workload mix.

    Returns one :class:`RunResult` per policy, keyed by policy name.
    Fifer's LSTM is pre-trained offline on an independent trace of the
    same distribution (the paper's 60%-of-trace pre-training).
    """
    trace = prototype_trace(mean_rate_rps, duration_s, seed=seed)
    return {
        policy: Scenario.make(
            policy, mix=mix_name, trace=trace, rate_rps=mean_rate_rps,
            cluster=cluster or prototype_cluster(), seed=seed,
            idle_timeout_ms=idle_timeout_ms,
        ).run()
        for policy in policies or PROTOTYPE_POLICIES
    }


def run_prototype_all_mixes(
    policies: Optional[List[str]] = None,
    **kwargs,
) -> Dict[str, Dict[str, RunResult]]:
    """Figure 8's full grid: {mix: {policy: result}}."""
    return {
        mix: run_prototype(mix, policies=policies, **kwargs)
        for mix in ("heavy", "medium", "light")
    }


_PROTOTYPE_CACHE: Dict[str, Dict[str, RunResult]] = {}


def cached_prototype(mix_name: str = "heavy", **kwargs) -> Dict[str, RunResult]:
    """Memoised :func:`run_prototype` — Figures 8-12 and 15 all analyse
    the same runs, so the bench suite executes each mix once."""
    if kwargs:
        return run_prototype(mix_name, **kwargs)
    if mix_name not in _PROTOTYPE_CACHE:
        _PROTOTYPE_CACHE[mix_name] = run_prototype(mix_name)
    return _PROTOTYPE_CACHE[mix_name]
