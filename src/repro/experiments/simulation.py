"""Large-scale trace-driven simulation experiments (Figures 13, 14, 16).

The paper runs its simulator on a 2500-core cluster and replays the
Wikipedia (avg ~1500 req/s, diurnal) and WITS (avg ~300 req/s, peak
~1200, flash crowds) traces over the three workload mixes.  These
experiments run at those rates on that cluster (156 x 16-core nodes),
on the vector engine.

Two deviations remain (documented in EXPERIMENTS.md): the Wiki "day" is
compressed to 300 s, since a 24 h day at 1500 req/s is ~130 M jobs
(~23 GB of per-job state), and idle containers are reaped after 60 s
instead of 10 min, so that a 600 s run sees several reap cycles.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.metrics.collector import RunResult
from repro.runtime.system import ClusterSpec
from repro.scenario import SCALED_IDLE_TIMEOUT_MS, Scenario
from repro.traces import wiki_trace, wits_trace
from repro.traces.base import ArrivalTrace

#: Paper rates.
WIKI_AVG_RPS = 1500.0
WITS_AVG_RPS = 300.0
WITS_PEAK_RPS = 1200.0

DEFAULT_DURATION_S = 600.0

SIMULATION_POLICIES = ("bline", "sbatch", "rscale", "bpred", "fifer")


def simulation_cluster() -> ClusterSpec:
    """The paper's 2500-core simulated cluster: 156 x 16-core nodes."""
    return ClusterSpec(n_nodes=156, cores_per_node=16.0)


def make_scaled_trace(
    kind: str,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = 7,
) -> ArrivalTrace:
    """A Wiki- or WITS-like trace at the paper's rates (the Wiki day
    compressed to 300 s)."""
    if kind == "wiki":
        return wiki_trace(
            avg_rps=WIKI_AVG_RPS,
            duration_s=duration_s,
            period_s=300.0,
            seed=seed,
        )
    if kind == "wits":
        return wits_trace(
            avg_rps=WITS_AVG_RPS,
            peak_rps=WITS_PEAK_RPS,
            duration_s=duration_s,
            seed=seed,
        )
    raise ValueError(f"unknown trace kind {kind!r} (want 'wiki' or 'wits')")


def run_trace_simulation(
    kind: str,
    mix_name: str = "heavy",
    policies: Optional[List[str]] = None,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = 7,
    idle_timeout_ms: float = SCALED_IDLE_TIMEOUT_MS,
) -> Dict[str, RunResult]:
    """Replay a paper-rate trace under each policy on the vector engine;
    {policy: result}.

    Fifer's LSTM (and any other trainable predictor) is pre-trained on
    an independently seeded trace of the same distribution — the
    paper's "pre-trained with 60% of the arrival trace input".
    """
    trace = make_scaled_trace(kind, duration_s, seed=seed)
    mean_rate = WIKI_AVG_RPS if kind == "wiki" else WITS_AVG_RPS
    return {
        policy: Scenario.make(
            policy, mix=mix_name, trace=trace, trace_kind=kind,
            rate_rps=mean_rate, cluster=simulation_cluster(),
            seed=seed, idle_timeout_ms=idle_timeout_ms, engine="vector",
        ).run()
        for policy in policies or SIMULATION_POLICIES
    }


class TraceCell(NamedTuple):
    """The scalars Figures 13, 14 and 16 read from one policy's replay."""

    slo_violation_rate: float
    avg_containers: float
    median_latency_ms: float
    p99_latency_ms: float
    cold_starts: int
    failed_spawns: int


#: One grid cell per ``(kind, mix)``: scalars only, so a paper-scale
#: Wiki replay's per-job arrays are freed once its figures are read off.
_TRACE_CACHE: Dict[tuple, Dict[str, TraceCell]] = {}


def cached_trace_simulation(kind: str, mix_name: str = "heavy"
                            ) -> Dict[str, TraceCell]:
    """Memoised :func:`run_trace_simulation`, reduced to a
    :class:`TraceCell` per policy — Figures 13, 14 and 16 all analyse
    the same trace replays."""
    key = (kind, mix_name)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = {
            policy: TraceCell(*(getattr(result, name)
                                for name in TraceCell._fields))
            for policy, result in run_trace_simulation(kind, mix_name).items()
        }
    return _TRACE_CACHE[key]
