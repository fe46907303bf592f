"""Cluster-scale sweep: do Fifer's benefits survive growth?

The paper validates its simulator against the 80-core prototype and then
"expands to match up to the capacity of a 2500 core cluster (30x our
prototype cluster)".  This study sweeps (arrival rate, cluster size)
together at a fixed offered-load-per-core and reports how Fifer's
container savings and SLO compliance evolve — the reproduction of that
30x scaling claim at bench-friendly sizes.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.metrics.collector import RunResult
from repro.runtime.system import ClusterSpec
from repro.scenario import Scenario
from repro.traces import step_poisson_trace

#: (scale factor, mean rate, worker nodes): 1x is the 80-core prototype.
DEFAULT_SCALES: Tuple[Tuple[float, float, int], ...] = (
    (0.5, 25.0, 3),
    (1.0, 50.0, 5),
    (2.0, 100.0, 10),
    (4.0, 200.0, 20),
)


def run_scaling_study(
    policies: Sequence[str] = ("bline", "fifer"),
    scales: Sequence[Tuple[float, float, int]] = DEFAULT_SCALES,
    mix_name: str = "heavy",
    duration_s: float = 240.0,
    seed: int = 5,
) -> Dict[float, Dict[str, RunResult]]:
    """Run each policy at each scale; {scale: {policy: result}}."""
    out: Dict[float, Dict[str, RunResult]] = {}
    for scale, rate, nodes in scales:
        trace = step_poisson_trace(rate, duration_s, variation=0.4,
                                   seed=seed + int(scale * 10))
        out[scale] = {
            policy: Scenario.make(
                policy, mix=mix_name, trace=trace, rate_rps=rate,
                cluster=ClusterSpec(n_nodes=nodes, cores_per_node=16.0),
                seed=seed,
            ).run()
            for policy in policies
        }
    return out


def container_savings(results: Dict[str, RunResult],
                      base: str = "bline", target: str = "fifer") -> float:
    """Fraction of the baseline's containers the target avoids."""
    base_containers = results[base].avg_containers
    if base_containers <= 0:
        return 0.0
    return 1.0 - results[target].avg_containers / base_containers
