"""Figure 13 — trace-driven simulation: SLO violations and containers.

Paper shape: on the diurnal Wiki trace the reactive RMs (Bline, BPred,
RScale) spawn several times more containers than Fifer (up to 3.5x) yet
still violate more SLOs, because they cannot anticipate the load swings;
on the spikier-but-sparser WITS trace violations drop for everyone and
Fifer spawns up to 7.7x/2.7x fewer containers than BPred/RScale.
"""

from conftest import once

from repro.experiments import format_table, normalize
from repro.experiments.simulation import cached_trace_simulation


def _both(mixes=("heavy", "medium", "light")):
    return {
        kind: {mix: cached_trace_simulation(kind, mix) for mix in mixes}
        for kind in ("wiki", "wits")
    }


def test_fig13_slo_and_containers(benchmark, emit):
    grid = once(benchmark, _both)
    rows = []
    for kind, mixes in grid.items():
        for mix, results in mixes.items():
            norm = normalize(
                {p: r.avg_containers for p, r in results.items()}, "bline"
            )
            for policy, result in results.items():
                rows.append(
                    (kind, mix, policy, result.slo_violation_rate,
                     result.avg_containers, norm[policy])
                )
    table = format_table(
        ["trace", "mix", "policy", "SLO viol rate", "avg containers",
         "containers/Bline"],
        rows,
        title="Figure 13: trace-driven SLO violations and container counts "
              "(paper rates, 2500-core cluster)",
    )
    emit("fig13_traces", table)

    for kind, mixes in grid.items():
        for mix, results in mixes.items():
            # Fifer always runs on a fraction of the baseline's containers.
            assert results["fifer"].avg_containers < results["bline"].avg_containers
            # ... without losing SLO compliance to the static strawman.
            assert results["fifer"].slo_violation_rate <= (
                results["sbatch"].slo_violation_rate + 0.02
            )
    # Fifer ensures SLOs to a high degree on both traces (paper: ~98%).
    for kind in ("wiki", "wits"):
        assert grid[kind]["heavy"]["fifer"].slo_violation_rate < 0.10
