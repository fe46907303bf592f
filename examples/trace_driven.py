#!/usr/bin/env python3
"""Trace-driven simulation: Wiki-like vs WITS-like arrival patterns.

Reproduces the structure of the paper's large-scale simulations
(Figures 13/14/16): the diurnal Wikipedia trace rewards Fifer's LSTM
(predictable swings can be pre-provisioned), while the flash-crowd WITS
trace stresses every reactive policy with cold-start storms.

Rates and cluster are the paper's: Wiki at 1500 req/s and WITS at
300 req/s (peak 1200) on 2500 cores, on the vector engine (see
EXPERIMENTS.md for the remaining deviations).  The default 600 s takes
a few minutes; ``--duration 60`` is a quick look.

Run:  python examples/trace_driven.py [--trace wiki|wits|both] [--duration S]
"""

import argparse

from repro.experiments import format_table, normalize, run_trace_simulation


def run_one(kind: str, duration_s: float) -> None:
    print(f"\n=== {kind.upper()} trace, heavy mix "
          f"({duration_s:.0f}s at the paper's rates) ===")
    results = run_trace_simulation(kind, "heavy", duration_s=duration_s)
    containers = normalize(
        {p: r.avg_containers for p, r in results.items()}, "fifer"
    )
    rows = []
    for policy, r in results.items():
        rows.append((
            policy,
            f"{r.slo_violation_rate:.3%}",
            f"{r.avg_containers:.1f}",
            f"{containers[policy]:.1f}x",
            r.cold_starts,
            f"{r.median_latency_ms:.0f}",
            f"{r.p99_latency_ms:.0f}",
        ))
    print(format_table(
        ["policy", "SLO viol", "avg containers", "vs fifer",
         "cold starts", "median(ms)", "P99(ms)"],
        rows,
    ))
    fifer, rscale = results["fifer"], results["rscale"]
    bpred = results["bpred"]
    if fifer.cold_starts:
        print(f"fifer cold starts: {bpred.cold_starts / max(fifer.cold_starts, 1):.1f}x "
              f"fewer than bpred, "
              f"{rscale.cold_starts / max(fifer.cold_starts, 1):.1f}x fewer than rscale")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", choices=["wiki", "wits", "both"],
                        default="both")
    parser.add_argument("--duration", type=float, default=600.0,
                        help="trace length in seconds (default 600)")
    args = parser.parse_args()
    kinds = ["wiki", "wits"] if args.trace == "both" else [args.trace]
    for kind in kinds:
        run_one(kind, args.duration)


if __name__ == "__main__":
    main()
