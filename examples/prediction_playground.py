#!/usr/bin/env python3
"""Train and compare all eight load forecasters (the paper's Figure 6).

Every model is implemented from scratch on numpy — including the LSTM
with full backpropagation through time — and trained on the first 60%
of a WITS-like windowed-max arrival series, then evaluated walk-forward
on the rest.

Run:  python examples/prediction_playground.py [--trace wits|wiki]
"""

import argparse

import numpy as np

from repro.experiments import format_table
from repro.metrics.ascii_plot import sparkline
from repro.prediction import (
    default_predictors,
    evaluate_all,
    windowed_max_series,
)
from repro.traces import wiki_trace, wits_trace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", choices=["wits", "wiki"], default="wits")
    parser.add_argument("--duration", type=float, default=2400.0)
    args = parser.parse_args()

    if args.trace == "wits":
        trace = wits_trace(avg_rps=300.0, peak_rps=1200.0,
                           duration_s=args.duration, seed=11)
    else:
        trace = wiki_trace(avg_rps=300.0, duration_s=args.duration, seed=11)
    series = windowed_max_series(trace)
    print(f"{args.trace} windowed-max series ({len(series)} intervals of 10s):")
    print(f"  {sparkline(series)}")
    print(f"  mean {series.mean():.0f} req/s, peak {series.max():.0f} req/s, "
          f"peak-to-median {series.max() / np.median(series):.1f}x\n")

    print("training the four ML models (numpy, from scratch)...")
    reports = evaluate_all(default_predictors(seed=11), series)
    rows = [
        (r.name, f"{r.rmse:.1f}", f"{r.mae:.1f}",
         f"{r.mean_latency_ms:.2f}", f"{r.accuracy:.0%}")
        for r in sorted(reports, key=lambda r: r.rmse)
    ]
    print(format_table(
        ["model", "RMSE", "MAE", "latency(ms)", "acc@20%"],
        rows,
        title="Walk-forward one-step forecasts on the held-out 40%:",
    ))
    best = min(reports, key=lambda r: r.rmse)
    print(f"\nlowest RMSE: {best.name} "
          f"(the paper selects the LSTM for Fifer's proactive scaler)")


if __name__ == "__main__":
    main()
