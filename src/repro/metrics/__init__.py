"""Metrics collection and run results."""

from repro.metrics.collector import MetricsCollector, RunResult
from repro.metrics.stats import percentile, summarize_latencies

__all__ = [
    "MetricsCollector",
    "RunResult",
    "percentile",
    "summarize_latencies",
]
