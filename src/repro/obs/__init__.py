"""Request-level observability: span tracing, metrics, exporters.

The observability layer has three bricks, all dependency-free:

* :mod:`repro.obs.trace` — per-request span tracing with deterministic
  head sampling; the same span schema comes out of the simulator and
  the live serving runtime.
* :mod:`repro.obs.registry` — counters, gauges and fixed-bucket
  mergeable histograms behind one registry, replacing the runtime's
  ad-hoc counter attributes.
* :mod:`repro.obs.export` — span JSONL, Prometheus text exposition and
  the per-stage latency-breakdown table.
"""

from repro.obs.export import (
    BREAKDOWN_COMPONENTS,
    latency_breakdown,
    prometheus_snapshot,
    validate_span_dict,
    validate_spans_jsonl,
    write_metrics_text,
    write_spans_jsonl,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    SPAN_NAMES,
    Span,
    Tracer,
    record_job_spans,
    root_span_id,
)

__all__ = [
    "BREAKDOWN_COMPONENTS",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SPAN_NAMES",
    "Span",
    "Tracer",
    "latency_breakdown",
    "prometheus_snapshot",
    "record_job_spans",
    "root_span_id",
    "validate_span_dict",
    "validate_spans_jsonl",
    "write_metrics_text",
    "write_spans_jsonl",
]
