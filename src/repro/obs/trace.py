"""Zero-dependency span tracing for sim and live runs.

Fifer's claims are latency-decomposition claims: slack is divided from
per-stage execution time, RScale triggers on queuing delay, cold starts
are hidden or not.  The span layer makes that decomposition queryable
per request, OpenTelemetry-style, without any external dependency.

One *trace* is one job (a function-chain invocation); its spans are:

======================  =====================================================
span name               interval
======================  =====================================================
``request`` (root)      arrival → completion (or terminal failure)
``queue_wait``          stage enqueue → execution start (per stage)
``cold_start``          the leading part of ``queue_wait`` spent waiting on
                        the executing container's cold start
``batch_form``          the trailing part of ``queue_wait`` spent queued
                        behind a batch on a warm container
``exec``                execution start → end (per stage)
``backoff``             retry backoff window after a failed attempt
======================  =====================================================

The tracer is clock-agnostic: it never reads time.  Stage spans are
*derived from the job's latency records* at completion — the same
``JobStage`` fields both the simulator's :class:`~repro.cluster
.container.Container` and the live :class:`~repro.serve.pool
.WorkerSlot` fill in — which is what guarantees the same span schema
comes out of either path and makes sim-vs-live parity testable at span
granularity.  Only events invisible to the final record (retry
backoffs) are recorded live, by :class:`repro.serve.retry.RetryManager`.

Sampling is head-based and deterministic: whether a trace is kept is a
pure function of ``(trace_id, sample_rate)``, so every component —
collector, retry layer, sim, live — independently reaches the same
keep/drop decision without coordination, and a trace is always either
complete or absent, never partial.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: The complete span-name vocabulary (the schema's ``name`` domain).
SPAN_NAMES = (
    "request", "queue_wait", "cold_start", "batch_form", "exec", "backoff",
)

#: Denominator of the deterministic sampling hash.
_SAMPLE_BUCKETS = 1 << 16


@dataclass
class Span:
    """One timed interval of one request's life."""

    trace_id: str
    span_id: str
    name: str
    start_ms: float
    end_ms: float
    parent_id: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-ready form (the JSONL export schema)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "duration_ms": self.duration_ms,
            "attrs": self.attrs,
        }


def trace_id_for_job(job) -> str:
    """The deterministic trace id of one job."""
    return f"job-{job.job_id}"


def root_span_id(trace_id: str) -> str:
    """The root span's id, derivable *before* the root span exists.

    Backoff spans are recorded mid-run, long before the request's root
    span is assembled at completion; deriving the parent id from the
    trace id alone lets them link up without any shared mutable state.
    """
    return f"{trace_id}/request"


class Tracer:
    """Collects finished spans; sampling decided per trace, up front."""

    def __init__(self, sample_rate: float = 1.0) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        self.sample_rate = sample_rate
        self.spans: List[Span] = []
        #: Spans dropped by the sampling decision (visibility into how
        #: much the sample rate hid).
        self.dropped = 0

    def sampled(self, trace_id: str) -> bool:
        """Deterministic head-sampling decision for *trace_id*."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        bucket = zlib.crc32(trace_id.encode("utf-8")) % _SAMPLE_BUCKETS
        return bucket < self.sample_rate * _SAMPLE_BUCKETS

    def span(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        start_ms: float,
        end_ms: float,
        parent_id: Optional[str] = None,
        **attrs,
    ) -> Optional[Span]:
        """Create and record one finished span (None if sampled out)."""
        if not self.sampled(trace_id):
            self.dropped += 1
            return None
        span = Span(
            trace_id=trace_id,
            span_id=span_id,
            name=name,
            start_ms=float(start_ms),
            end_ms=float(end_ms),
            parent_id=parent_id,
            attrs=attrs,
        )
        self.spans.append(span)
        return span

    # -- queries -----------------------------------------------------------

    def traces(self) -> Dict[str, List[Span]]:
        """Spans grouped by trace id (insertion order preserved)."""
        grouped: Dict[str, List[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]


def record_job_spans(tracer: Tracer, job) -> None:
    """Assemble a terminal job's spans from its latency records.

    Called once per job by :class:`repro.metrics.collector
    .MetricsCollector` when the job completes or terminally fails —
    the single choke point both the simulator and the live runtime
    already route through, so both emit the identical schema.
    """
    trace_id = trace_id_for_job(job)
    if not tracer.sampled(trace_id):
        tracer.dropped += 1
        return
    end_ms = job.completion_ms if job.completed else job.failed_ms
    root_id = root_span_id(trace_id)
    root_attrs: Dict[str, object] = {
        "job_id": job.job_id,
        "app": job.app.name,
        "outcome": job.outcome,
        "slo_ms": job.app.slo_ms,
        "n_stages": job.app.n_stages,
    }
    if job.completed:
        root_attrs["violated_slo"] = job.violated_slo
    if job.failed:
        root_attrs["failure_reason"] = job.failure_reason
    tracer.span(
        "request", trace_id, root_id, job.arrival_ms, end_ms, None,
        **root_attrs,
    )
    for index, record in enumerate(job.stages):
        if record.enqueue_ms < 0 or record.start_ms < 0:
            continue  # stage never dispatched (failed/incomplete chains)
        stage_attrs = {"function": record.function, "stage_index": index}
        base = f"{trace_id}/{index}"
        tracer.span(
            "queue_wait", trace_id, f"{base}/queue_wait",
            record.enqueue_ms, record.start_ms, root_id, **stage_attrs,
        )
        if record.cold_start_wait_ms > 0:
            tracer.span(
                "cold_start", trace_id, f"{base}/cold_start",
                record.enqueue_ms,
                record.enqueue_ms + record.cold_start_wait_ms,
                root_id, **stage_attrs,
            )
        if record.batching_wait_ms > 0:
            tracer.span(
                "batch_form", trace_id, f"{base}/batch_form",
                record.enqueue_ms + record.cold_start_wait_ms,
                record.start_ms, root_id, **stage_attrs,
            )
        if record.end_ms >= record.start_ms:
            tracer.span(
                "exec", trace_id, f"{base}/exec",
                record.start_ms, record.end_ms, root_id,
                exec_ms=record.exec_ms, **stage_attrs,
            )
