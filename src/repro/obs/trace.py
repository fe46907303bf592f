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
======================  =====================================================

The tracer is clock-agnostic: it never reads time.  Stage spans are
*derived from the job's latency records* at completion — the same
``JobStage`` fields both the simulator's :class:`~repro.cluster
.container.Container` and the live :class:`~repro.serve.pool
.WorkerSlot` fill in — which is what guarantees the same span schema
comes out of either path and makes sim-vs-live parity testable at span
granularity.

Spans are stored as rows, not objects.  A terminal job is one row of
typed ``array`` columns — job id, arrival, end and outcome, plus five
floats per stage (enqueue, start, cold-start wait, exec, end) — copied
when the job is recorded, so a write to the job after it ended (a ghost
completion) cannot change its spans.  A row costs ≈180 B where the
``Span`` objects it stands for cost ≈4 KB.  :attr:`Tracer.spans` is a
read-only view: its length is a running count, and iterating it builds
the ``Span`` objects one row at a time, in recording order.  Spans
recorded directly through :meth:`Tracer.span` stay objects, each tagged
with the number of rows recorded before it.

Sampling is head-based and deterministic: whether a trace is kept is a
pure function of ``(trace_id, sample_rate)``, so every component —
collector, sim, live — independently reaches the same keep/drop
decision without coordination, and a trace is always either complete or
absent, never partial.
"""

from __future__ import annotations

import zlib
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

#: The complete span-name vocabulary (the schema's ``name`` domain).
SPAN_NAMES = (
    "request", "queue_wait", "cold_start", "batch_form", "exec",
)

#: Denominator of the deterministic sampling hash.
_SAMPLE_BUCKETS = 1 << 16

#: Outcome bits of a row (a job may carry both; "completed" wins).
_COMPLETED, _FAILED = 1, 2


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


def root_span_id(trace_id: str) -> str:
    """The root span's id, derived from the trace id alone."""
    return f"{trace_id}/request"


def _stage_shape(enqueue: float, start: float, cold: float, end: float):
    """Which spans one stage of a row emits, from its floats.

    ``None`` when the stage was never dispatched (failed or incomplete
    chains): it emits nothing.  Otherwise it emits its queue wait plus
    the spans whose flags are true: ``(cold_start, batch_form, exec)``.
    The one rule both the span count and the span builder follow.
    """
    if enqueue < 0 or start < 0:
        return None
    return cold > 0, start - enqueue - cold > 0, end >= start


class _SpanView:
    """:attr:`Tracer.spans`: a sized, re-iterable, read-only view."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def __len__(self) -> int:
        return self._tracer._count

    def __iter__(self) -> Iterator[Span]:
        return self._tracer._iter_spans()


class Tracer:
    """Collects finished spans; sampling decided per trace, up front."""

    def __init__(self, sample_rate: float = 1.0) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        self.sample_rate = sample_rate
        #: Spans dropped by the sampling decision (visibility into how
        #: much the sample rate hid): a sampled-out job adds the number
        #: of spans it would have emitted.
        self.dropped = 0
        self._count = 0
        # One row per recorded job.
        self._job_id = array("q")
        self._arrival = array("d")
        self._end = array("d")
        self._outcome = array("b")
        self._app: List = []
        #: Five floats per stage of each row, rows back to back.
        self._stages = array("d")
        #: Failure reason of each failed row, by row number.
        self._reasons: Dict[int, Optional[str]] = {}
        #: ``(rows recorded before it, span)`` per direct span.
        self._direct: List[tuple] = []

    @property
    def spans(self) -> _SpanView:
        """Every recorded span, in recording order, built when read."""
        return _SpanView(self)

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
        self._direct.append((len(self._job_id), span))
        self._count += 1
        return span

    def record_row(
        self,
        job_id: int,
        app,
        arrival_ms: float,
        stages: Sequence[float],
        completion_ms: float = -1.0,
        failed_ms: float = -1.0,
        failure_reason: Optional[str] = None,
    ) -> None:
        """Record one terminal job as a row (or count it as dropped).

        *stages* holds five floats per stage of *app*, in stage order:
        enqueue, start, cold-start wait, exec and end.  The outcome
        follows :class:`~repro.workflow.job.Job`: completed when
        *completion_ms* ≥ 0, failed when *failed_ms* ≥ 0.
        """
        n_spans = 1
        for enqueue, start, cold, end in zip(
                stages[0::5], stages[1::5], stages[2::5], stages[4::5]):
            shape = _stage_shape(enqueue, start, cold, end)
            if shape is not None:
                n_spans += 1 + sum(shape)
        if self.sample_rate < 1.0 and not self.sampled(f"job-{job_id}"):
            self.dropped += n_spans
            return
        outcome = 0
        if completion_ms >= 0:
            outcome = _COMPLETED
            end_ms = completion_ms
        else:
            end_ms = failed_ms
        if failed_ms >= 0:
            outcome |= _FAILED
            self._reasons[len(self._job_id)] = failure_reason
        self._job_id.append(job_id)
        self._arrival.append(arrival_ms)
        self._end.append(end_ms)
        self._outcome.append(outcome)
        self._app.append(app)
        self._stages.extend(stages)
        self._count += n_spans

    # -- queries -----------------------------------------------------------

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def _iter_spans(self) -> Iterator[Span]:
        direct = self._direct
        d = 0
        offset = 0
        for row in range(len(self._job_id)):
            while d < len(direct) and direct[d][0] <= row:
                yield direct[d][1]
                d += 1
            app = self._app[row]
            yield from self._row_spans(row, app, offset)
            offset += 5 * app.n_stages
        for _, span in direct[d:]:
            yield span

    def _row_spans(self, row: int, app, offset: int) -> Iterator[Span]:
        """The spans of one row, as :func:`record_job_spans` defines
        them: the root, then per dispatched stage its queue wait, cold
        start and batch forming (when non-zero) and exec."""
        trace_id = f"job-{self._job_id[row]}"
        root_id = root_span_id(trace_id)
        arrival, end = self._arrival[row], self._end[row]
        outcome = self._outcome[row]
        attrs: Dict[str, object] = {
            "job_id": self._job_id[row],
            "app": app.name,
            "outcome": ("completed" if outcome & _COMPLETED
                        else "failed" if outcome & _FAILED else "in-flight"),
            "slo_ms": app.slo_ms,
            "n_stages": app.n_stages,
        }
        if outcome & _COMPLETED:
            attrs["violated_slo"] = end - arrival > app.slo_ms
        if outcome & _FAILED:
            attrs["failure_reason"] = self._reasons[row]
        yield Span(trace_id, root_id, "request", arrival, end, None, attrs)
        stages = self._stages
        for index, stage in enumerate(app.stages):
            at = offset + 5 * index
            enqueue, start, cold, exec_ms, stage_end = stages[at:at + 5]
            shape = _stage_shape(enqueue, start, cold, stage_end)
            if shape is None:
                continue
            has_cold, has_batch, has_exec = shape
            function = stage.name
            base = f"{trace_id}/{index}"
            yield Span(trace_id, f"{base}/queue_wait", "queue_wait",
                       enqueue, start, root_id,
                       {"function": function, "stage_index": index})
            if has_cold:
                yield Span(trace_id, f"{base}/cold_start", "cold_start",
                           enqueue, enqueue + cold, root_id,
                           {"function": function, "stage_index": index})
            if has_batch:   # a batching wait
                yield Span(trace_id, f"{base}/batch_form", "batch_form",
                           enqueue + cold, start, root_id,
                           {"function": function, "stage_index": index})
            if has_exec:
                yield Span(trace_id, f"{base}/exec", "exec", start,
                           stage_end, root_id,
                           {"exec_ms": exec_ms, "function": function,
                            "stage_index": index})


def record_job_spans(tracer: Tracer, job) -> None:
    """Record a terminal job's spans as one row of its latency records.

    Called once per job by :class:`repro.metrics.collector
    .MetricsCollector` when the job completes or terminally fails —
    the single choke point both the simulator and the live runtime
    already route through, so both emit the identical schema.  The
    vector engine, which has no ``Job``, writes the same row from its
    columns.
    """
    stages: List[float] = []
    for s in job.stages:
        stages += (s.enqueue_ms, s.start_ms, s.cold_start_wait_ms,
                   s.exec_ms, s.end_ms)
    tracer.record_row(
        job.job_id, job.app, job.arrival_ms, stages,
        completion_ms=job.completion_ms, failed_ms=job.failed_ms,
        failure_reason=job.failure_reason)
