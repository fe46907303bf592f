"""The tracer's memory contract (DESIGN.md, ``repro.obs``).

A traced job is one row of typed columns, not a dozen ``Span`` objects,
and a span export streams line by line instead of joining the file into
one string.  Both are pinned with ``tracemalloc``, which counts
allocated bytes exactly (no wall clock, no RSS).  The rows are copied
when a job is recorded, and the lazy ``Tracer.spans`` view replays
direct and row spans in recording order.
"""

import tracemalloc

import pytest

from repro.core.policies import make_policy_config
from repro.obs.export import validate_spans_jsonl, write_spans_jsonl
from repro.obs.trace import Tracer, record_job_spans
from repro.runtime.system import ClusterSpec, ServerlessSystem
from repro.traces.factory import make_trace
from repro.workflow.job import Job
from repro.workloads import get_mix

#: ~2.5 k jobs of the heavy mix (three stages each), ~25 k spans.  Built
#: once, outside every traced region.
TRACE = make_trace("wiki", 100.0, 25.0, 1)

#: Bytes the tracer still holds per recorded job after the run.
#: Measured on TRACE under CPython 3.11: 182 B (event loop) and 179 B
#: (vector) as rows; 4,065 B and 4,069 B as one ``Span`` object (with
#: its attrs dict and id strings) per span.
BUDGET_BYTES_PER_JOB = 400.0

#: Peak traced bytes while 20 k spans are exported: ≈26 KB streamed,
#: ≈11.9 MB when the lines were joined into one string first.
EXPORT_SPANS = 20_000
BUDGET_EXPORT_PEAK_BYTES = 2 * 1024 * 1024


def _system(engine, tracer):
    return ServerlessSystem(
        config=make_policy_config("fifer", proactive_predictor="mwa"),
        mix=get_mix("heavy"),
        cluster_spec=ClusterSpec(n_nodes=52),
        seed=1,
        tracer=tracer,
        engine=engine,
    )


def _tracer_bytes(snapshot):
    """Bytes still allocated by ``repro/obs/trace.py``."""
    return sum(stat.size for stat in snapshot.statistics("filename")
               if stat.traceback[0].filename.replace("\\", "/").endswith(
                   "repro/obs/trace.py"))


@pytest.fixture(scope="module", params=[None, "vector"],
                ids=["eventloop", "vector"])
def traced(request):
    """One traced run: the tracer, its result and the bytes the tracer
    holds afterwards."""
    tracer = Tracer()
    system = _system(request.param, tracer)
    tracemalloc.start()
    try:
        result = system.run(TRACE)
        held = _tracer_bytes(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    return tracer, result, held


def test_tracer_holds_a_row_per_job(traced):
    tracer, result, held = traced
    jobs = result.n_completed + result.n_failed
    assert jobs > 1_500
    assert len(tracer.roots()) == jobs
    per_job = held / jobs
    assert per_job <= BUDGET_BYTES_PER_JOB, (
        f"{per_job:.0f} B per traced job (budget {BUDGET_BYTES_PER_JOB:.0f})")


def test_export_streams(traced, tmp_path):
    tracer, _, _ = traced
    assert len(tracer.spans) >= EXPORT_SPANS
    spans = [span for span, _ in zip(tracer.spans, range(EXPORT_SPANS))]
    path = tmp_path / "spans.jsonl"
    tracemalloc.start()
    try:
        write_spans_jsonl(iter(spans), path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert validate_spans_jsonl(path) == EXPORT_SPANS
    assert peak <= BUDGET_EXPORT_PEAK_BYTES, (
        f"export peaked at {peak / 1e6:.1f} MB for {EXPORT_SPANS} spans")


def _job(app, arrival_ms=100.0):
    """A two-stage-or-more job that completed: every stage dispatched,
    the first one behind a cold start."""
    job = Job(app=app, arrival_ms=arrival_ms)
    at = arrival_ms
    for index, stage in enumerate(job.stages):
        stage.enqueue_ms = at + 1.0
        stage.cold_start_wait_ms = 4.0 if index == 0 else 0.0
        stage.start_ms = at + 7.0
        stage.exec_ms = 10.0
        stage.end_ms = at = stage.start_ms + stage.exec_ms
    job.completion_ms = at + 1.0
    return job


def test_recorded_rows_are_copies():
    """A write to a job after it ended (a ghost completion) does not
    reach the spans already recorded for it."""
    tracer = Tracer()
    job = _job(get_mix("heavy").applications[0])
    record_job_spans(tracer, job)
    before = [span.to_dict() for span in tracer.spans]
    names = [record["name"] for record in before]
    assert names.count("cold_start") == 1 and "batch_form" in names
    for stage in job.stages:
        stage.start_ms += 50.0
        stage.end_ms += 50.0
        stage.exec_ms = 99.0
        stage.cold_start_wait_ms = 0.0
    job.completion_ms += 500.0
    job.failed_ms, job.failure_reason = 700.0, "ghost"
    assert [span.to_dict() for span in tracer.spans] == before


def test_direct_and_row_spans_keep_recording_order():
    tracer = Tracer()
    app = get_mix("heavy").applications[0]
    first, second = _job(app), _job(app, arrival_ms=500.0)
    order = []

    def direct(label):
        tracer.span("backoff", label, f"{label}/0/backoff/1", 0.0, 1.0,
                    f"{label}/request")
        order.append(f"{label}/0/backoff/1")

    def row(job):
        record_job_spans(tracer, job)
        order.append(f"job-{job.job_id}/request")

    direct("job-a")
    row(first)
    direct("job-b")
    direct("job-c")
    row(second)
    direct("job-d")
    spans = list(tracer.spans)
    assert len(tracer.spans) == len(spans) == 4 + 2 * (2 + 3 * app.n_stages)
    heads = [s.span_id for s in spans
             if s.name in ("backoff", "request")]
    assert heads == order
    # Each row's spans follow its root, before the next recorded span.
    at = [s.span_id for s in spans].index(f"job-{first.job_id}/request")
    assert all(s.trace_id == f"job-{first.job_id}"
               for s in spans[at:at + 2 + 3 * app.n_stages])
