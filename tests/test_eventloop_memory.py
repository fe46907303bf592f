"""The event-loop engine's memory per simulated job (DESIGN.md §10.1).

A job on the default engine is one ``Job``, a ``JobStage`` per stage
and a ``Task`` per stage visit, and those records live only while the
job is in flight: when a job completes, the collector streams its
totals into typed columns and keeps no ``Job``, so a run holds its
in-flight jobs and its peak grows with run length by a few floats per
job.  The live plane is the one that keeps a request log of completed
``Job`` objects.  Bytes are pinned where they cannot flake:
``tracemalloc`` counts allocated bytes exactly (no wall clock, no RSS),
and the three records must carry no per-instance ``__dict__``.

Deliberately numpy + pytest only (no Hypothesis), so the ``perf-smoke``
CI job can run this file.
"""

import gc
import tracemalloc

import pytest

from repro.core.policies import make_policy_config
from repro.metrics.collector import MetricsCollector
from repro.runtime import system as system_module
from repro.runtime.system import ClusterSpec, ServerlessSystem
from repro.serve import ServingRuntime
from repro.traces import poisson_trace
from repro.traces.factory import make_trace
from repro.workflow.job import Job, JobStage, Task
from repro.workloads import get_mix

#: ~12 k jobs of the heavy mix (three stages each), and the same shape
#: twice as long (~24 k jobs).  Built outside the traced region.
TRACE = make_trace("wiki", 100.0, 120.0, 1)
LONG_TRACE = make_trace("wiki", 100.0, 240.0, 1)

#: Peak traced bytes per job over a whole run (construction, run loop,
#: drain, finalize).  Measured on TRACE under CPython 3.11: 159 B when a
#: job is freed as it settles, 903 B when the collector kept every
#: finished ``Job`` until ``finalize``, 1,351 B with a ``__dict__`` per
#: record and a store document per job.  The bound clears the first by
#: 26 %.
BUDGET_BYTES_PER_JOB = 200.0

#: Peak traced bytes per extra job from TRACE to LONG_TRACE.  Measured
#: under CPython 3.11: 53 B (the five per-job float columns, plus the
#: series that grow with model time), 842 B when the collector kept
#: every finished ``Job``.
GROWTH_BYTES_PER_JOB = 100.0


def _system():
    return ServerlessSystem(
        config=make_policy_config("fifer", proactive_predictor="mwa"),
        mix=get_mix("heavy"),
        cluster_spec=ClusterSpec(n_nodes=52),
        seed=1,
    )


def _traced(trace):
    """``(result, peak)`` of one event-loop run under tracemalloc."""
    system = _system()
    tracemalloc.start()
    try:
        result = system.run(trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def traced_run():
    return _traced(TRACE)


@pytest.fixture(scope="module")
def traced_long_run():
    return _traced(LONG_TRACE)


def test_peak_traced_bytes_per_job_within_budget(traced_run):
    result, peak = traced_run
    assert result.n_jobs >= 10_000
    assert result.n_completed == result.n_jobs
    assert peak / result.n_jobs <= BUDGET_BYTES_PER_JOB


def test_peak_grows_by_a_few_floats_per_extra_job(traced_run,
                                                  traced_long_run):
    (short, short_peak), (long, long_peak) = traced_run, traced_long_run
    assert long.n_completed == long.n_jobs
    extra = long.n_jobs - short.n_jobs
    assert extra >= 10_000
    assert (long_peak - short_peak) / extra <= GROWTH_BYTES_PER_JOB


class _SettleWatch(MetricsCollector):
    """The collector, noting the id of every job it settles and, as
    ``finalize`` is entered, which of those jobs still exist."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.settled = set()
        self.alive_at_finalize = None

    def record_job_completed(self, job):
        super().record_job_completed(job)
        self.settled.add(job.job_id)

    def finalize(self, *args, **kwargs):
        # No gc.collect() first: reference counting alone must free a
        # settled job.
        self.alive_at_finalize = [
            obj.job_id for obj in gc.get_objects()
            if type(obj) is Job and obj.job_id in self.settled]
        return super().finalize(*args, **kwargs)


def test_a_settled_job_is_freed_in_the_sim_and_logged_live(monkeypatch):
    monkeypatch.setattr(system_module, "MetricsCollector", _SettleWatch)
    system = _system()
    result = system.run(make_trace("wiki", 100.0, 10.0, 1))
    collector = system.metrics
    assert isinstance(collector, _SettleWatch)
    assert len(collector.settled) == result.n_completed > 0
    assert collector.alive_at_finalize == []
    assert collector.completed_jobs is None
    # The live plane keeps its request log of completed jobs.
    runtime = ServingRuntime(
        config=make_policy_config("rscale"),
        mix=get_mix("light"),
        seed=13,
    )
    result = runtime.run(poisson_trace(12.0, 4.0, seed=13))
    jobs = runtime.metrics.completed_jobs
    assert len(jobs) == result.n_completed > 0
    assert all(type(job) is Job and job.completed for job in jobs)


def test_job_records_have_no_instance_dict():
    app = get_mix("heavy").applications[0]
    job = Job(app=app, arrival_ms=0.0)
    task = Task(job=job, stage_index=1, enqueue_ms=5.0)
    for record in (job, job.stages[0], task):
        assert not hasattr(record, "__dict__"), type(record).__name__
    assert task.record is job.stages[1]
    # Fields, defaults and equality are the dataclasses' own.
    assert job.stages == [JobStage(function=s.name) for s in app.stages]
    assert job.completion_ms == job.failed_ms == -1.0
    assert job.failure_reason is None and task.attempts == 0
    assert task == Task(job=job, stage_index=1, enqueue_ms=5.0)
