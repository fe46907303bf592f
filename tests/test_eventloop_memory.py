"""The event-loop engine's memory per simulated job (DESIGN.md §10.1).

A job on the default engine is one ``Job``, a ``JobStage`` per stage
and a ``Task`` per stage visit, and the collector keeps every finished
``Job`` until ``finalize``.  Its bytes are pinned where they cannot
flake: ``tracemalloc`` counts allocated bytes exactly (no wall clock, no
RSS), and the three records must carry no per-instance ``__dict__``.

Deliberately numpy + pytest only (no Hypothesis), so the ``perf-smoke``
CI job can run this file.
"""

import tracemalloc

import pytest

from repro.core.policies import make_policy_config
from repro.runtime.system import ClusterSpec, ServerlessSystem
from repro.traces.factory import make_trace
from repro.workflow.job import Job, JobStage, Task
from repro.workloads import get_mix

#: ~12 k jobs of the heavy mix (three stages each).  Built outside the
#: traced region.
TRACE = make_trace("wiki", 100.0, 120.0, 1)

#: Peak traced bytes per job over a whole run (construction, run loop,
#: drain, finalize).  Measured on TRACE under CPython 3.11: 903 B with
#: slotted records and no per-job StateStore rows, 1,351 B with a
#: ``__dict__`` per record and a store document per job.  The bound
#: clears the first by 22 % and sits 19 % under the second.
BUDGET_BYTES_PER_JOB = 1100.0


@pytest.fixture(scope="module")
def traced_run():
    """``(result, peak)`` of one event-loop run under tracemalloc."""
    system = ServerlessSystem(
        config=make_policy_config("fifer", proactive_predictor="mwa"),
        mix=get_mix("heavy"),
        cluster_spec=ClusterSpec(n_nodes=52),
        seed=1,
    )
    tracemalloc.start()
    try:
        result = system.run(TRACE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_peak_traced_bytes_per_job_within_budget(traced_run):
    result, peak = traced_run
    assert result.n_jobs >= 10_000
    assert result.n_completed == result.n_jobs
    assert peak / result.n_jobs <= BUDGET_BYTES_PER_JOB


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
