"""The vector engine's memory contract (DESIGN.md section 13).

The engine's ceiling is bytes per simulated job, so the storage is
pinned where it cannot flake: ``tracemalloc`` counts allocated bytes
exactly (no wall clock, no RSS), the columns must *be* typed buffers
while the run is in flight, only two of them may be per stage record
unless a tracer is attached, and a finished engine must have let go of
them.
"""

import tracemalloc
from array import array

import numpy as np
import pytest

from repro.core.policies import make_policy_config
from repro.obs.trace import Tracer
from repro.runtime.system import ClusterSpec, ServerlessSystem
from repro.runtime.vector import VectorEngine
from repro.traces.factory import make_trace
from repro.workloads import get_mix

#: ~24 k jobs, ~84 k stage records; low rate x long trace keeps the
#: pools' monitor windows (sized by rate, not by run length) a small
#: share of the bill.  Built once, outside every traced region.
TRACE = make_trace("wiki", 100.0, 240.0, 1)
SHORT_TRACE = make_trace("wiki", 100.0, 30.0, 1)

#: Peak traced bytes per stage record over a whole run (construction,
#: run loop, finalize).  Measured on TRACE under CPython 3.11: 84.2 B
#: with two columns per record and the per-job totals summed as stages
#: start, 124.2 B with five columns per record summed at finalize (and
#: 267.1 B with lists of boxed floats before that) — the bound clears
#: the first by 19 % and sits 19 % under the second.
BUDGET_BYTES_PER_RECORD = 100.0

RECORD_COLUMNS = ("rec_enq", "rec_start")
#: Each job's queue delay, cold wait, batching wait and exec, summed as
#: its stages start.
TOTAL_COLUMNS = ("job_exec", "job_qd", "job_cold", "job_bw")
FLOAT_COLUMNS = RECORD_COLUMNS + TOTAL_COLUMNS + (
    "job_arrival", "job_completion", "_arr_times")
INT_COLUMNS = ("job_app", "job_base", "_arr_app", "_completed_order")
#: Per-record storage only the span emitter reads.
TRACER_COLUMNS = ("rec_exec", "rec_cold")


def _engine(trace, shed_expired=False, tracer=None):
    system = ServerlessSystem(
        config=make_policy_config("fifer", proactive_predictor="mwa"),
        mix=get_mix("heavy"),
        cluster_spec=ClusterSpec(n_nodes=52),
        seed=1,
        shed_expired=shed_expired,
        tracer=tracer,
        engine="vector",
    )
    return VectorEngine(system, trace)


def _sized_like_the_records(engine):
    """Names of the engine's buffers as long as its record space."""
    n_records = len(engine.rec_enq)
    return sorted(name for name, value in vars(engine).items()
                  if isinstance(value, (list, tuple, array, np.ndarray))
                  and len(value) == n_records)


@pytest.fixture(scope="module")
def spent():
    """One traced run, start to ``finish()``: the spent engine, its
    result, the record count and the peak traced bytes."""
    tracemalloc.start()
    try:
        engine = _engine(TRACE)
        n_records = len(engine.rec_enq)
        result = engine.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return engine, result, n_records, peak


def test_peak_traced_bytes_per_record_within_budget(spent):
    _, result, n_records, peak = spent
    assert result.n_jobs >= 20_000 and n_records > 3 * result.n_jobs
    assert result.n_completed == result.n_jobs
    assert peak / n_records <= BUDGET_BYTES_PER_RECORD


@pytest.mark.parametrize("shed_expired", [False, True])
def test_columns_are_typed_buffers_mid_run(shed_expired):
    engine = _engine(SHORT_TRACE, shed_expired)
    engine.step_until(SHORT_TRACE.duration_ms / 2.0)
    assert len(engine.rec_enq) > 0 and len(engine._completed_order) > 0
    for name in FLOAT_COLUMNS:
        assert memoryview(getattr(engine, name)).format == "d", name
    for name in INT_COLUMNS:
        assert memoryview(getattr(engine, name)).format == "q", name
    for name in TOTAL_COLUMNS:
        assert len(getattr(engine, name)) == len(engine.job_app), name
    # No view outlives its assert, so the columns can still resize:
    # the static layout is whole from the start (and indexes it through
    # a third cursor), admission under --shed-expired appends.
    so_far = len(engine.rec_enq)
    engine.step_until(SHORT_TRACE.duration_ms)
    if shed_expired:
        assert engine._arr_job is None
        assert len(engine.rec_enq) > so_far
    else:
        assert memoryview(engine._arr_job).format == "q"
        assert len(engine.rec_enq) == so_far


def test_finished_engine_holds_no_per_record_storage(spent):
    engine, result, n_records, _ = spent
    for name in FLOAT_COLUMNS + INT_COLUMNS + TRACER_COLUMNS + ("_arr_job",):
        assert getattr(engine, name) is None, name
    # Nothing else on the engine is sized by the run either ...
    held = {name: len(value) for name, value in vars(engine).items()
            if isinstance(value, (list, tuple, array, np.ndarray))}
    assert all(n < result.n_jobs for n in held.values()), held
    # ... and the result owns its arrays rather than aliasing a buffer.
    for name in ("latencies_ms", "exec_ms", "cold_wait_ms",
                 "batch_wait_ms", "queue_ms"):
        owned = getattr(result, name)
        assert owned.base is None and owned.size == result.n_completed, name


def test_finished_engine_refuses_to_step_or_finish_again(spent):
    engine = spent[0]
    with pytest.raises(RuntimeError, match="finished"):
        engine.step_until(engine.now + 1.0)
    with pytest.raises(RuntimeError, match="finished"):
        engine.finish()


@pytest.mark.parametrize("shed_expired", [False, True])
def test_untraced_engine_keeps_two_columns_per_record(shed_expired):
    # End, exec and cold wait per record are gone: the completion time
    # is start + exec, and the totals are summed as each stage starts.
    engine = _engine(SHORT_TRACE, shed_expired)
    engine.step_until(SHORT_TRACE.duration_ms / 2.0)
    assert len(engine.rec_enq) > 3 * len(engine.job_app) > 0
    assert not hasattr(engine, "rec_end")
    for name in TRACER_COLUMNS:
        assert getattr(engine, name) is None, name
    assert _sized_like_the_records(engine) == sorted(RECORD_COLUMNS)


@pytest.mark.parametrize("shed_expired", [False, True])
def test_traced_engine_adds_the_span_columns(shed_expired):
    # The spans themselves are pinned by the vector golden trace
    # (tests/test_golden_traces.py) and the engines' span parity.
    engine = _engine(SHORT_TRACE, shed_expired, tracer=Tracer())
    engine.step_until(SHORT_TRACE.duration_ms / 2.0)
    for name in TRACER_COLUMNS:
        assert memoryview(getattr(engine, name)).format == "d", name
    assert _sized_like_the_records(engine) == sorted(
        RECORD_COLUMNS + TRACER_COLUMNS)
