"""The vector engine's memory contract (DESIGN.md section 13).

The engine's ceiling is bytes per simulated job, so the storage is
pinned where it cannot flake: ``tracemalloc`` counts allocated bytes
exactly (no wall clock, no RSS), the columns must *be* typed buffers
while the run is in flight, and a finished engine must have let go of
them.
"""

import tracemalloc
from array import array

import numpy as np
import pytest

from repro.core.policies import make_policy_config
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
#: run loop, finalize).  Measured on TRACE under CPython 3.11: 123.0 B
#: with the typed columns, 267.1 B with the lists of boxed floats they
#: replaced — the bound clears the first by 42 % and sits 34 % under
#: the second.
BUDGET_BYTES_PER_RECORD = 175.0

FLOAT_COLUMNS = ("rec_enq", "rec_start", "rec_end", "rec_exec", "rec_cold",
                 "job_arrival", "job_completion", "_arr_times")
INT_COLUMNS = ("job_app", "job_base", "_arr_app", "_completed_order")


def _engine(trace, shed_expired=False):
    system = ServerlessSystem(
        config=make_policy_config("fifer", proactive_predictor="mwa"),
        mix=get_mix("heavy"),
        cluster_spec=ClusterSpec(n_nodes=52),
        seed=1,
        shed_expired=shed_expired,
        engine="vector",
    )
    return VectorEngine(system, trace)


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
    for name in FLOAT_COLUMNS + INT_COLUMNS + ("_arr_job",):
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
