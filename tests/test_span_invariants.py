"""Span invariants over real runs: the trace tree must tell the truth.

Both the simulator and the live runtime feed the same span assembler, so
both must satisfy the same structural invariants: one root per terminal
request, children nested inside their root's interval, component
durations bounded by end-to-end, and (live) backoff spans that agree
with the retry layer's own counters.
"""

import pytest

from repro.cluster.faults import ContainerFaultModel
from repro.core.policies import make_policy_config
from repro.obs.export import validate_span_dict
from repro.obs.trace import SPAN_NAMES, Tracer
from repro.runtime.system import ClusterSpec, ServerlessSystem
from repro.serve import RetryPolicy, ServeOptions, ServingRuntime
from repro.traces import poisson_trace
from repro.workloads import get_mix

EPS = 1e-6


@pytest.fixture(scope="module")
def sim_run():
    tracer = Tracer()
    system = ServerlessSystem(
        config=make_policy_config("rscale", idle_timeout_ms=60_000.0),
        mix=get_mix("light"),
        cluster_spec=ClusterSpec(n_nodes=4),
        seed=11,
        tracer=tracer,
    )
    result = system.run(poisson_trace(6.0, 12.0, seed=11))
    return tracer, result, None


@pytest.fixture(scope="module")
def vector_run():
    # Same workload as ``sim_run`` but through the flat-array engine:
    # its synthesized span tree must satisfy every structural invariant
    # the event-loop engines do.
    tracer = Tracer()
    system = ServerlessSystem(
        config=make_policy_config("rscale", idle_timeout_ms=60_000.0),
        mix=get_mix("light"),
        cluster_spec=ClusterSpec(n_nodes=4),
        seed=11,
        tracer=tracer,
        engine="vector",
    )
    result = system.run(poisson_trace(6.0, 12.0, seed=11))
    return tracer, result, None


@pytest.fixture(scope="module")
def live_run():
    tracer = Tracer()
    runtime = ServingRuntime(
        config=make_policy_config("rscale", idle_timeout_ms=60_000.0),
        mix=get_mix("light"),
        seed=11,
        options=ServeOptions(
            time_scale=0.005,
            retry=RetryPolicy(max_attempts=3, base_backoff_ms=5.0),
        ),
        fault_model=ContainerFaultModel(crash_probability=0.2),
        tracer=tracer,
    )
    result = runtime.run(poisson_trace(15.0, 4.0, seed=11))
    return tracer, result, runtime


@pytest.fixture(scope="module", params=["sim", "vector", "live"])
def run(request, sim_run, vector_run, live_run):
    return {"sim": sim_run, "vector": vector_run, "live": live_run}[
        request.param]


class TestSpanInvariants:
    def test_schema_valid(self, run):
        tracer, _, _ = run
        assert tracer.spans
        for span in tracer.spans:
            validate_span_dict(span.to_dict())
            assert span.name in SPAN_NAMES

    def test_span_ids_unique(self, run):
        tracer, _, _ = run
        ids = [s.span_id for s in tracer.spans]
        assert len(ids) == len(set(ids))

    def test_one_root_per_terminal_request(self, run):
        tracer, result, _ = run
        n_terminal = result.n_completed + result.n_failed
        roots = tracer.roots()
        assert len(roots) == n_terminal
        assert len({r.trace_id for r in roots}) == n_terminal
        for trace_id, spans in tracer.traces().items():
            n_roots = sum(1 for s in spans if s.parent_id is None)
            # Traces may hold only backoff spans (job never terminal,
            # e.g. cut off by the trace end), but never two roots.
            assert n_roots <= 1, trace_id

    def test_children_nest_within_root(self, run):
        tracer, _, _ = run
        for root in tracer.roots():
            spans = tracer.traces()[root.trace_id]
            for child in spans:
                if child.parent_id is None:
                    continue
                assert child.parent_id == root.span_id
                assert child.start_ms >= root.start_ms - EPS
                assert child.end_ms <= root.end_ms + EPS

    def test_components_bounded_by_e2e(self, run):
        tracer, _, _ = run
        for root in tracer.roots():
            spans = tracer.traces()[root.trace_id]
            queue_wait = sum(
                s.duration_ms for s in spans if s.name == "queue_wait"
            )
            exec_ms = sum(s.duration_ms for s in spans if s.name == "exec")
            assert queue_wait + exec_ms <= root.duration_ms + EPS
            # cold_start + batch_form partition queue_wait per stage, so
            # their totals can never exceed it.
            sub = sum(
                s.duration_ms for s in spans
                if s.name in ("cold_start", "batch_form")
            )
            assert sub <= queue_wait + EPS


class TestLiveRetrySpans:
    def test_chaos_run_actually_retried(self, live_run):
        _, result, runtime = live_run
        assert result.task_retries > 0
        assert runtime.retry_manager.retries_scheduled == result.task_retries

    def test_backoff_spans_match_retry_counters(self, live_run):
        tracer, _, runtime = live_run
        backoffs = tracer.spans_named("backoff")
        assert len(backoffs) == runtime.retry_manager.retries_scheduled

    def test_backoff_attempt_attrs(self, live_run):
        tracer, _, runtime = live_run
        max_attempts = runtime.options.retry.max_attempts
        for span in tracer.spans_named("backoff"):
            attempt = span.attrs["attempt"]
            assert isinstance(attempt, int)
            assert 1 <= attempt < max_attempts
            assert span.attrs["reason"]
            assert span.parent_id == f"{span.trace_id}/request"
