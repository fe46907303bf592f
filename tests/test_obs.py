"""Unit tests for the observability layer: tracer, registry, exporters.

The histogram's contract — quantiles bounded by their owning bucket,
merge exactly equivalent to observing the concatenated samples, counts
conserved — is property-tested with Hypothesis: these are the invariants
the reconciliation and breakdown machinery leans on.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.collector import RunResult
from repro.obs.export import (
    BREAKDOWN_COMPONENTS,
    latency_breakdown,
    prometheus_snapshot,
    validate_span_dict,
    validate_spans_jsonl,
    write_spans_jsonl,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import Span, Tracer, root_span_id

# ---------------------------------------------------------------------------
# tracer


class TestTracer:
    def test_records_spans(self):
        tracer = Tracer()
        span = tracer.span("request", "job-1", "job-1/request", 0.0, 10.0)
        assert span is not None
        assert span.duration_ms == 10.0
        assert tracer.spans == [span]
        assert tracer.roots() == [span]

    def test_sampling_is_deterministic(self):
        a, b = Tracer(sample_rate=0.5), Tracer(sample_rate=0.5)
        ids = [f"job-{i}" for i in range(200)]
        assert [a.sampled(t) for t in ids] == [b.sampled(t) for t in ids]
        kept = sum(a.sampled(t) for t in ids)
        assert 0 < kept < 200  # neither all nor nothing

    def test_rate_bounds(self):
        assert Tracer(sample_rate=1.0).sampled("job-1")
        assert not Tracer(sample_rate=0.0).sampled("job-1")
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)

    def test_sampled_out_spans_are_counted(self):
        tracer = Tracer(sample_rate=0.0)
        assert tracer.span("request", "job-1", "job-1/request", 0, 1) is None
        assert tracer.spans == []
        assert tracer.dropped == 1

    def test_traces_groups_by_trace_id(self):
        tracer = Tracer()
        tracer.span("request", "job-1", "job-1/request", 0, 5)
        tracer.span("exec", "job-1", "job-1/0/exec", 1, 2,
                    root_span_id("job-1"))
        tracer.span("request", "job-2", "job-2/request", 0, 3)
        grouped = tracer.traces()
        assert set(grouped) == {"job-1", "job-2"}
        assert len(grouped["job-1"]) == 2
        assert len(tracer.spans_named("request")) == 2


# ---------------------------------------------------------------------------
# registry


class TestRegistry:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(2.0)
        assert c.value == 3.0
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_counter_set_value_semantics(self):
        c = Counter()
        c.set_value(5.0)   # legacy `attr = n` with n >= current
        c.set_value(0.0)   # reset-to-zero is allowed
        assert c.value == 0.0
        c.set_value(2.0)
        with pytest.raises(ValueError):
            c.set_value(1.0)

    def test_gauge_moves_both_ways(self):
        g = Gauge()
        g.inc()
        g.dec()
        g.set(7.5)
        assert g.value == 7.5

    def test_get_or_create_shares_instances(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.counter("x", pool="a") is not reg.counter("x", pool="b")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x", pool="a")

    def test_total_sums_across_labels(self):
        reg = MetricsRegistry()
        reg.counter("retries", pool="a").inc(3)
        reg.counter("retries", pool="b").inc(4)
        assert reg.total("retries") == 7.0
        assert reg.value("retries", pool="a") == 3.0
        assert reg.value("never_registered") == 0.0

    def test_merged_histogram(self):
        reg = MetricsRegistry()
        reg.histogram("lat", pool="a").observe(3.0)
        reg.histogram("lat", pool="b").observe(700.0)
        merged = reg.merged_histogram("lat")
        assert merged.count == 2
        assert merged.sum == 703.0
        assert reg.merged_histogram("missing") is None


# ---------------------------------------------------------------------------
# histogram properties (Hypothesis)

_samples = st.lists(
    st.floats(min_value=0.0, max_value=50_000.0,
              allow_nan=False, allow_infinity=False),
    min_size=0, max_size=200,
)


#: Both signs, subnormals to 1e300 (200 of them cannot overflow).
_wide_samples = st.lists(
    st.floats(min_value=-1e300, max_value=1e300,
              allow_nan=False, allow_infinity=False),
    min_size=0, max_size=200,
)


class TestHistogramProperties:
    @settings(deadline=None)
    @given(samples=_samples.filter(len), q=st.floats(0.0, 1.0))
    def test_quantile_bounded_by_owning_bucket(self, samples, q):
        h = Histogram()
        for s in samples:
            h.observe(s)
        estimate = h.quantile(q)
        # Recompute the owning bucket independently; the estimate must
        # land inside its bounds.
        target = q * h.count
        cumulative = 0
        for i, n in enumerate(h.bucket_counts):
            if n == 0:
                continue
            if cumulative + n >= target:
                lower, upper = h.bucket_bounds(i)
                assert lower <= estimate <= upper + 1e-9
                return
            cumulative += n
        _, upper = h.bucket_bounds(len(h.bucket_counts) - 1)
        assert estimate <= upper + 1e-9

    @settings(deadline=None)
    @given(a=_samples, b=_samples)
    def test_merge_equals_concatenated_samples(self, a, b):
        ha, hb, hc = Histogram(), Histogram(), Histogram()
        for s in a:
            ha.observe(s)
        for s in b:
            hb.observe(s)
        for s in a + b:
            hc.observe(s)
        merged = ha.merge(hb)
        assert merged.bucket_counts == hc.bucket_counts
        assert merged.count == hc.count
        assert math.isclose(merged.sum, hc.sum,
                            rel_tol=1e-9, abs_tol=1e-9)
        assert merged.min == hc.min
        assert merged.max == hc.max

    @settings(deadline=None)
    @given(samples=_samples)
    def test_counts_conserved(self, samples):
        h = Histogram(DEFAULT_LATENCY_BUCKETS_MS)
        for s in samples:
            h.observe(s)
        assert sum(h.bucket_counts) == h.count == len(samples)

    @settings(deadline=None)
    @given(before=_wide_samples, batch=_wide_samples)
    def test_observe_many_equals_repeated_observe(self, before, batch):
        one, many = Histogram(), Histogram()
        for s in before:
            one.observe(s)
            many.observe(s)
        for s in batch:
            one.observe(s)
        many.observe_many(np.array(batch))
        assert many.count == one.count == len(before) + len(batch)
        # Exactly equal: the order of addition is exported state.
        assert many.sum == one.sum
        assert many.min == one.min
        assert many.max == one.max
        assert many.bucket_counts == one.bucket_counts

    def test_merge_requires_identical_edges(self):
        with pytest.raises(ValueError):
            Histogram((1.0, 2.0)).merge(Histogram((1.0, 3.0)))

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((5.0, 5.0))
        with pytest.raises(ValueError):
            Histogram((1.0, float("inf")))


# ---------------------------------------------------------------------------
# exporters


def _span(**overrides):
    base = dict(trace_id="job-1", span_id="job-1/request", name="request",
                start_ms=0.0, end_ms=5.0, parent_id=None)
    base.update(overrides)
    return Span(**base)


class TestSpanSchema:
    def test_valid_roundtrip(self, tmp_path):
        spans = [
            _span(),
            _span(span_id="job-1/0/exec", name="exec", start_ms=1.0,
                  end_ms=2.0, parent_id="job-1/request"),
        ]
        path = write_spans_jsonl(spans, tmp_path / "spans.jsonl")
        assert validate_spans_jsonl(path) == 2

    def test_rejects_unknown_name(self):
        record = _span(name="request").to_dict()
        record["name"] = "mystery"
        with pytest.raises(ValueError, match="unknown span name"):
            validate_span_dict(record)

    def test_rejects_backwards_interval(self):
        record = _span(start_ms=5.0, end_ms=1.0).to_dict()
        with pytest.raises(ValueError, match="ends before"):
            validate_span_dict(record)

    def test_rejects_non_request_root(self):
        record = _span(span_id="job-1/0/exec", name="exec",
                       parent_id=None).to_dict()
        with pytest.raises(ValueError, match="root"):
            validate_span_dict(record)

    def test_rejects_missing_field(self):
        record = _span().to_dict()
        del record["trace_id"]
        with pytest.raises(ValueError, match="missing field"):
            validate_span_dict(record)

    def test_rejects_bad_jsonl(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not JSON"):
            validate_spans_jsonl(path)


class TestPrometheusSnapshot:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total").inc(3)
        reg.gauge("in_flight", pool="a").set(2)
        h = reg.histogram("lat", buckets=(10.0, 100.0))
        h.observe(5.0)
        h.observe(50.0)
        h.observe(5000.0)
        text = prometheus_snapshot(reg)
        assert "# TYPE jobs_total counter" in text
        assert "jobs_total 3" in text
        assert 'in_flight{pool="a"} 2' in text
        # Cumulative le buckets: 1 at <=10, 2 at <=100, 3 at +Inf.
        assert 'lat_bucket{le="10"} 1' in text
        assert 'lat_bucket{le="100"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text


def _result(lat, execm, cold, batch):
    n = len(lat)
    return RunResult(
        policy="x", mix="m", trace="t", duration_ms=1_000.0,
        n_jobs=n, n_completed=n, n_incomplete=0,
        latencies_ms=np.asarray(lat, dtype=float), violations=0,
        exec_ms=np.asarray(execm, dtype=float),
        cold_wait_ms=np.asarray(cold, dtype=float),
        batch_wait_ms=np.asarray(batch, dtype=float),
        queue_ms=np.asarray(batch, dtype=float),
        sample_times_ms=np.asarray([]), container_samples={},
        total_spawns=0, spawns_per_pool={}, spawn_times_ms={},
        rpc_per_pool={}, failed_spawns=0,
        energy_joules=0.0, mean_power_w=0.0, mean_active_nodes=0.0,
    )


class TestLatencyBreakdown:
    def test_components_sum_to_e2e(self):
        result = _result(lat=[100.0, 200.0], execm=[40.0, 60.0],
                         cold=[10.0, 30.0], batch=[5.0, 15.0])
        parts = latency_breakdown(result)
        total = sum(parts[c] for c in BREAKDOWN_COMPONENTS)
        assert math.isclose(total, parts["e2e"], rel_tol=1e-12)
        assert parts["e2e"] == 150.0
        assert parts["exec"] == 50.0

    def test_empty_run(self):
        parts = latency_breakdown(_result([], [], [], []))
        assert parts["e2e"] == 0.0
        assert all(parts[c] == 0.0 for c in BREAKDOWN_COMPONENTS)
