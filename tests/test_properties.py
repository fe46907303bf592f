"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scheduling import FIFOQueue, LSFQueue
from repro.core.sizing import containers_for_rate
from repro.core.slack import (
    SlackDivision,
    batch_size_for,
    build_stage_plan,
    distribute_slack,
)
from repro.metrics.stats import percentile, summarize_latencies
from repro.prediction.classical import EWMAPredictor, MovingWindowAveragePredictor
from repro.prediction.nn import SeriesScaler, clip_gradients, sliding_windows
from repro.sim.engine import Simulator
from repro.traces.base import ArrivalTrace
from repro.workflow.job import Job, Task
from repro.workloads import APPLICATIONS, get_application

app_names = st.sampled_from(sorted(APPLICATIONS))
finite_floats = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestSimulatorProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e5,
                              allow_nan=False), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
                    min_size=1, max_size=40),
           st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_run_until_never_executes_beyond_horizon(self, delays, horizon):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda: fired.append(sim.now))
        sim.run(until=horizon)
        assert all(t <= horizon for t in fired)


class TestSlackProperties:
    @given(app_names, st.sampled_from(list(SlackDivision)))
    @settings(max_examples=30, deadline=None)
    def test_distribution_conserves_total_slack(self, name, division):
        app = get_application(name)
        slacks = distribute_slack(app, division)
        assert sum(slacks) == pytest.approx(app.slack_ms)
        assert all(s >= 0 for s in slacks)

    @given(st.floats(min_value=-1e6, max_value=1e5, allow_nan=False),
           st.floats(min_value=0.01, max_value=1e4, allow_nan=False),
           st.integers(min_value=1, max_value=256))
    @settings(max_examples=100, deadline=None)
    def test_batch_size_bounds(self, slack, exec_ms, max_batch):
        # Holds for *any* residual slack, including zero and negative
        # (an already-violated SLO): the result is always a usable batch
        # size in [1, max_batch], never 0 and never an exception.
        b = batch_size_for(slack, exec_ms, max_batch)
        assert isinstance(b, int)
        assert 1 <= b <= max_batch
        # A full local queue drains within the slack (unless clamped to 1).
        if b > 1:
            assert b * exec_ms <= slack

    @given(app_names, st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_stage_plan_response_is_slack_plus_exec(self, name, batching):
        app = get_application(name)
        plan = build_stage_plan(app, batching=batching)
        for slack, resp, svc in zip(
            plan.stage_slack_ms, plan.stage_response_ms, app.stages
        ):
            assert resp == pytest.approx(slack + svc.mean_exec_ms)


class TestSchedulingProperties:
    @given(st.lists(st.tuples(app_names,
                              st.floats(min_value=0, max_value=1e5,
                                        allow_nan=False)),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_lsf_pops_in_slack_key_order(self, jobs):
        q = LSFQueue()
        tasks = []
        for name, arrival in jobs:
            job = Job(app=get_application(name), arrival_ms=arrival)
            task = Task(job=job, stage_index=0, enqueue_ms=arrival)
            tasks.append(task)
            q.push(task)
        keys = []
        while q:
            keys.append(q.pop().slack_key)
        assert keys == sorted(keys)
        assert len(keys) == len(tasks)

    @given(st.lists(st.integers(), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_fifo_preserves_insertion_order(self, markers):
        q = FIFOQueue()
        sentinels = []
        for m in markers:
            job = Job(app=get_application("ipa"), arrival_ms=0.0)
            task = Task(job=job, stage_index=0, enqueue_ms=float(m % 1000))
            sentinels.append(task)
            q.push(task)
        assert [q.pop() for _ in markers] == sentinels


class TestSizingProperties:
    @given(st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
           st.floats(min_value=0.01, max_value=1e4, allow_nan=False),
           st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_capacity_covers_offered_load(self, rate, exec_ms, util):
        n = containers_for_rate(rate, exec_ms, util)
        offered = rate * exec_ms / 1000.0
        if rate > 0:
            assert n >= offered  # capacity at least the offered erlangs
            assert n * util >= offered - 1e-9 or n >= offered

    @given(st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
           st.floats(min_value=0.01, max_value=1e4, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_lower_utilization_never_fewer_containers(self, rate, exec_ms):
        tight = containers_for_rate(rate, exec_ms, 0.9)
        loose = containers_for_rate(rate, exec_ms, 0.5)
        assert loose >= tight


class TestTraceProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_rate_series_conserves_arrival_count(self, times):
        trace = ArrivalTrace(np.array(times))
        span = trace.duration_ms + 1.0
        series = trace.rate_series(1000.0, duration_ms=span)
        counted = np.sum(series) * 1.0  # each bucket is count / 1 s
        assert counted == pytest.approx(len(trace))


class TestPredictionProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_mwa_within_history_range(self, history):
        pred = MovingWindowAveragePredictor(window=10).predict(history)
        assert min(history[-10:]) - 1e-9 <= pred <= max(history[-10:]) + 1e-9

    @given(st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
                    min_size=1, max_size=50),
           st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_ewma_within_history_range(self, history, alpha):
        pred = EWMAPredictor(alpha=alpha).predict(history)
        assert min(history) - 1e-9 <= pred <= max(history) + 1e-9

    @given(st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
                    min_size=2, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_scaler_roundtrip_identity(self, series):
        arr = np.array(series)
        scaler = SeriesScaler().fit(arr)
        recovered = np.array([scaler.inverse(v) for v in scaler.transform(arr)])
        assert np.allclose(recovered, arr, atol=1e-6)

    @given(st.integers(min_value=1, max_value=10),
           st.integers(min_value=2, max_value=60))
    @settings(max_examples=50, deadline=None)
    def test_sliding_windows_alignment(self, lookback, length):
        series = np.arange(float(length))
        x, y = sliding_windows(series, lookback)
        for i in range(len(y)):
            assert y[i] == series[i + lookback]
            assert x[i, -1] == series[i + lookback - 1]

    @given(st.dictionaries(st.text(min_size=1, max_size=3),
                           st.lists(st.floats(min_value=-100, max_value=100,
                                              allow_nan=False),
                                    min_size=1, max_size=5).map(np.array),
                           min_size=1, max_size=4),
           st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_clip_gradients_norm_bound(self, grads, max_norm):
        clipped = clip_gradients(grads, max_norm)
        total = np.sqrt(sum(float(np.sum(g**2)) for g in clipped.values()))
        assert total <= max_norm + 1e-6 or total <= np.sqrt(
            sum(float(np.sum(g**2)) for g in grads.values())
        )


class TestStatsProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_percentiles_monotone(self, values):
        p50 = percentile(values, 50)
        p95 = percentile(values, 95)
        p99 = percentile(values, 99)
        assert p50 <= p95 <= p99
        assert min(values) <= p50
        assert p99 <= max(values)

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_summary_internally_consistent(self, values):
        s = summarize_latencies(values)
        assert s["p50"] <= s["p95"] <= s["p99"] <= s["max"]
        assert min(values) - 1e-9 <= s["mean"] <= max(values) + 1e-9
