"""Tests for reactive/proactive scalers and the online sampler."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.coldstart import ColdStartModel
from repro.core.scaling import ProactiveScaler, ReactiveScaler, static_pool_sizes
from repro.core.scheduling import SchedulingPolicy
from repro.prediction.classical import EWMAPredictor
from repro.prediction.windowed import WindowedMaxSampler
from repro.sim.engine import Simulator
from repro.workflow.job import Job, Task
from repro.workflow.pool import FunctionPool
from repro.workloads import get_application, get_microservice


def _pool(sim, batch_size=4, slack=300.0, service="ASR", n_nodes=4):
    cluster = Cluster(n_nodes=n_nodes)
    return FunctionPool(
        sim=sim,
        service=get_microservice(service),
        cluster=cluster,
        batch_size=batch_size,
        stage_slack_ms=slack,
        stage_response_ms=slack + get_microservice(service).mean_exec_ms,
        scheduling=SchedulingPolicy.LSF,
        cold_start=ColdStartModel(jitter_sigma=0.0),
        rng=np.random.default_rng(0),
        on_task_finished=lambda t: None,
    )


def _enqueue_n(pool, n, enqueue_ms=0.0):
    for _ in range(n):
        job = Job(app=get_application("ipa"), arrival_ms=enqueue_ms)
        task = Task(job=job, stage_index=0, enqueue_ms=enqueue_ms)
        pool.enqueue(task)


class TestWindowedMaxSampler:
    def test_series_counts_rates(self):
        s = WindowedMaxSampler(interval_ms=10_000, window_ms=5_000, lookback_ms=20_000)
        # 10 arrivals in the first 5s window of interval 0.
        for i in range(10):
            s.record(i * 100.0)
        series = s.series(20_000.0)
        assert len(series) == 2
        assert series[0] == pytest.approx(2.0)  # 10 arrivals / 5 s
        assert series[1] == 0.0

    def test_out_of_order_rejected(self):
        s = WindowedMaxSampler()
        s.record(100.0)
        with pytest.raises(ValueError):
            s.record(50.0)

    def test_pruning_keeps_lookback(self):
        s = WindowedMaxSampler(lookback_ms=20_000)
        for t in np.arange(0, 100_000, 100.0):
            s.record(t)
        assert len(s._arrivals) <= (20_000 + 10_000) / 100 + 2

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            WindowedMaxSampler(interval_ms=1000.0, window_ms=5000.0)
        with pytest.raises(ValueError):
            WindowedMaxSampler(lookback_ms=500.0)


class TestReactiveScaler:
    def test_no_scale_when_delay_below_slack(self):
        sim = Simulator()
        pool = _pool(sim)
        scaler = ReactiveScaler({"ASR": pool})
        assert scaler.tick(sim.now) == 0
        assert pool.total_spawns == 0

    def test_bootstrap_from_empty_pool(self):
        sim = Simulator()
        pool = _pool(sim, slack=300.0)
        _enqueue_n(pool, 20)
        sim.run(until=10_000.0)  # queue ages past the slack
        scaler = ReactiveScaler({"ASR": pool})
        spawned = scaler.tick(sim.now)
        assert spawned > 0
        assert pool.total_spawns == spawned
        assert scaler.events and scaler.events[0].kind == "reactive"

    def test_cold_start_gate_blocks_small_backlogs(self):
        sim = Simulator()
        pool = _pool(sim, batch_size=4)
        pool.prewarm(4)  # capacity 16
        sim.run(until=1.0)
        _enqueue_n(pool, 17, enqueue_ms=1.0)
        # Occupied 16, 1 queued; delay factor = 1 * Sr / 16 << cold start.
        assert ReactiveScaler({"ASR": pool}).estimate_containers(pool) == 0

    def test_estimate_bounded_by_paper_formula_and_need(self):
        sim = Simulator()
        pool = _pool(sim, batch_size=4)
        _enqueue_n(pool, 40)
        est = ReactiveScaler({"ASR": pool}).estimate_containers(pool)
        paper_estimate = 10  # ceil((40 - 0) / 4)
        assert 1 <= est <= paper_estimate

    def test_need_cap_prevents_backlog_proportional_storm(self):
        sim = Simulator()
        pool = _pool(sim, batch_size=1, n_nodes=8)
        pool.prewarm(4)
        sim.run(until=1.0)
        _enqueue_n(pool, 200, enqueue_ms=1.0)
        est = ReactiveScaler({"ASR": pool}).estimate_containers(pool)
        # The paper's raw formula would ask for 196 containers; the
        # need cap sizes for draining the backlog within the slack
        # (~ backlog * exec / slack) plus the arrival-rate term instead.
        assert 0 < est < 60
        import math
        drain_need = math.ceil(196 * 46.1 / 300.0)
        assert est <= drain_need + 5

    def test_empty_queue_no_estimate(self):
        sim = Simulator()
        pool = _pool(sim)
        assert ReactiveScaler({"ASR": pool}).estimate_containers(pool) == 0


class TestProactiveScaler:
    def _scaler(self, sim, pool, predictor=None, util=0.8):
        sampler = WindowedMaxSampler()
        return ProactiveScaler(
            pools={"ASR": pool},
            predictor=predictor or EWMAPredictor(),
            sampler=sampler,
            stage_shares={"ASR": 1.0},
            utilization_target=util,
        ), sampler

    def test_spawns_for_forecast_load(self):
        sim = Simulator()
        pool = _pool(sim)
        scaler, sampler = self._scaler(sim, pool)
        # Feed a steady 100 req/s of arrivals into the sampler.
        for t in np.arange(0.0, 100_000.0, 10.0):
            sampler.record(t)
        sim.run(until=100_000.0)
        spawned = scaler.tick(sim.now)
        # 100 rps x 46.1 ms / 0.8 -> ~6 containers.
        assert spawned >= 5
        assert scaler.forecasts[-1] > 50.0
        assert all(e.kind == "proactive" for e in scaler.events)

    def test_no_spawn_when_capacity_sufficient(self):
        sim = Simulator()
        pool = _pool(sim)
        pool.prewarm(10)
        scaler, sampler = self._scaler(sim, pool)
        for t in np.arange(0.0, 10_000.0, 100.0):
            sampler.record(t)
        sim.run(until=10_000.0)
        assert scaler.tick(sim.now) == 0

    def test_zero_history_zero_forecast(self):
        sim = Simulator()
        pool = _pool(sim)
        scaler, _ = self._scaler(sim, pool)
        assert scaler.tick(0.0) == 0

    def test_missing_share_rejected(self):
        sim = Simulator()
        pool = _pool(sim)
        with pytest.raises(ValueError):
            ProactiveScaler(
                pools={"ASR": pool},
                predictor=EWMAPredictor(),
                sampler=WindowedMaxSampler(),
                stage_shares={},
            )

    def test_invalid_horizon(self):
        sim = Simulator()
        pool = _pool(sim)
        with pytest.raises(ValueError):
            ProactiveScaler(
                pools={"ASR": pool},
                predictor=EWMAPredictor(),
                sampler=WindowedMaxSampler(),
                stage_shares={"ASR": 1.0},
                horizon_intervals=0,
            )


class TestStaticPoolSizes:
    def test_sizing_matches_littles_law(self):
        sim = Simulator()
        pool = _pool(sim)  # ASR: 46.1 ms
        sizes = static_pool_sizes(
            {"ASR": pool}, avg_rate_rps=100.0, stage_shares={"ASR": 1.0},
            utilization_target=1.0,
        )
        assert sizes["ASR"] == 5  # ceil(100 * 0.0461)

    def test_minimum_one_container(self):
        sim = Simulator()
        pool = _pool(sim, service="NLP")
        sizes = static_pool_sizes(
            {"NLP": pool}, avg_rate_rps=1.0, stage_shares={"NLP": 1.0},
        )
        assert sizes["NLP"] == 1
