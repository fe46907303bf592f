"""Edge-case coverage across modules: boundaries, degenerate inputs,
numerical corners."""

import numpy as np
import pytest

from repro.cluster.energy import EnergyMeter, NodePowerModel
from repro.cluster.node import Node
from repro.metrics.stats import cdf_points
from repro.prediction.classical import (
    LinearRegressionPredictor,
    LogisticRegressionPredictor,
    MovingWindowAveragePredictor,
)
from repro.prediction.nn import softplus
from repro.sim.engine import Simulator
from repro.traces.base import ArrivalTrace, RateProfile
from repro.workloads.applications import Application
from repro.workloads.microservices import MICROSERVICES


class TestSoftplus:
    def test_large_positive_no_overflow(self):
        assert softplus(np.array([700.0]))[0] == pytest.approx(700.0)

    def test_large_negative_underflows_to_zero(self):
        assert softplus(np.array([-700.0]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_zero(self):
        assert softplus(np.array([0.0]))[0] == pytest.approx(np.log(2.0))


class TestClassicalPredictorCorners:
    def test_mwa_window_one(self):
        assert MovingWindowAveragePredictor(window=1).predict([3.0, 9.0]) == 9.0

    def test_linear_single_point(self):
        assert LinearRegressionPredictor(window=5).predict([4.0]) == 4.0

    def test_logistic_short_history(self):
        assert LogisticRegressionPredictor().predict([5.0, 6.0]) == 6.0

    def test_logistic_decreasing_series_finite(self):
        pred = LogisticRegressionPredictor().predict(
            [100.0, 80.0, 60.0, 40.0, 20.0, 10.0, 5.0, 3.0, 2.0, 1.0]
        )
        assert np.isfinite(pred) and pred >= 0.0


class TestSimulatorCorners:
    def test_schedule_at_exactly_now(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: sim.schedule_at(sim.now,
                                                   lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [10.0]

    def test_zero_delay_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.0]

    def test_run_until_zero(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        assert sim.run(until=0.0) == 0.0
        assert sim.pending() == 1

    def test_pending_counts_live_events(self):
        sim = Simulator()
        e1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        sim.cancel(e1)
        assert sim.pending() == 1


class TestTraceCorners:
    def test_single_point_profile(self):
        p = RateProfile(np.array([0.0]), np.array([5.0]))
        assert p.rate_at(1e9) == 5.0

    def test_empty_trace_duration(self):
        t = ArrivalTrace(np.empty(0))
        assert t.duration_ms == 0.0
        assert t.mean_rate_rps == 0.0

    def test_single_arrival_rate(self):
        assert ArrivalTrace(np.array([5.0])).mean_rate_rps == 0.0

    def test_rate_series_zero_duration(self):
        t = ArrivalTrace(np.array([0.0]))
        series = t.rate_series(1000.0, duration_ms=1.0)
        assert series.shape == (1,)

    def test_cdf_points_empty(self):
        assert cdf_points([]).size == 0


class TestApplicationCorners:
    def test_single_stage_chain(self):
        app = Application(
            name="solo",
            stages=(MICROSERVICES["QA"],),
            slo_ms=1000.0,
            transition_overhead_ms=50.0,
        )
        assert app.n_stages == 1
        assert app.slack_ms == pytest.approx(1000.0 - 56.1 - 50.0)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            Application(name="none", stages=(), slo_ms=1000.0)

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            Application(
                name="bad", stages=(MICROSERVICES["QA"],),
                slo_ms=1000.0, transition_overhead_ms=-1.0,
            )


class TestEnergyCorners:
    def test_meter_without_samples(self):
        meter = EnergyMeter()
        assert meter.mean_power_w == 0.0
        assert meter.mean_active_nodes == 0.0
        assert meter.total_kwh == 0.0

    def test_fractional_core_utilization_power(self):
        model = NodePowerModel(idle_w=100.0, peak_w=200.0)
        node = Node(node_id=0, cores=16)
        node.allocate(0.5, 64)  # 1/32 of the cores
        expected = 100.0 + 100.0 * (0.5 / 16)
        assert model.node_power_w(node, 0.0) == pytest.approx(expected)

    def test_gate_after_zero_gates_immediately(self):
        model = NodePowerModel(gate_after_ms=0.0)
        node = Node(node_id=0)
        node.idle_since_ms = 100.0
        assert model.node_power_w(node, 100.0) == 0.0
