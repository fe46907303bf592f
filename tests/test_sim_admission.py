"""Slack-aware admission control in the simulator + tick containment."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policies import make_policy_config
from repro.runtime.system import ClusterSpec, ServerlessSystem, run_policy
from repro.sim.engine import Simulator
from repro.traces import poisson_trace
from repro.workflow.lifecycle import RequestLifecycle
from repro.workloads import get_application, get_mix


class FakePool:
    def __init__(self, free_slots, delay_ms):
        self.free_slots = free_slots
        self._delay_ms = delay_ms

    def monitored_delay_ms(self):
        return self._delay_ms


def _decider(pool):
    """A lifecycle core with only what ``deadline_expired`` reads."""
    core = object.__new__(RequestLifecycle)
    app = get_application("ipa")
    core.pools = {app.stage_names[0]: pool}
    return core, app


class TestArrivalAdmissionDecision:
    def test_free_capacity_never_sheds(self):
        core, app = _decider(FakePool(free_slots=3, delay_ms=1e9))
        assert not core.deadline_expired(app)

    def test_saturated_stage_with_exhausted_slack_sheds(self):
        core, app = _decider(FakePool(free_slots=0, delay_ms=1e9))
        assert core.deadline_expired(app)

    def test_saturated_but_timely_stage_admits(self):
        core, app = _decider(FakePool(free_slots=0, delay_ms=0.0))
        assert not core.deadline_expired(app)

    @given(st.integers(min_value=0, max_value=64),
           st.floats(min_value=0.0, max_value=1e6,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=150, deadline=None)
    def test_admission_invariant(self, free_slots, delay_ms):
        """The satellite property: an arrival whose residual slack is
        still positive, or that lands while capacity is free, is never
        shed."""
        core, app = _decider(FakePool(free_slots, delay_ms))
        shed = core.deadline_expired(app)
        if free_slots > 0:
            assert not shed
        elif delay_ms <= app.slack_ms:
            assert not shed
        else:
            assert shed


class TestSimShedExpired:
    @pytest.fixture(scope="class")
    def overloaded(self):
        """A deliberately starved cluster: shedding must engage."""
        mix = get_mix("medium")
        trace = poisson_trace(60.0, 60.0, seed=3)
        spec = ClusterSpec(n_nodes=1, cores_per_node=4)
        kwargs = dict(cluster_spec=spec, seed=3, drain_ms=240_000.0)
        plain = run_policy("rscale", mix, trace, **kwargs)
        shedding = run_policy("rscale", mix, trace, shed_expired=True,
                              **kwargs)
        return plain, shedding

    def test_overload_triggers_sheds(self, overloaded):
        _, shedding = overloaded
        assert shedding.shed_jobs > 0

    def test_shed_jobs_still_counted_as_created(self, overloaded):
        plain, shedding = overloaded
        # Shedding must not launder the workload: both runs saw the
        # same offered jobs.
        assert shedding.n_jobs == plain.n_jobs

    def test_sheds_settle_the_run(self, overloaded):
        _, shedding = overloaded
        assert (shedding.n_completed + shedding.n_failed
                + shedding.shed_jobs) == shedding.n_jobs

    def test_default_runs_never_shed(self):
        mix = get_mix("medium")
        trace = poisson_trace(20.0, 60.0, seed=3)
        result = run_policy("rscale", mix, trace, seed=3)
        assert result.shed_jobs == 0
        assert result.stage_sheds == 0

    def test_ample_capacity_sheds_nothing(self):
        mix = get_mix("medium")
        trace = poisson_trace(10.0, 60.0, seed=3)
        result = run_policy("rscale", mix, trace, seed=3,
                            shed_expired=True,
                            cluster_spec=ClusterSpec(n_nodes=8))
        assert result.shed_jobs == 0


class TestTickFaultContainment:
    def _system(self):
        return ServerlessSystem(
            config=make_policy_config("rscale"),
            mix=get_mix("medium"),
            cluster_spec=ClusterSpec(n_nodes=3),
            seed=3,
        )

    def test_poisoned_tick_does_not_kill_the_run(self):
        """Satellite (b): one scaler raising every tick degrades that
        step, never the run — parity with serve's ControlLoop."""
        system = self._system()
        sim = Simulator()
        trace = poisson_trace(20.0, 60.0, seed=3)
        monitor = system.attach(sim, trace)

        def poisoned_tick(now_ms):
            raise RuntimeError("scaler blew up")

        system.control.reactive.tick = poisoned_tick
        sim.run(until=trace.duration_ms + 1.0)
        monitor.stop()
        result = system.finalize()
        assert result.tick_errors > 0
        assert system.registry.value("scaling_tick_errors_total") \
            == result.tick_errors
        assert result.n_jobs > 0
        # Jobs still complete (prewarmed capacity serves them even with
        # the reactive scaler dead).
        assert result.n_completed > 0

    def test_healthy_run_has_no_tick_errors(self):
        mix = get_mix("medium")
        trace = poisson_trace(20.0, 60.0, seed=3)
        result = run_policy("rscale", mix, trace, seed=3)
        assert result.tick_errors == 0
