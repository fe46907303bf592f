"""Scripted node kills/recoveries: the fault timeline's node events."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.faults import (
    FaultEvent,
    FaultTimeline,
    RegistryDegradation,
    apply_node_event,
)
from repro.obs.registry import MetricsRegistry
from repro.runtime.system import run_policy
from repro.traces import poisson_trace
from repro.workloads import get_mix


class TestNodeFaultEvent:
    def test_valid_event(self):
        ev = FaultEvent(at_ms=30_000.0, kind="kill-node", ids=(0, 1))
        assert ev.ids == (0, 1)

    @pytest.mark.parametrize("kwargs", [
        dict(at_ms=-1.0, kind="kill-node", ids=(0,)),
        dict(at_ms=float("nan"), kind="kill-node", ids=(0,)),
        dict(at_ms=float("inf"), kind="kill-node", ids=(0,)),
        dict(at_ms=0.0, kind="reboot-node", ids=(0,)),
        dict(at_ms=0.0, kind="kill-node", ids=()),
        dict(at_ms=0.0, kind="kill-node", ids=(-1,)),
        dict(at_ms=0.0, kind="kill-node", ids=(0, 0)),
    ])
    def test_invalid_events_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultEvent(**kwargs)


class TestScheduleParse:
    def test_parse_round_trip(self):
        sched = FaultTimeline.parse("kill-node@30=0,1;recover-node@60=0,1")
        assert len(sched) == 2
        kill, recover = sched.events
        assert kill.kind == "kill-node"
        assert kill.at_ms == 30_000.0
        assert kill.ids == (0, 1)
        assert recover.kind == "recover-node"
        assert recover.at_ms == 60_000.0

    def test_events_sorted_by_time(self):
        sched = FaultTimeline.parse("recover-node@60=0;kill-node@30=0")
        assert [e.at_ms for e in sched.events] == [30_000.0, 60_000.0]

    def test_correlated_zone_failure_spec(self):
        sched = FaultTimeline.parse("kill-node@10=0,1,2")
        assert sched.events[0].ids == (0, 1, 2)

    # Test ids are pinned to the pre-timeline spellings (kill@...) so
    # the suite's test names survive the grammar change.
    @pytest.mark.parametrize("spec", [
        pytest.param(spec, id=spec.replace("kill-node", "kill"))
        for spec in (
            "", ";;", "kill-node@30", "kill-node=0", "melt@30=0",
            "kill-node@x=0", "kill-node@30=a", "kill-node@-5=0",
            "kill-node@30=",
        )
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultTimeline.parse(spec)

    def test_trailing_separator_tolerated(self):
        assert len(FaultTimeline.parse("kill-node@30=0;")) == 1


class TestApplyEvent:
    def _cluster(self, n=2):
        return Cluster(n_nodes=n, cores_per_node=4)

    def test_kill_marks_node_failed_and_counts(self):
        cluster = self._cluster()
        reg = MetricsRegistry()
        sched = FaultTimeline.parse("kill-node@1=0")
        apply_node_event(sched.events[0], cluster, [], 1_000.0, reg)
        assert cluster.nodes[0].failed
        assert not cluster.nodes[0].fits(cpu=0.1, memory_mb=1.0)
        assert reg.value("cluster_node_kills_total") == 1

    def test_kill_is_idempotent(self):
        cluster = self._cluster()
        reg = MetricsRegistry()
        ev = FaultEvent(at_ms=0.0, kind="kill-node", ids=(0,))
        apply_node_event(ev, cluster, [], 0.0, reg)
        apply_node_event(ev, cluster, [], 0.0, reg)
        assert reg.value("cluster_node_kills_total") == 1

    def test_recover_restores_placement(self):
        cluster = self._cluster()
        reg = MetricsRegistry()
        kill = FaultEvent(at_ms=0.0, kind="kill-node", ids=(0,))
        recover = FaultEvent(at_ms=5.0, kind="recover-node", ids=(0,))
        apply_node_event(kill, cluster, [], 0.0, reg)
        apply_node_event(recover, cluster, [], 5.0, reg)
        assert not cluster.nodes[0].failed
        assert cluster.nodes[0].fits(cpu=0.1, memory_mb=1.0)
        assert reg.value("cluster_node_recoveries_total") == 1

    def test_recover_without_kill_is_a_noop(self):
        cluster = self._cluster()
        reg = MetricsRegistry()
        ev = FaultEvent(at_ms=0.0, kind="recover-node", ids=(1,))
        apply_node_event(ev, cluster, [], 0.0, reg)
        assert reg.value("cluster_node_recoveries_total") == 0

    def test_unknown_node_id_raises(self):
        # Refused when the run is built, not when the event fires.
        ev = FaultEvent(at_ms=0.0, kind="kill-node", ids=(7,))
        with pytest.raises(ValueError, match="out of range"):
            FaultTimeline((ev,)).validate("sim", n_nodes=2)


class TestEndToEndSimulation:
    def test_node_kill_and_recovery_in_a_run(self):
        mix = get_mix("medium")
        trace = poisson_trace(20.0, 60.0, seed=3)
        sched = FaultTimeline.parse("kill-node@20=0;recover-node@40=0")
        result = run_policy("rscale", mix, trace, seed=3, faults=sched)
        assert result.nodes_killed == 1
        assert result.nodes_recovered == 1
        # The run completed despite losing a node mid-trace.
        assert result.n_jobs > 0

    def test_fault_schedule_changes_outcomes(self):
        from repro.runtime.system import ClusterSpec

        mix = get_mix("medium")
        trace = poisson_trace(30.0, 60.0, seed=3)
        spec = ClusterSpec(n_nodes=2)
        base = run_policy("rscale", mix, trace, seed=3, cluster_spec=spec)
        faulted = run_policy(
            "rscale", mix, trace, seed=3, cluster_spec=spec,
            faults=FaultTimeline.parse("kill-node@15=0"))
        assert faulted.nodes_killed == 1
        assert faulted.summary() != base.summary()


class TestRegistryDegradationValidation:
    def test_valid_window(self):
        model = RegistryDegradation(start_ms=1_000.0, end_ms=2_000.0,
                                    factor=3.0)
        assert model is not None

    @pytest.mark.parametrize("kwargs", [
        dict(start_ms=-1.0, end_ms=10.0),
        dict(start_ms=10.0, end_ms=10.0),     # empty window
        dict(start_ms=20.0, end_ms=10.0),     # inverted window
        dict(start_ms=0.0, end_ms=10.0, factor=0.5),
        dict(start_ms=0.0, end_ms=10.0, factor=float("nan")),
        dict(start_ms=float("nan"), end_ms=10.0),
    ])
    def test_invalid_windows_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RegistryDegradation(**kwargs)
