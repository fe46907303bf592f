"""Differential harness: event-loop vs vector engine parity.

The vector engine (``engine="vector"``) re-implements the whole
runtime as flat arrays and a batch-admitting run loop; its entire
correctness argument is *bit-identical equality* with the event-loop
engine (``engine="fast"``, the reference).  These tests are that
argument:

* a grid of (policy, mix, trace, seed) cells asserting the two
  engines produce identical ``RunResult`` summaries,
* targeted cells for the orthogonal switches (deadline shedding,
  control-plane blackouts, span tracing),
* a Hypothesis property drawing small random workloads and asserting
  agreement,
* explicit ``VectorEngineUnsupported`` checks for the features the
  vector engine deliberately refuses to emulate.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.energy import EnergyMeter
from repro.cluster.faults import ContainerFaultModel, FaultTimeline
from repro.core.policies import EXTENDED_POLICY_NAMES, make_policy_config
from repro.core.vectorized import segment_totals
from repro.obs.trace import Tracer
from repro.runtime.system import ClusterSpec, ServerlessSystem
from repro.runtime.vector import VectorEngineUnsupported
from repro.sim.engine import ENGINES, resolve_engine
from repro.traces.factory import TRACE_KINDS, make_trace
from repro.workflow.job import Job
from repro.workloads import get_application, get_mix

ENGINE_PAIR = ("fast", "vector")

#: fifer defaults to the LSTM predictor, which trains a network at
#: construction time — far too slow for a parity grid.  The EWMA
#: override exercises the same proactive scaling path.
_POLICY_OVERRIDES = {"fifer": {"proactive_predictor": "ewma"}}


def _run(
    engine,
    policy,
    mix="heavy",
    trace_kind="poisson",
    rate=12.0,
    duration=25.0,
    seed=3,
    nodes=5,
    cores=16,
    drain_ms=None,
    shed_expired=False,
    faults=FaultTimeline(),
    tracer=None,
    **overrides,
):
    merged = dict(_POLICY_OVERRIDES.get(policy, {}))
    merged.update(overrides)
    system_kwargs = {} if drain_ms is None else {"drain_ms": drain_ms}
    system = ServerlessSystem(
        config=make_policy_config(policy, **merged),
        mix=get_mix(mix),
        cluster_spec=ClusterSpec(n_nodes=nodes, cores_per_node=cores),
        seed=seed,
        shed_expired=shed_expired,
        faults=faults,
        tracer=tracer,
        engine=engine,
        **system_kwargs,
    )
    trace = make_trace(trace_kind, rate, duration, seed)
    return system.run(trace)


def _summary(engine, policy, **kwargs):
    return _run(engine, policy, **kwargs).summary()


def _assert_engines_agree(policy, **kwargs):
    fast, vector = (_summary(e, policy, **kwargs) for e in ENGINE_PAIR)
    assert vector == fast, f"vector != fast for {policy} {kwargs}"
    return fast


class TestEngineSelection:
    def test_resolve_engine_passthrough(self):
        assert ENGINES == ENGINE_PAIR
        assert resolve_engine(None) == "fast"
        for name in ENGINES:
            assert resolve_engine(name) == name

    def test_resolve_engine_rejects_the_deleted_legacy_engine(self):
        with pytest.raises(ValueError, match=r"fast.*vector"):
            resolve_engine("legacy")

    def test_cli_rejects_the_deleted_legacy_engine(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "rscale", "--engine", "legacy"])
        assert "invalid choice: 'legacy'" in capsys.readouterr().err

    def test_resolve_engine_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("warp")

    def test_system_records_engine(self):
        system = ServerlessSystem(
            config=make_policy_config("bline"),
            mix=get_mix("medium"),
            cluster_spec=ClusterSpec(n_nodes=3),
            engine="vector",
        )
        assert system.engine == "vector"


class TestParityGrid:
    """Every policy, across traces and seeds, both engines agree."""

    @pytest.mark.parametrize("policy", sorted(EXTENDED_POLICY_NAMES))
    @pytest.mark.parametrize("trace_kind", TRACE_KINDS)
    def test_policy_trace_grid(self, policy, trace_kind):
        summary = _assert_engines_agree(
            policy,
            mix="heavy",
            trace_kind=trace_kind,
            rate=10.0,
            duration=20.0,
            seed=11,
            nodes=5,
        )
        assert summary["jobs"] > 0

    @pytest.mark.parametrize("mix", ["light", "medium", "heavy"])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_mix_seed_grid(self, mix, seed):
        _assert_engines_agree(
            "rscale",
            mix=mix,
            trace_kind="step-poisson",
            rate=15.0,
            duration=20.0,
            seed=seed,
            nodes=6,
        )

    def test_shed_expired_parity(self):
        # A deliberately starved cluster (one 4-core node at 40 rps)
        # so shedding actually fires; otherwise the parity claim would
        # be vacuous for the shed code path.
        summary = _assert_engines_agree(
            "rscale",
            mix="medium",
            trace_kind="poisson",
            rate=60.0,
            duration=40.0,
            seed=3,
            nodes=1,
            cores=4,
            drain_ms=240_000.0,
            shed_expired=True,
        )
        assert summary["shed_jobs"] > 0

    def test_control_blackout_parity(self):
        summary = _assert_engines_agree(
            "rscale",
            mix="medium",
            trace_kind="poisson",
            rate=15.0,
            duration=25.0,
            seed=9,
            nodes=5,
            faults=FaultTimeline.parse("blackout@5:12"),
        )
        assert summary["shed_jobs"] > 0  # blackout-lost arrivals count as shed

    def test_tracer_parity_and_identical_spans(self):
        tracers = {}

        def run(engine):
            tracers[engine] = Tracer()
            return _summary(
                engine,
                "rscale",
                mix="heavy",
                trace_kind="poisson",
                rate=10.0,
                duration=15.0,
                seed=4,
                nodes=4,
                tracer=tracers[engine],
            )

        fast, vector = (run(e) for e in ENGINE_PAIR)
        assert vector == fast

        def span_tuples(tracer):
            # Job ids come from a process-global counter, so their
            # absolute values depend on how many runs happened earlier
            # in the process; rebase to the run's first id before
            # comparing.
            base = min(
                int(s.attrs["job_id"])
                for s in tracer.spans
                if "job_id" in s.attrs
            )

            def rebase(value):
                if isinstance(value, str):
                    return re.sub(
                        r"job-(\d+)",
                        lambda m: f"job-{int(m.group(1)) - base}",
                        value,
                    )
                return value

            return [
                (
                    rebase(s.trace_id),
                    rebase(s.span_id),
                    s.name,
                    rebase(s.parent_id),
                    s.start_ms,
                    s.end_ms,
                    tuple(sorted(
                        (k, v - base if k == "job_id" else v)
                        for k, v in s.attrs.items()
                    )),
                )
                for s in tracer.spans
            ]

        assert span_tuples(tracers["vector"]) == span_tuples(
            tracers["fast"])

    def test_fixed_batch_and_single_use_parity(self):
        _assert_engines_agree(
            "hpa", mix="medium", trace_kind="wiki", rate=12.0,
            duration=20.0, seed=6, nodes=5,
        )
        _assert_engines_agree(
            "brigade", mix="heavy", trace_kind="wits", rate=8.0,
            duration=20.0, seed=6, nodes=5,
        )


class TestRandomWorkloadProperty:
    @given(
        policy=st.sampled_from(sorted(EXTENDED_POLICY_NAMES)),
        mix=st.sampled_from(["light", "medium", "heavy"]),
        trace_kind=st.sampled_from(TRACE_KINDS),
        rate=st.floats(min_value=2.0, max_value=14.0),
        duration=st.floats(min_value=5.0, max_value=15.0),
        seed=st.integers(min_value=0, max_value=2**20),
        nodes=st.integers(min_value=2, max_value=6),
        shed=st.booleans(),
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_engines_agree(
        self, policy, mix, trace_kind, rate, duration, seed, nodes, shed
    ):
        _assert_engines_agree(
            policy,
            mix=mix,
            trace_kind=trace_kind,
            rate=rate,
            duration=duration,
            seed=seed,
            nodes=nodes,
            shed_expired=shed,
        )


class TestSummationOrder:
    """Per-job totals add left to right on both engines, whatever the
    interpreter.  Builtin ``sum()`` over floats is a compensated sum
    since Python 3.12 (it returns 1e16 + 2.0 below), so ``Job.total_*``
    must not use it."""

    EXEC_MS = [1e16, 1.0, 1.0]
    LEFT_TO_RIGHT = (1e16 + 1.0) + 1.0  # each 1.0 is absorbed: == 1e16

    def test_job_totals_match_the_vector_engine_segment_sums(self):
        job = Job(app=get_application("img"), arrival_ms=0.0)
        for stage, value in zip(job.stages, self.EXEC_MS):
            stage.exec_ms = stage.cold_start_wait_ms = value
            stage.enqueue_ms, stage.start_ms = 0.0, value
        vector = segment_totals(np.array(self.EXEC_MS), np.array([0]))[0]
        assert vector == self.LEFT_TO_RIGHT != 1e16 + 2.0
        assert job.total_exec_ms == self.LEFT_TO_RIGHT
        assert job.total_queue_delay_ms == self.LEFT_TO_RIGHT
        assert job.total_cold_start_wait_ms == self.LEFT_TO_RIGHT
        assert job.total_batching_wait_ms == 0.0

    @settings(deadline=None)
    @given(chains=st.lists(
        st.lists(st.floats(-1e300, 1e300, allow_nan=False),
                 min_size=1, max_size=6),
        min_size=1, max_size=30))
    def test_segment_totals_equal_the_scalar_loop(self, chains):
        values = np.array([v for chain in chains for v in chain])
        base = np.cumsum([0] + [len(chain) for chain in chains[:-1]])
        expected = []
        for chain in chains:
            total = 0.0
            for v in chain:
                total += v
            expected.append(total)
        assert segment_totals(values, base).tolist() == expected

    def test_per_job_totals_equal_across_engines(self):
        # The summaries the grid compares carry no per-job total; these
        # arrays do (heavy mix: three- and four-stage chains, where
        # x0 + (x1 + x2) and (x0 + x1) + x2 part in the last bit).
        fast, vector = (
            _run(e, "rscale", rate=40.0, duration=40.0) for e in ENGINE_PAIR)
        assert fast.n_completed > 1000
        for name in ("latencies_ms", "exec_ms", "cold_wait_ms",
                     "batch_wait_ms", "queue_ms"):
            assert np.array_equal(getattr(vector, name), getattr(fast, name)), name

    def test_energy_meter_adds_left_to_right(self):
        meter = EnergyMeter(samples_w=list(self.EXEC_MS))
        assert meter.mean_power_w == self.LEFT_TO_RIGHT / 3


class TestUnsupportedConfigs:
    def _system(self, **kwargs):
        return ServerlessSystem(
            config=make_policy_config("rscale"),
            mix=get_mix("medium"),
            cluster_spec=ClusterSpec(n_nodes=3),
            seed=1,
            engine="vector",
            **kwargs,
        )

    def _run(self, system):
        system.run(make_trace("poisson", 5.0, 5.0, 1))

    def test_container_fault_model_rejected(self):
        system = self._system(
            fault_model=ContainerFaultModel(crash_probability=0.1))
        with pytest.raises(VectorEngineUnsupported, match="fault"):
            self._run(system)

    def test_node_fault_schedule_rejected(self):
        # Refused when the system is built, not when it runs.
        with pytest.raises(ValueError, match="vector plane does not enact"):
            self._system(faults=FaultTimeline.parse("kill-node@10=0"))

    def test_input_scale_sampler_rejected(self):
        system = self._system(input_scale_sampler=lambda rng: 1.0)
        with pytest.raises(VectorEngineUnsupported):
            self._run(system)

    def test_attach_rejected(self):
        from repro.sim.engine import Simulator

        system = self._system()
        with pytest.raises(VectorEngineUnsupported, match="attach"):
            system.attach(Simulator(), make_trace("poisson", 5.0, 5.0, 1))
