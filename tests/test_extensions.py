"""Tests for extensions: HPA baseline, predictor fault resilience,
and the command-line interface."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.coldstart import ColdStartModel
from repro.core.policies import EXTENDED_POLICY_NAMES, make_policy_config
from repro.core.scaling import (
    HPA_TARGET_CONCURRENCY,
    HPAScaler,
    ProactiveScaler,
)
from repro.core.scheduling import SchedulingPolicy
from repro.prediction.base import Predictor
from repro.prediction.windowed import WindowedMaxSampler
from repro.sim.engine import Simulator
from repro.traces import step_poisson_trace
from repro.workflow.job import Job, Task
from repro.workflow.pool import FunctionPool
from repro.workloads import get_application, get_microservice, get_mix
from repro.runtime.system import run_policy


def _pool(sim, batch_size=2, n_nodes=4):
    cluster = Cluster(n_nodes=n_nodes)
    return FunctionPool(
        sim=sim,
        service=get_microservice("ASR"),
        cluster=cluster,
        batch_size=batch_size,
        stage_slack_ms=300.0,
        stage_response_ms=350.0,
        scheduling=SchedulingPolicy.FIFO,
        cold_start=ColdStartModel(jitter_sigma=0.0),
        rng=np.random.default_rng(0),
        on_task_finished=lambda t: None,
    )


def _enqueue(pool, n):
    for _ in range(n):
        job = Job(app=get_application("ipa"), arrival_ms=pool.sim.now)
        pool.enqueue(Task(job=job, stage_index=0, enqueue_ms=pool.sim.now))


class TestHPAScaler:
    def test_scales_up_on_concurrency(self):
        sim = Simulator()
        pool = _pool(sim, batch_size=2)
        scaler = HPAScaler({"ASR": pool})
        _enqueue(pool, 4 * HPA_TARGET_CONCURRENCY)
        spawned = scaler.tick(sim.now)
        assert spawned == 4
        assert scaler.events[0].kind == "hpa-up"

    def test_desired_never_below_one(self):
        sim = Simulator()
        pool = _pool(sim)
        scaler = HPAScaler({"ASR": pool})
        assert scaler.desired_replicas(pool) == 1

    def test_scale_down_needs_stabilization(self):
        sim = Simulator()
        pool = _pool(sim)
        pool.prewarm(4)
        sim.run(until=1.0)
        scaler = HPAScaler({"ASR": pool}, scale_down_stabilization_ticks=3)
        # Desired is 1, current is 4 — needs three consecutive low ticks.
        scaler.tick(1.0)
        scaler.tick(2.0)
        assert pool.n_containers == 4
        scaler.tick(3.0)
        assert pool.n_containers == 1
        assert any(e.kind == "hpa-down" for e in scaler.events)

    def test_burst_resets_stabilization(self):
        sim = Simulator()
        pool = _pool(sim, batch_size=4)
        pool.prewarm(4)
        sim.run(until=1.0)
        scaler = HPAScaler({"ASR": pool}, scale_down_stabilization_ticks=2)
        scaler.tick(1.0)  # below target once
        _enqueue(pool, 16)  # concurrency jumps back
        scaler.tick(2.0)
        assert scaler._below_target["ASR"] == 0

    def test_invalid_params(self):
        sim = Simulator()
        pool = _pool(sim)
        with pytest.raises(ValueError):
            HPAScaler({"ASR": pool}, scale_down_stabilization_ticks=0)

    def test_hpa_policy_end_to_end(self):
        trace = step_poisson_trace(20.0, 120.0, seed=1)
        result = run_policy("hpa", get_mix("light"), trace, seed=3)
        assert result.n_completed == result.n_jobs
        assert result.policy == "hpa"

    def test_hpa_config_guard(self):
        with pytest.raises(ValueError):
            make_policy_config("hpa", reactive=True)
        with pytest.raises(ValueError):
            make_policy_config("hpa", fixed_batch_size=0)

    def test_extended_names(self):
        assert "hpa" in EXTENDED_POLICY_NAMES


class _ExplodingPredictor(Predictor):
    name = "boom"

    def predict(self, history):
        raise RuntimeError("model corrupted")


class TestProactiveResilience:
    def test_predictor_failure_degrades_to_observed_rate(self):
        sim = Simulator()
        pool = _pool(sim)
        sampler = WindowedMaxSampler()
        for t in np.arange(0.0, 50_000.0, 10.0):  # 100 req/s
            sampler.record(t)
        scaler = ProactiveScaler(
            pools={"ASR": pool},
            predictor=_ExplodingPredictor(),
            sampler=sampler,
            stage_shares={"ASR": 1.0},
        )
        sim.run(until=50_000.0)
        spawned = scaler.tick(sim.now)
        assert scaler.predictor_failures == 1
        # Fallback to last observed rate still provisions capacity.
        assert spawned > 0


class TestCLI:
    def test_tables_command(self, capsys):
        from repro.cli import main
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "Table 6" in out
        assert "fifer" in out.lower()

    def test_run_command(self, capsys):
        from repro.cli import main
        assert main([
            "run", "bline", "--duration", "30", "--rate", "10",
            "--mix", "light",
        ]) == 0
        out = capsys.readouterr().out
        assert "bline" in out and "SLO viol" in out

    def test_compare_command(self, capsys):
        from repro.cli import main
        assert main([
            "compare", "--policies", "bline", "rscale",
            "--duration", "30", "--rate", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "containers vs bline" in out

    def test_figures_command(self, capsys, tmp_path):
        from repro.cli import main
        assert main([
            "figures", "--policies", "bline", "--duration", "30",
            "--rate", "8", "--mix", "light", "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "average containers" in out
        assert "CSV exports" in out
        assert (tmp_path / "light_step-poisson_summary.csv").exists()

    def test_unknown_policy_rejected(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["run", "magic"])

    def test_serve_help(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--policy", "--time-scale", "--max-pending",
                     "--json-out", "--drain-timeout"):
            assert flag in out

    def test_serve_command(self, capsys, tmp_path):
        import json
        from repro.cli import main
        json_path = tmp_path / "serve.json"
        assert main([
            "serve", "--policy", "rscale", "--trace", "poisson",
            "--duration", "4", "--rate", "10", "--mix", "light",
            "--time-scale", "0.05", "--json-out", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "live rscale" in out and "SLO viol" in out
        assert "drained: yes" in out
        payload = json.loads(json_path.read_text())
        (record,) = payload["results"]
        assert record["policy"] == "rscale"
        assert record["mode"] == "live"
        assert record["jobs"] > 0
        assert record["drain_completed"] is True
