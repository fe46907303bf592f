"""The sharded plane from the command line: the paper's headline
policy runs there, and a flag the sharded path cannot honour is a
usage error instead of a silent no-op."""

import pytest

from repro.cli import main
from repro.experiments import predictors
from repro.experiments.predictors import predictor_for_run
from repro.runtime.system import ClusterSpec
from repro.shard.sim import run_sharded_policy
from repro.traces import poisson_trace
from repro.workloads import get_mix

RUN = ["run", "fifer", "--shards", "2", "--duration", "20", "--rate", "10",
       "--trace", "poisson"]


@pytest.mark.parametrize(
    "argv", [RUN, RUN + ["--shard-workers", "2"]],
    ids=["run", "run-processes"])
def test_fifer_runs_on_the_sharded_plane(argv, capsys):
    # Both exited with "policy 'fifer' needs a pre-trained 'lstm'
    # predictor"; the multi-process simulator was the last plane to be
    # handed the forecaster.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "fifer x2 shards" in out
    for row in ("shard 0", "shard 1", "plane"):
        assert row in out


def test_shard_processes_are_handed_the_predictor():
    trace = poisson_trace(rate_rps=10.0, duration_s=20.0, seed=4)
    result = run_sharded_policy(
        "fifer", get_mix("medium"), trace, shards=2, shard_workers=2,
        cluster_spec=ClusterSpec(n_nodes=4), seed=4,
        predictor=predictor_for_run("lstm", "poisson", 10.0))
    assert result.mode == "processes" and sorted(result.per_shard) == [0, 1]
    assert result.n_jobs == len(trace.arrivals_ms)
    assert all(r.policy == "fifer" and r.n_jobs and r.n_completed == r.n_jobs
               for r in result.per_shard.values())


def test_one_training_rule(monkeypatch):
    seen = []
    monkeypatch.setattr(
        predictors, "pretrained_predictor",
        lambda kind, mean_rate_rps: seen.append((kind, mean_rate_rps)))
    for kind in ("poisson", "step-poisson", "wits"):
        predictor_for_run("lstm", kind, 7.0)
    assert seen == [("poisson", 7.0), ("poisson", 7.0), ("wits", 7.0)]
    assert predictor_for_run("ewma", "wits", 7.0) is None
    assert predictor_for_run(None, "wits", 7.0) is None


@pytest.mark.parametrize("argv, flag", [
    (RUN + ["--diverge-at", "3"], "--diverge-at"),
    (RUN + ["--repeats", "2"], "--repeats"),
    (RUN + ["--workers", "2"], "--workers"),
    (RUN + ["--cache-dir", "unused"], "--cache-dir"),
    (RUN + ["--trace-out", "unused.jsonl"], "--trace-out"),
    (RUN + ["--metrics-out", "unused.prom"], "--metrics-out"),
])
def test_flags_the_sharded_paths_drop_are_usage_errors(
        argv, flag, monkeypatch, tmp_path):
    # Refused before anything is trained, run or written.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(predictors, "pretrained_predictor", None)
    with pytest.raises(SystemExit) as refusal:
        main(argv)
    assert str(refusal.value) == (
        f"{argv[0]}: {flag} is not supported with --shards > 1")
    assert list(tmp_path.iterdir()) == []


def test_serve_has_no_shards_flag(capsys, monkeypatch, tmp_path):
    # The live plane is one gateway: ``serve --shards`` is an argparse
    # usage error naming the flag, and nothing runs or is written.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as refusal:
        main(["serve", "--shards", "2", "--duration", "3", "--rate", "5",
              "--trace", "poisson"])
    assert refusal.value.code == 2
    assert "--shards" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
