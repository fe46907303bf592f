"""The sharded-plane PR's study-level acceptance criteria.

Asserted against a real (quick) run of the flash-crowd study: the
N-shard plane rides out the WITS spike at least as well as the single
gateway, the orchestrator moves capacity toward a starved shard, and
the rebalanced arm drains its backlog into a materially shorter tail.
"""

import os
import subprocess
import sys

import pytest

from repro.experiments.shard_study import run_shard_study

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


class TestShardStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_shard_study(quick=True, seed=7)

    def test_structure(self, study):
        assert set(study["arms"]) == {
            "1shard", "2shard_uniform", "skewed_static",
            "skewed_rebalance",
        }
        for arm in ("skewed_static", "skewed_rebalance"):
            assert set(study["arms"][arm]["per_shard"]) == {"0", "1"}

    def test_nshard_slo_no_worse_than_1shard(self, study):
        baseline = study["arms"]["1shard"]["slo_violation_rate"]
        sharded = study["arms"]["2shard_uniform"]["slo_violation_rate"]
        assert sharded <= baseline
        # And strictly better: the spike actually saturates one
        # gateway's scaler but not two.
        assert sharded < baseline

    def test_rebalance_moves_capacity_and_recovers_tail(self, study):
        static = study["arms"]["skewed_static"]
        rebal = study["arms"]["skewed_rebalance"]
        assert rebal["orchestration"]["nodes_moved"] > 0
        assert static["orchestration"]["nodes_moved"] == 0
        assert rebal["p99_latency_ms"] <= 0.75 * static["p99_latency_ms"]
        assert rebal["slo_violation_rate"] \
            <= static["slo_violation_rate"] + 1e-12

    def test_every_verdict_passes(self, study):
        assert all(study["acceptance"].values()), study["acceptance"]

    def test_all_arms_conserve_jobs(self, study):
        jobs = {a["jobs"] for a in study["arms"].values()}
        assert len(jobs) == 1


def test_cli_writes_json_and_exits_zero(tmp_path):
    """Two processes with different ``PYTHONHASHSEED``s write the same
    bytes: the sharded store places a key by CRC32, not by ``hash()``,
    which Python salts per process."""
    written = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"study-{hash_seed}.json"
        subprocess.run(
            [sys.executable, "-m", "repro.experiments.shard_study",
             "--quick", "--out", str(out)],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed,
                     PYTHONPATH=REPO_SRC),
            check=True)
        written.append(out.read_bytes())
    assert written[0] == written[1]
