"""Tests for the sharded simulation plane (``repro.shard.sim`` and the
orchestrator).

The anchor invariant: ``shards=1`` routes to the exact pre-existing
single-gateway path, so its results are bit-identical to
``run_policy``.  For ``shards>1`` the suite checks conservation (the
partition is a disjoint cover), engine agreement in process fan-out,
the refusal of in-process vector shards, orchestrator
rebalancing on skewed grants, and the routing/validation edges.
"""

import numpy as np
import pytest

from repro.runtime.system import ClusterSpec, run_policy
from repro.shard import run_sharded_policy
from repro.shard.orchestrator import divide_surge_budget
from repro.shard.sim import ShardedRunResult, plan_node_grants
from repro.traces import step_poisson_trace
from repro.workloads import get_mix

MIX = get_mix("medium")


def _trace(rate=20.0, duration=30.0, seed=5):
    return step_poisson_trace(rate, duration, variation=0.4, seed=seed)


def _run(shards, **kwargs):
    kwargs.setdefault("cluster_spec", ClusterSpec(n_nodes=4))
    kwargs.setdefault("seed", 5)
    return run_sharded_policy(
        "rscale", MIX, _trace(), shards=shards, **kwargs)


# ---------------------------------------------------------------------------
# 1-shard bit-identity


@pytest.mark.parametrize("engine", ["fast", "vector"])
def test_one_shard_is_bit_identical_to_run_policy(engine):
    baseline = run_policy(
        "rscale", MIX, _trace(), cluster_spec=ClusterSpec(n_nodes=4),
        seed=5, engine=engine)
    sharded = _run(1, engine=engine)
    assert type(sharded) is type(baseline)
    assert sharded.summary() == baseline.summary()
    np.testing.assert_array_equal(
        sharded.latencies_ms, baseline.latencies_ms)


def test_run_policy_delegates_shards_to_sharded_plane():
    result = run_policy(
        "rscale", MIX, _trace(), cluster_spec=ClusterSpec(n_nodes=4),
        seed=5, shards=2)
    assert isinstance(result, ShardedRunResult)
    assert result.n_shards == 2


# ---------------------------------------------------------------------------
# conservation, and one result whatever the engine


def test_two_shard_conservation_eventloop():
    trace = _trace()
    result = _run(2, engine="fast")
    assert result.n_jobs == len(trace.arrivals_ms)
    assert result.n_completed + result.n_failed + result.shed_jobs \
        == result.n_jobs
    assert sorted(result.per_shard) == [0, 1]
    assert all(r.n_jobs > 0 for r in result.per_shard.values())


def test_inprocess_vector_shards_are_refused():
    # One in-process driver, the event loop: engine choice cannot
    # change a sharded result because only one engine runs in process.
    with pytest.raises(ValueError, match="engine='vector'.*shard_workers"):
        _run(2, engine="vector")


def test_process_fanout_engines_agree():
    fast = _run(2, engine="fast", shard_workers=2)
    vector = _run(2, engine="vector", shard_workers=2)
    assert sorted(fast.per_shard) == sorted(vector.per_shard) == [0, 1]
    for shard_id, result in fast.per_shard.items():
        np.testing.assert_array_equal(
            result.latencies_ms, vector.per_shard[shard_id].latencies_ms)


def test_process_mode_matches_inprocess_static_partition():
    # With no rebalance triggered, the orchestrated in-process plane
    # and the isolated process fan-out are the same computation.
    inproc = _run(2)
    procs = _run(2, engine="vector", shard_workers=2)
    assert inproc.mode == "inprocess" and procs.mode == "processes"
    s_in, s_pr = inproc.summary(), procs.summary()
    assert s_in["jobs_per_shard"] == s_pr["jobs_per_shard"]
    for key in ("completed", "median_latency_ms", "p99_latency_ms"):
        assert s_in[key] == pytest.approx(s_pr[key]), key


# ---------------------------------------------------------------------------
# orchestrator


def test_orchestrator_rebalances_skewed_grants():
    # Shard 0 starts starved (1 of 4 nodes) under a symmetric load
    # split, so its pressure dominates and the orchestrator must move
    # capacity toward it.
    result = _run(2, engine="fast", initial_node_grants=[1, 3],
                  skew_threshold=1.5)
    orch = result.orchestration
    assert orch["ticks"] > 0
    assert orch["rebalances"] > 0
    assert orch["nodes_moved"] > 0
    assert orch["store_writes"] > 0  # reports go through the store


def test_orchestration_summary_prices_store_traffic():
    result = _run(2, engine="fast")
    orch = result.orchestration
    assert orch["store_reads"] >= orch["ticks"]
    assert orch["store_mean_access_ms"] >= 0.0


# ---------------------------------------------------------------------------
# hash stage routing


def test_hash_stage_routing_pays_cross_shard_hops():
    local = _run(2, engine="fast", stage_routing="local")
    hashed = _run(2, engine="fast", stage_routing="hash")
    assert local.orchestration["cross_shard_hops"] == 0
    assert hashed.orchestration["cross_shard_hops"] > 0
    # Conservation still holds globally (jobs may complete on a
    # foreign shard, so only the aggregate is conserved).
    assert hashed.n_completed + hashed.n_failed + hashed.shed_jobs \
        == hashed.n_jobs


def test_hash_routing_rejected_off_the_event_loop():
    with pytest.raises(ValueError, match="event-loop"):
        _run(2, engine="vector", stage_routing="hash")
    with pytest.raises(ValueError, match="in-process"):
        _run(2, engine="fast", stage_routing="hash", shard_workers=2)


# ---------------------------------------------------------------------------
# units: grants and surge budget


def test_plan_node_grants_default_split():
    assert plan_node_grants(8, 3) == [3, 3, 2]
    assert plan_node_grants(4, 4) == [1, 1, 1, 1]


def test_plan_node_grants_validation():
    with pytest.raises(ValueError):
        plan_node_grants(2, 3)
    with pytest.raises(ValueError):
        plan_node_grants(4, 2, initial_node_grants=[4, 0])
    with pytest.raises(ValueError):
        plan_node_grants(4, 2, initial_node_grants=[2, 3])
    with pytest.raises(ValueError):
        plan_node_grants(4, 2, initial_node_grants=[4])
    assert plan_node_grants(4, 2, initial_node_grants=[3, 1]) == [3, 1]


def test_divide_surge_budget_sums_exactly():
    for total in (1, 5, 7, 100):
        for pressures in ([1.0, 1.0], [5.0, 1.0, 1.0], [0.0, 0.0]):
            shares = divide_surge_budget(total, pressures)
            assert sum(shares) == total
            assert all(s >= 0 for s in shares)
    # Proportionality: the loaded shard gets the larger share.
    shares = divide_surge_budget(10, [3.0, 1.0])
    assert shares[0] > shares[1]


def test_entry_point_validation():
    with pytest.raises(ValueError):
        _run(0)
    with pytest.raises(ValueError):
        _run(2, stage_routing="bogus")
