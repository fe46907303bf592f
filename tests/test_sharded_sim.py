"""Tests for the sharded simulation plane (``repro.shard.sim`` and the
orchestrator).

The anchor invariant: ``shards=1`` routes to the exact pre-existing
single-gateway path, so its results are bit-identical to
``run_policy``.  For ``shards>1`` the suite checks conservation (the
partition is a disjoint cover), the refusal of vector shards,
orchestrator rebalancing on skewed grants, and the validation edges.
"""

import numpy as np
import pytest

from repro.runtime.system import ClusterSpec, run_policy
from repro.shard import run_sharded_policy
from repro.shard.orchestrator import divide_surge_budget
from repro.scenario import PlaneRefusal
from repro.shard.sim import plan_node_grants
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


# ---------------------------------------------------------------------------
# conservation, and one engine


def test_two_shard_conservation_eventloop():
    trace = _trace()
    result = _run(2, engine="fast")
    assert result.n_jobs == len(trace.arrivals_ms)
    assert result.n_completed + result.n_failed + result.shed_jobs \
        == result.n_jobs
    assert sorted(result.per_shard) == [0, 1]
    assert all(r.n_jobs > 0 for r in result.per_shard.values())


def test_inprocess_vector_shards_are_refused():
    # One driver, the event loop: engine choice cannot change a sharded
    # result because only one engine runs it.
    with pytest.raises(PlaneRefusal,
                       match="engine is not supported on the sim-sharded"):
        _run(2, engine="vector")


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
