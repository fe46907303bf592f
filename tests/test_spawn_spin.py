"""Spawning past cluster capacity stops at the first hopeless placement.

``PoolSurface._spawn_list`` tries *count* placements.  Once one fails
and the reclaim callback frees nothing (or none is wired), the cluster
is unchanged, so every later try would fail the same way: the call
stops there, and none of the rest is tried.  ``failed_spawns`` counts
placements the cluster refused: the one that ended the call counts
once, as does one refused after a reclaim freed a container elsewhere.
An on-demand pool under overload asks for a spawn per queued request
beyond capacity on every enqueue, so counting the untried rest would
grow with the square of the backlog.

Deliberately numpy + pytest only (no Hypothesis), so the ``perf-smoke``
CI job can run this file.
"""

import hashlib
import json

import numpy as np

import repro.runtime.system as system_module
from repro import ClusterSpec, get_mix, poisson_trace, run_policy
from repro.cluster.cluster import Cluster
from repro.cluster.coldstart import ColdStartModel
from repro.core.poolsurface import PoolSurface
from repro.core.scheduling import SchedulingPolicy
from repro.sim.engine import Simulator
from repro.workflow.pool import FunctionPool
from repro.workloads import get_microservice

#: ``tests/test_system_integration.py``'s overload run: bline, 1 node x
#: 2 cores, Poisson 60 req/s for 30 s of the heavy mix, seed 3: its
#: refused placements, and a summary that stopping early does not move.
FAILED_SPAWNS = 5_570
SUMMARY_SHA256 = "8bb15876efbb7a91"


def _full_pool(reclaim):
    """A warm pool that fills its one node, with *reclaim* wired."""
    sim = Simulator()
    cluster = Cluster(n_nodes=1, cores_per_node=2.0)
    pool = FunctionPool(
        sim=sim, service=get_microservice("ASR"), cluster=cluster,
        batch_size=1, stage_slack_ms=300.0, stage_response_ms=350.0,
        scheduling=SchedulingPolicy.LSF,
        cold_start=ColdStartModel(jitter_sigma=0.0),
        rng=np.random.default_rng(0), on_task_finished=lambda task: None)
    assert pool.prewarm(8) == 4
    sim.run(until=1.0)
    pool.reclaim_callback = reclaim
    return pool, cluster


def test_no_reclaim_callback_tries_once():
    pool, cluster = _full_pool(None)
    failures = cluster.placement_failures
    assert pool.spawn(50) == 0
    assert pool.failed_spawns == 1
    assert cluster.placement_failures == failures + 1


def test_reclaim_that_frees_nothing_runs_once():
    calls = []

    def reclaim():
        calls.append(None)
        return False

    pool, _ = _full_pool(reclaim)
    assert pool.spawn(50) == 0
    assert pool.failed_spawns == 1
    assert len(calls) == 1


def test_each_successful_reclaim_is_retried():
    calls = []
    pool = None

    def reclaim():
        calls.append(None)
        return pool.reclaim_one_idle()

    pool, _ = _full_pool(reclaim)
    # Four idle siblings to reclaim: four placements, then one reclaim
    # that frees nothing ends the call with one refusal.
    assert pool.spawn(10) == 4
    assert pool.failed_spawns == 1
    assert len(calls) == 5


def test_overload_run_reclaims_at_most_once_per_failed_spawn_call(monkeypatch):
    """End to end: a failed ``_spawn_list`` call runs at most one
    reclaim that frees nothing, and it ends the call; the summary is
    bit-identical to trying every placement."""
    spawn_calls = []  # per _spawn_list call: the reclaim results, in order
    reclaim = system_module.reclaim_idle_capacity

    def counting_reclaim(pools):
        freed = reclaim(pools)
        if spawn_calls:
            spawn_calls[-1][1].append(freed)
        return freed

    spawn_list = PoolSurface._spawn_list

    def counting_spawn_list(pool, count):
        before = pool.failed_spawns
        spawn_calls.append([pool, []])
        new = spawn_list(pool, count)
        spawn_calls[-1][0] = pool.failed_spawns > before
        return new

    monkeypatch.setattr(system_module, "reclaim_idle_capacity", counting_reclaim)
    monkeypatch.setattr(PoolSurface, "_spawn_list", counting_spawn_list)
    result = run_policy(
        "bline", get_mix("heavy"), poisson_trace(60.0, 30.0, seed=1), seed=3,
        cluster_spec=ClusterSpec(n_nodes=1, cores_per_node=2.0))

    failed_calls = [results for failed, results in spawn_calls if failed]
    assert failed_calls
    for results in failed_calls:
        assert results.count(False) <= 1
        assert False not in results[:-1]
    # A reclaim that frees a container retires it, so only the ones that
    # free nothing could spin; a call that placed everything it was asked
    # for never met one.
    assert all(all(results) for failed, results in spawn_calls if not failed)
    assert sum(results.count(False) for results in failed_calls) <= len(failed_calls)
    assert result.failed_spawns == FAILED_SPAWNS
    digest = hashlib.sha256(json.dumps(
        result.summary(), sort_keys=True).encode("utf-8")).hexdigest()
    assert digest.startswith(SUMMARY_SHA256)
