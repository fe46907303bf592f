"""One application stream per seed, however it is drawn.

The event loop reads arrivals' applications from a buffer that
``presample_app_indices`` refills a chunk at a time; the vector engine
and the replay plan draw the whole trace in one call.  Each must hand
out exactly the applications one scalar ``sample_application`` call per
admitted arrival would, and an arrival that is lost before its draw
must not consume one.
"""

import numpy as np

from repro.cluster.faults import FaultTimeline
from repro.core.policies import make_policy_config
from repro.runtime import system as system_module
from repro.runtime.system import ClusterSpec, ServerlessSystem
from repro.shard import sim as shard_sim
from repro.shard.ring import ConsistentHashRing
from repro.shard.sim import partition_arrivals, run_sharded_policy
from repro.traces import poisson_trace
from repro.workflow.lifecycle import LOST_DEAD
from repro.workloads import get_mix

DRAWS = 10_000


def _scalar_stream(mix, seed, n):
    rng = np.random.default_rng(seed)
    return [mix.sample_application(rng) for _ in range(n)]


def test_buffered_draws_cross_chunks_on_the_scalar_stream():
    assert DRAWS > 2 * system_module._APP_CHUNK
    mix = get_mix("medium")
    system = ServerlessSystem(config=make_policy_config("rscale"), mix=mix,
                              seed=11)
    system._build_substrate()
    drawn = [system._draw_app() for _ in range(DRAWS)]
    assert drawn == _scalar_stream(mix, 11, DRAWS)
    # A new substrate restarts the stream with its generator.
    system._build_substrate()
    assert [system._draw_app() for _ in range(3)] == drawn[:3]


def test_sharded_lost_arrivals_draw_nothing(monkeypatch):
    # Shard 1 dies at 4 s and is declared dead only after missed
    # heartbeats: the arrivals in between are lost undrawn at its front
    # door, and later ones reroute, still drawn from shard 1's stream.
    draws = {}
    real_draw = ServerlessSystem._draw_app

    def recording_draw(system):
        app = real_draw(system)
        draws.setdefault(system, []).append(app)
        return app

    monkeypatch.setattr(shard_sim._ShardSystem, "_draw_app", recording_draw)
    mix = get_mix("medium")
    trace = poisson_trace(25.0, 12.0, seed=2)
    result = run_sharded_policy(
        "rscale", mix, trace, shards=2, cluster_spec=ClusterSpec(n_nodes=4),
        seed=5, engine="fast",
        faults=FaultTimeline.parse("kill-shard@4=1"),
        heartbeat_interval_ms=500.0, heartbeat_miss_threshold=3,
        failover_hysteresis=1,
    )
    assert result.n_jobs == len(trace.arrivals_ms)
    lost = {system.shard_id: int(system.registry.value(LOST_DEAD))
            for system in draws}
    assert lost[1] > 0
    assert result.registry.value("shard_rerouted_arrivals_total") > 0
    arrivals = {shard_id: len(ids) for shard_id, _, ids
                in partition_arrivals(trace, ConsistentHashRing(2))}
    for system, apps in draws.items():
        assert len(apps) == arrivals[system.shard_id] - lost[system.shard_id]
        assert apps == _scalar_stream(mix, system.seed, len(apps))
