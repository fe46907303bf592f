"""The scalers read the same inputs on both engines, tick by tick.

The summary-level parity grid compares what a run *produced*; a pool
signal that drifts only inside a monitor window can leave it green.
Here every control tick records, for every pool, the three signals the
reactive scaler and the deadline shedder read — the recent queue
delay, the oldest waiting task's age and the monitored delay built
from them — and the event loop and the vector engine must agree on
every one, float for float.

The scenario batches (fifer sizes containers to hold several tasks)
and is loaded past its opening capacity, so tasks queue inside
containers and a completion often starts the next one at once: the
case where a task's queue delay must be read before the next task
starts.
"""

import pytest

from repro.core.controlplane import ControlPlane
from repro.core.policies import make_policy_config
from repro.runtime.system import ClusterSpec, ServerlessSystem
from repro.traces.factory import make_trace
from repro.workloads import get_mix


def _tick_inputs(engine):
    """Per tick: ``(now, pool, recent delay, oldest age, monitored)``,
    read as the tick starts, before any scaler acts on them."""
    readings = []
    tick = ControlPlane.tick

    def recording_tick(plane, now_ms):
        for name, pool in plane.pools.items():
            readings.append((
                now_ms, name, pool.recent_queue_delay_ms(),
                pool.oldest_waiting_age_ms(), pool.monitored_delay_ms()))
        tick(plane, now_ms)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ControlPlane, "tick", recording_tick)
        system = ServerlessSystem(
            config=make_policy_config("fifer", proactive_predictor="ewma"),
            mix=get_mix("heavy"),
            cluster_spec=ClusterSpec(n_nodes=5),
            seed=3,
            engine=engine,
        )
        system.run(make_trace("poisson", 40.0, 120.0, 3))
    return readings


def test_scaler_inputs_equal_per_tick():
    fast, vector = (_tick_inputs(engine) for engine in ("fast", "vector"))
    # The scenario does what it is for: many ticks, delays observed and
    # tasks still waiting when some of them fire.
    assert len({now for now, *_ in fast}) >= 10
    assert sum(1 for r in fast if r[2] > 0.0) >= 20
    assert sum(1 for r in fast if r[3] > 0.0) >= 10
    assert len(vector) == len(fast)
    for want, got in zip(fast, vector):
        assert got == want
