"""Sharded multi-gateway serving plane.

One asyncio gateway + one control loop is a single-core ceiling.  This
package splits the request-id keyspace over N shards with a consistent
hash ring (:mod:`repro.shard.ring`), runs today's (guarded) scaling
policy per shard against shard-local load, and reconciles the shards
globally every tick through the existing sharded state store
(:mod:`repro.shard.orchestrator`).  The sim entry point is
:func:`repro.shard.sim.run_sharded_policy`; the live entry point is
:func:`repro.shard.live.serve_sharded`.

``shards=1`` everywhere routes to the exact pre-existing single-gateway
code path — no module from this package touches the run — so golden
traces stay byte-identical.
"""

from repro.shard.ring import ConsistentHashRing
from repro.shard.failover import (
    ShardHealthMonitor,
    assign_takeover,
)
from repro.shard.live import (
    ShardedServeResult,
    plane_journal_conservation,
    serve_sharded,
)
from repro.shard.orchestrator import GlobalOrchestrator, ShardLoadReport
from repro.shard.sim import ShardedRunResult, partition_arrivals, run_sharded_policy

__all__ = [
    "ConsistentHashRing",
    "GlobalOrchestrator",
    "ShardHealthMonitor",
    "ShardLoadReport",
    "ShardedRunResult",
    "ShardedServeResult",
    "assign_takeover",
    "partition_arrivals",
    "plane_journal_conservation",
    "run_sharded_policy",
    "serve_sharded",
]
