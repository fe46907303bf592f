#!/usr/bin/env python3
"""Live serving: the Fifer bricks on a real wall clock.

The simulator answers "what would this policy do?"; the serving runtime
in :mod:`repro.serve` answers it with *actual* concurrency — an asyncio
gateway admitting requests from a trace replayer, worker pools executing
(scaled) work on a thread pool, and the very same reactive/proactive
scalers driven by a periodic control loop instead of simulated events.

This example runs the same policy/trace/seed through both worlds and
prints the reports side by side: the metrics pipeline is shared, so the
rows are directly comparable.  A third run serves the trace on two
gateway shards (:func:`repro.shard.serve_sharded`: one process per
shard, each over its slice of the request ids and of the cluster).
Time is compressed 20x (time_scale=0.05) so the 60 s workload takes
~3 s of wall time per run.

Run:  python examples/live_serving.py
"""

import time

from repro.experiments import format_table
from repro.runtime.system import ClusterSpec, run_policy
from repro.serve import ServeOptions, ServingRuntime
from repro.core.policies import make_policy_config
from repro.shard import serve_sharded
from repro.traces import poisson_trace
from repro.workloads import get_mix

POLICY = "rscale"
MIX = "medium"
SEED = 7
RATE_RPS = 15.0
DURATION_S = 60.0
TIME_SCALE = 0.05  # 20x compression: 60 model seconds in 3 wall seconds


def row(label, result):
    return (
        label,
        result.n_jobs,
        f"{result.slo_violation_rate:.2%}",
        f"{result.median_latency_ms:.0f}",
        f"{result.p99_latency_ms:.0f}",
        result.peak_containers,
        result.cold_starts,
    )


def main() -> None:
    mix = get_mix(MIX)
    spec = ClusterSpec(n_nodes=5)
    trace = poisson_trace(RATE_RPS, DURATION_S, seed=SEED)

    # World 1: the discrete-event simulator (virtual clock, instant).
    sim_result = run_policy(
        POLICY, mix, trace, cluster_spec=spec, seed=SEED,
        idle_timeout_ms=60_000.0,
    )

    # World 2: the live runtime (wall clock, scaled 20x).
    runtime = ServingRuntime(
        config=make_policy_config(POLICY, idle_timeout_ms=60_000.0),
        mix=mix,
        cluster_spec=spec,
        seed=SEED,
        options=ServeOptions(time_scale=TIME_SCALE),
    )
    t0 = time.monotonic()
    live_result = runtime.run(trace)
    wall = time.monotonic() - t0

    print(format_table(
        ["world", "jobs", "SLO viol", "median(ms)", "P99(ms)",
         "peak containers", "cold starts"],
        [row("sim", sim_result), row("live", live_result)],
        title=f"{POLICY} on {MIX} mix, {trace.name}, seed {SEED}",
    ))
    print(f"\nlive run: {wall:.1f} wall seconds for {DURATION_S:.0f} model "
          f"seconds (scale {TIME_SCALE}), drained="
          f"{'yes' if runtime.drain_completed else 'timed out'}, "
          f"shed={runtime.shed_jobs}")
    print("Same policy code, same metrics pipeline — only the clock "
          "differs; small gaps come from wall-clock jitter.")

    # World 3: the live runtime again, split over two gateway processes.
    sharded = serve_sharded(
        POLICY, mix, trace, shards=2, cluster_spec=spec, seed=SEED,
        options=ServeOptions(time_scale=TIME_SCALE),
        idle_timeout_ms=60_000.0,
    )
    print(f"\ntwo live gateway shards: {sharded.n_jobs} jobs "
          f"({', '.join(str(r.n_jobs) for r in sharded.per_shard.values())}"
          f" per shard), SLO viol {sharded.slo_violation_rate:.2%}, "
          f"P99 {sharded.summary()['p99_latency_ms']:.0f} ms")


if __name__ == "__main__":
    main()
