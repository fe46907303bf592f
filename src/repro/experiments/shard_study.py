"""The shard-rebalance flash-crowd study: what sharding the gateway buys.

A single Fifer gateway serving the WITS flash crowd (4x average rate at
the spike) saturates its scaler's reaction loop: the spike queues faster
than one control plane provisions.  This study splits the same trace
across consistent-hash shards, each with its own scaler, and measures
three things on small nodes (1 core, 2 GB — dimensioned so per-shard
node grants actually bind placement):

* **flash-crowd absorption** — N independent per-shard scalers react to
  shard-local load, so the N-shard plane's SLO-violation rate must be
  no worse than the 1-shard baseline under the spike (the headline
  acceptance verdict).
* **skew fragility** — a deliberately starved shard (1 of 8 nodes for
  ~half the keyspace) shows what a static partition costs when the
  crowd lands unevenly.
* **rebalance recovery** — the global orchestrator, reconciling
  shard-local pressure through the sharded store each tick, moves
  nodes toward the starved shard.  The violating set is decided while
  the spike queues (extra capacity cannot un-violate a queued job), so
  the measurable benefit is tail recovery: the rebalanced arm must
  drain its backlog into a materially smaller p99 than the static arm,
  at an SLO rate no worse.

Run it::

    PYTHONPATH=src python -m repro.experiments.shard_study --quick \
        --out shard_study.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.experiments import format_table
from repro.experiments.export import atomic_write_json
from repro.runtime.system import ClusterSpec, run_policy
from repro.shard import run_sharded_policy
from repro.traces.wits import wits_trace
from repro.workloads import get_mix

#: WITS flash crowd: 4x average at the spike (paper's burstiest trace).
AVG_RPS = 30.0
PEAK_RPS = 120.0

#: Small nodes so node grants bind placement: one core hosts two of
#: the paper's 0.5-core containers, 2 GB hosts four 512 MB ones.
CLUSTER = dict(n_nodes=8, cores_per_node=1.0, memory_per_node_mb=2048.0)

#: Starved split: shard 0 owns ~half the keyspace on 1 of 8 nodes.
SKEWED_GRANTS = [1, 7]

#: Orchestrator cadence for the rebalancing arm (model ms); the static
#: arm pushes the interval past the trace end so it never ticks.
REBALANCE_MS = 5_000.0
NO_REBALANCE_MS = 1e12

_COMMON = dict(
    policy="rscale",
    idle_timeout_ms=60_000.0,
    skew_threshold=1.2,
)


def _arm_record(summary: Dict, orchestration: Optional[Dict] = None,
                per_shard: Optional[Dict] = None) -> Dict:
    record = {
        "jobs": int(summary["jobs"]),
        "completed": int(summary["completed"]),
        "shed_jobs": int(summary["shed_jobs"]),
        "slo_violation_rate": float(summary["slo_violation_rate"]),
        "median_latency_ms": float(summary["median_latency_ms"]),
        "p99_latency_ms": float(summary["p99_latency_ms"]),
    }
    if orchestration is not None:
        record["orchestration"] = {
            k: (float(v) if isinstance(v, float) else int(v))
            for k, v in orchestration.items()
        }
    if per_shard is not None:
        record["per_shard"] = per_shard
    return record


def _per_shard_rows(result) -> Dict[str, Dict]:
    return {
        str(shard_id): {
            "jobs": int(r.n_jobs),
            "violations": int(r.violations),
            "peak_containers": int(r.peak_containers),
            "p99_latency_ms": float(r.p99_latency_ms),
        }
        for shard_id, r in sorted(result.per_shard.items())
    }


def run_shard_study(quick: bool = False, seed: int = 7,
                    shards: int = 4) -> Dict:
    """Run every arm of the flash-crowd study and derive the verdicts.

    The trace length is fixed at 180 s: shorter crowds are absorbed by
    even the single gateway (no violations to compare), and each arm
    takes under a second on the event loop anyway.  ``quick`` skips the
    largest uniform arm.
    """
    duration_s = 180.0
    mix = get_mix("medium")
    trace = wits_trace(avg_rps=AVG_RPS, peak_rps=PEAK_RPS,
                       duration_s=duration_s, seed=seed)
    spec = ClusterSpec(**CLUSTER)
    policy = _COMMON["policy"]
    sim_kwargs = dict(
        cluster_spec=spec, seed=seed,
        idle_timeout_ms=_COMMON["idle_timeout_ms"],
    )

    arms: Dict[str, Dict] = {}

    baseline = run_policy(policy, mix, trace, **sim_kwargs)
    arms["1shard"] = _arm_record(baseline.summary())

    uniform_counts = [2] if quick else sorted({2, max(2, shards)})
    for n in uniform_counts:
        result = run_sharded_policy(
            policy, mix, trace, shards=n, **sim_kwargs)
        arms[f"{n}shard_uniform"] = _arm_record(
            result.summary(), result.orchestration,
            _per_shard_rows(result))

    for name, interval in (("skewed_static", NO_REBALANCE_MS),
                           ("skewed_rebalance", REBALANCE_MS)):
        result = run_sharded_policy(
            policy, mix, trace, shards=2,
            initial_node_grants=SKEWED_GRANTS,
            rebalance_interval_ms=interval,
            skew_threshold=_COMMON["skew_threshold"], **sim_kwargs)
        arms[name] = _arm_record(
            result.summary(), result.orchestration,
            _per_shard_rows(result))

    baseline_slo = arms["1shard"]["slo_violation_rate"]
    uniform_slos = [arms[f"{n}shard_uniform"]["slo_violation_rate"]
                    for n in uniform_counts]
    static, rebal = arms["skewed_static"], arms["skewed_rebalance"]
    jobs_offered = len(trace.arrivals_ms)

    acceptance = {
        # The headline: every uniform N-shard arm rides out the flash
        # crowd at least as well as the single gateway.
        "nshard_slo_ge_1shard": bool(
            all(s <= baseline_slo for s in uniform_slos)),
        # Splitting the scaler must actually absorb the spike, not just
        # tie a saturated baseline.
        "sharding_absorbs_flash_crowd": bool(
            min(uniform_slos) < baseline_slo),
        # The orchestrator must detect the skew and move capacity.
        "rebalance_moves_capacity": bool(
            rebal["orchestration"]["nodes_moved"] > 0),
        # Moving capacity drains the starved shard's backlog: the
        # rebalanced tail must be materially (>=25%) shorter ...
        "rebalance_recovers_tail": bool(
            rebal["p99_latency_ms"] <= 0.75 * static["p99_latency_ms"]),
        # ... without making the SLO rate any worse.
        "rebalance_slo_no_worse": bool(
            rebal["slo_violation_rate"]
            <= static["slo_violation_rate"] + 1e-12),
        # Every arm accounts for every offered job.
        "all_arms_conserve_jobs": bool(all(
            a["jobs"] == jobs_offered for a in arms.values())),
    }

    return {
        "quick": quick,
        "seed": seed,
        "trace": {
            "kind": "wits",
            "avg_rps": AVG_RPS,
            "peak_rps": PEAK_RPS,
            "duration_s": duration_s,
        },
        "cluster": dict(CLUSTER),
        "skewed_grants": list(SKEWED_GRANTS),
        "rebalance_interval_ms": REBALANCE_MS,
        "config": dict(_COMMON),
        "arms": arms,
        "acceptance": acceptance,
    }


def _print_study(study: Dict) -> None:
    rows = []
    for arm, d in study["arms"].items():
        orch = d.get("orchestration", {})
        rows.append((
            arm,
            f"{d['slo_violation_rate']:.3%}",
            f"{d['median_latency_ms']:.0f}",
            f"{d['p99_latency_ms']:.0f}",
            int(d["shed_jobs"]),
            int(orch.get("rebalances", 0)),
            int(orch.get("nodes_moved", 0)),
        ))
    print(format_table(
        ["arm", "SLO viol", "median(ms)", "P99(ms)", "shed",
         "rebalances", "nodes moved"],
        rows,
        title=(f"shard rebalance under the WITS flash crowd "
               f"({study['trace']['avg_rps']:.0f}->"
               f"{study['trace']['peak_rps']:.0f} rps, "
               f"{study['trace']['duration_s']:.0f}s)"),
    ))
    print()
    for arm in ("skewed_static", "skewed_rebalance"):
        shard_rows = [
            (arm, shard_id, d["jobs"], d["violations"],
             d["peak_containers"], f"{d['p99_latency_ms']:.0f}")
            for shard_id, d in study["arms"][arm]["per_shard"].items()
        ]
        print(format_table(
            ["arm", "shard", "jobs", "violations", "peak containers",
             "P99(ms)"],
            shard_rows))
        print()
    print("acceptance: " + "  ".join(
        f"{k}={'PASS' if v else 'FAIL'}"
        for k, v in study["acceptance"].items()))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="sharded-gateway flash-crowd rebalance study")
    parser.add_argument("--quick", action="store_true",
                        help="skip the largest uniform shard arm")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the study as JSON here")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--shards", type=int, default=4,
                        help="largest uniform shard count to test")
    args = parser.parse_args(argv)

    study = run_shard_study(
        quick=args.quick, seed=args.seed, shards=args.shards)
    _print_study(study)
    if args.out:
        atomic_write_json(args.out, study)
        print(f"study JSON: {args.out}")
    return 0 if all(study["acceptance"].values()) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
