"""The shard-failover study: killing 1 of 4 gateways mid-flash-crowd.

The sharded plane (:mod:`repro.shard`) buys flash-crowd absorption, but
N gateways are N processes that can die.  This study scripts exactly
that — one shard of four is killed while the WITS flash crowd is still
ramping, and (in the sim arm) restarted later — and measures what the
self-healing protocol (:mod:`repro.shard.failover`) recovers:

* **declaration** — the heartbeat health monitor must declare the
  silent shard dead (``shard_failovers_total >= 1``) and, after the
  scripted restart, re-admit it (``shard_recoveries_total >= 1``).
* **exactly-once conservation** — every job admitted anywhere on the
  plane reaches exactly one terminal record, *including* the jobs that
  were in flight on the dead shard and were replayed from its journal
  onto the survivors (``completed + failed + shed == admitted``).
* **bounded blast radius** — losing a quarter of the plane for a third
  of the trace must cost at most ``SLO_DELTA_BOUND`` (10 points) of
  SLO-violation rate versus the no-fault run.
* **no-fault purity** — with no fault scripted the plane is untouched:
  two no-fault runs are bit-identical (the failover layer is inert).

The live arm replays a compressed trace on real 4-process gateways,
kills one child mid-run, and lets the parent adjudicate from the
heartbeat files, fence the WAL + lease, and run the takeover runtimes.

Run it::

    PYTHONPATH=src python -m repro.experiments.shard_failover --quick \
        --out shard_failover.json
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.faults import FaultTimeline
from repro.experiments import format_table
from repro.experiments.export import atomic_write_json
from repro.runtime.system import ClusterSpec
from repro.serve.config import ServeOptions
from repro.shard import run_sharded_policy, serve_sharded
from repro.traces.wits import wits_trace
from repro.workloads import get_mix

#: WITS flash crowd: 4x average at the spike (paper's burstiest trace).
AVG_RPS = 30.0
PEAK_RPS = 120.0

#: Small nodes so per-shard grants bind placement (see shard_study).
CLUSTER = dict(n_nodes=8, cores_per_node=1.0, memory_per_node_mb=2048.0)

SHARDS = 4
KILL_SHARD = 1

#: Health-monitor cadence: fast beats so the declaration lands within
#: a few seconds of model time, not a few rebalance ticks.
HEARTBEAT_MS = 500.0
MISS_THRESHOLD = 3
HYSTERESIS = 2

#: Losing 1/4 of the plane for ~1/3 of the trace may cost at most this
#: much SLO-violation rate (the issue's acceptance bound).
SLO_DELTA_BOUND = 0.10

_POLICY = "rscale"


def kill_spec(kill_s: float, recover_s: Optional[float] = None) -> str:
    """The study's fault timeline, as the one grammar both planes parse:
    kill :data:`KILL_SHARD`, and (sim only — the live plane has no
    re-admission) bring it back."""
    spec = f"kill-shard@{kill_s:g}={KILL_SHARD}"
    if recover_s is not None:
        spec += f";recover-shard@{recover_s:g}={KILL_SHARD}"
    return spec


def _sim_arm(result) -> Dict:
    summary = result.summary()
    orch = result.orchestration
    journal = orch.get("journal")
    if journal is None:
        journal = {}
    return {
        "jobs": int(summary["jobs"]),
        "completed": int(summary["completed"]),
        "failed": int(result.n_failed),
        "shed_jobs": int(summary["shed_jobs"]),
        "slo_violation_rate": float(summary["slo_violation_rate"]),
        "median_latency_ms": float(summary["median_latency_ms"]),
        "p99_latency_ms": float(summary["p99_latency_ms"]),
        "failovers": int(orch.get("failovers", 0)),
        "shard_recoveries": int(orch.get("shard_recoveries", 0)),
        # None = the arm ran without a journal (nothing to conserve).
        "journal_conserved": (
            bool(journal.get("conserved", False)) if journal else None),
        "journal_admitted": int(journal.get("jobs_admitted", 0)),
        "rerouted_arrivals": int(result.registry.value(
            "shard_rerouted_arrivals_total")),
        "dead_sheds": int(result.registry.value(
            "gateway_dead_sheds_total")),
        "requeued": int(result.registry.value(
            "shard_jobs_requeued_on_failover_total")),
        "expired": int(result.registry.value(
            "shard_jobs_expired_on_failover_total")),
    }


def _live_arm(result) -> Dict:
    summary = result.summary()
    record = {
        "jobs": int(summary["jobs"]),
        "completed": int(summary["completed"]),
        "failed": int(result.n_failed),
        "shed_jobs": int(summary["shed_jobs"]),
        "slo_violation_rate": float(summary["slo_violation_rate"]),
        "p99_latency_ms": float(summary["p99_latency_ms"]),
        "journal_conserved": bool(result.journal_conserved),
        "failovers": int(result.registry.value("shard_failovers_total")),
    }
    if result.failover:
        record["failover"] = {
            "victim": result.failover["victim"],
            "declared_at_ms": float(result.failover["declared_at_ms"]),
            "fence_taken": bool(result.failover["fence_taken"]),
            "epoch": int(result.failover["epoch"]),
            "requeued": int(result.failover["requeued"]),
            "expired": int(result.failover["expired"]),
            "survivors": list(result.failover["survivors"]),
        }
    return record


def _conserves(arm: Dict) -> bool:
    return arm["completed"] + arm["failed"] + arm["shed_jobs"] \
        == arm["jobs"]


def run_failover_study(quick: bool = False, seed: int = 7,
                       live: bool = True) -> Dict:
    """Run every arm of the kill-a-shard study and derive the verdicts."""
    duration_s = 60.0 if quick else 120.0
    kill_s = duration_s / 3.0
    recover_s = 2.0 * duration_s / 3.0
    mix = get_mix("medium")
    trace = wits_trace(avg_rps=AVG_RPS, peak_rps=PEAK_RPS,
                       duration_s=duration_s, seed=seed)
    spec = ClusterSpec(**CLUSTER)
    sim_kwargs = dict(
        cluster_spec=spec, seed=seed, engine="fast", shards=SHARDS,
    )
    specs = {"sim": kill_spec(kill_s, recover_s)}

    arms: Dict[str, Dict] = {}

    nofault = run_sharded_policy(_POLICY, mix, trace, **sim_kwargs)
    nofault_again = run_sharded_policy(_POLICY, mix, trace, **sim_kwargs)
    arms["sim_nofault"] = _sim_arm(nofault)
    deterministic = bool(
        np.array_equal(np.sort(nofault.latencies_ms),
                       np.sort(nofault_again.latencies_ms))
        and nofault.summary() == nofault_again.summary()
    )

    failover = run_sharded_policy(
        _POLICY, mix, trace,
        faults=FaultTimeline.parse(specs["sim"]),
        heartbeat_interval_ms=HEARTBEAT_MS,
        heartbeat_miss_threshold=MISS_THRESHOLD,
        failover_hysteresis=HYSTERESIS,
        **sim_kwargs)
    arms["sim_failover"] = _sim_arm(failover)

    acceptance = {
        "sim_nofault_deterministic": deterministic,
        "sim_failover_declared": arms["sim_failover"]["failovers"] >= 1,
        "sim_shard_recovered":
            arms["sim_failover"]["shard_recoveries"] >= 1,
        "sim_journal_conserved": bool(
            arms["sim_failover"]["journal_conserved"]),
        "sim_jobs_conserved": bool(
            _conserves(arms["sim_failover"])
            and arms["sim_failover"]["jobs"] == len(trace.arrivals_ms)),
        "sim_slo_delta_bounded": bool(
            abs(arms["sim_failover"]["slo_violation_rate"]
                - arms["sim_nofault"]["slo_violation_rate"])
            <= SLO_DELTA_BOUND),
    }

    live_cfg: Dict = {}
    if live:
        live_duration_s = 12.0 if quick else 24.0
        # The live plane has no reroute (partitioning is static, the
        # takeover only replays the WAL), so the victim's keyspace
        # sheds from the kill to the end of the trace; killing past
        # the WITS spike keeps that blast radius inside the SLO bound
        # while the crowd is still draining.
        live_kill_ms = 2.0 * live_duration_s * 1000.0 / 3.0
        live_rps = 5.0
        live_trace = wits_trace(
            avg_rps=live_rps, peak_rps=4.0 * live_rps,
            duration_s=live_duration_s, seed=seed + 1)
        live_cfg = {
            "duration_s": live_duration_s,
            "avg_rps": live_rps,
            "kill_at_ms": live_kill_ms,
            "time_scale": 0.05,
        }
        live_common = dict(
            shards=SHARDS, cluster_spec=spec, seed=seed,
        )
        specs["live"] = kill_spec(live_kill_ms / 1000.0)
        for name, timeline in (
                ("live_nofault", FaultTimeline()),
                ("live_failover", FaultTimeline.parse(specs["live"]))):
            with tempfile.TemporaryDirectory() as journal_dir:
                kwargs = dict(
                    live_common, faults=timeline, drain_ms=60_000.0,
                    options=ServeOptions(
                        time_scale=live_cfg["time_scale"],
                        journal_dir=journal_dir))
                if timeline:
                    kwargs.update(
                        heartbeat_interval_ms=HEARTBEAT_MS,
                        heartbeat_miss_threshold=MISS_THRESHOLD,
                        failover_hysteresis=HYSTERESIS,
                    )
                arms[name] = _live_arm(
                    serve_sharded(_POLICY, mix, live_trace, **kwargs))
        acceptance.update({
            "live_failover_declared":
                arms["live_failover"]["failovers"] >= 1,
            "live_journal_conserved": bool(
                arms["live_nofault"]["journal_conserved"]
                and arms["live_failover"]["journal_conserved"]),
            "live_jobs_conserved": _conserves(arms["live_failover"]),
            "live_slo_delta_bounded": bool(
                abs(arms["live_failover"]["slo_violation_rate"]
                    - arms["live_nofault"]["slo_violation_rate"])
                <= SLO_DELTA_BOUND),
        })

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
        "shards": SHARDS,
        "kill_shard": KILL_SHARD,
        "faults": specs,
        "kill_s": kill_s,
        "recover_s": recover_s,
        "heartbeat_ms": HEARTBEAT_MS,
        "miss_threshold": MISS_THRESHOLD,
        "hysteresis": HYSTERESIS,
        "slo_delta_bound": SLO_DELTA_BOUND,
        "live": live_cfg,
        "policy": _POLICY,
        "arms": arms,
        "acceptance": acceptance,
    }


def _print_study(study: Dict) -> None:
    rows = []
    for arm, d in study["arms"].items():
        rows.append((
            arm,
            int(d["jobs"]),
            int(d["completed"]),
            int(d["failed"]),
            int(d["shed_jobs"]),
            f"{d['slo_violation_rate']:.3%}",
            f"{d['p99_latency_ms']:.0f}",
            int(d.get("failovers", 0)),
            "-" if d.get("journal_conserved") is None
            else ("yes" if d["journal_conserved"] else "no"),
        ))
    print(format_table(
        ["arm", "jobs", "completed", "failed", "shed", "SLO viol",
         "P99(ms)", "failovers", "journal ok"],
        rows,
        title=(f"kill shard {study['kill_shard']}/{study['shards']} at "
               f"t={study['kill_s']:.0f}s of the WITS flash crowd "
               f"({study['trace']['avg_rps']:.0f}->"
               f"{study['trace']['peak_rps']:.0f} rps, "
               f"{study['trace']['duration_s']:.0f}s)"),
    ))
    sim = study["arms"]["sim_failover"]
    print(
        f"\nsim takeover: {sim['rerouted_arrivals']} arrivals rerouted, "
        f"{sim['dead_sheds']} shed in the degraded window, "
        f"{sim['requeued']} journal jobs requeued, "
        f"{sim['expired']} expired, "
        f"{sim['shard_recoveries']} shard recoveries")
    if "live_failover" in study["arms"]:
        info = study["arms"]["live_failover"].get("failover", {})
        if info:
            print(
                f"live takeover: declared at "
                f"t={info['declared_at_ms'] / 1000.0:.1f}s "
                f"(epoch {info['epoch']}, fence "
                f"{'taken' if info['fence_taken'] else 'refused'}), "
                f"{info['requeued']} requeued, {info['expired']} "
                f"expired on survivors {info['survivors']}")
    print("acceptance: " + "  ".join(
        f"{k}={'PASS' if v else 'FAIL'}"
        for k, v in study["acceptance"].items()))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="kill-a-shard failover study")
    parser.add_argument("--quick", action="store_true",
                        help="shorter trace, smaller live arm")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the study as JSON here")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--no-live", action="store_true",
                        help="skip the live (multi-process) arms")
    args = parser.parse_args(argv)

    study = run_failover_study(
        quick=args.quick, seed=args.seed, live=not args.no_live)
    _print_study(study)
    if args.out:
        atomic_write_json(args.out, study)
        print(f"study JSON: {args.out}")
    return 0 if all(study["acceptance"].values()) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
