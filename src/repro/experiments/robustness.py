"""The robustness study: what the guarded control plane buys.

Fifer's proactive tier is only as good as its forecasts.  This study
injects the two failure modes the guarded control plane exists for —
a predictor that silently diverges mid-trace, and a cluster node dying
under load — and compares three arms per scenario:

* **unguarded** — Fifer with the fault injected and every guard off:
  the divergence-amplification / capacity-loss baseline.
* **guarded**   — the same faulted Fifer behind the forecast-health
  monitor (window-MAPE fallback to the reactive tier) and the scaling
  guardrails (max-surge clamp, spawn-retry debt, scale-down cooldown).
* **rscale**    — the purely reactive policy: the floor the fallback
  degrades to, so "guarded" should land between it and healthy Fifer.

The headline claim (asserted by ``tests/test_robustness_study.py``):
under forecast divergence the guarded arm's SLO-violation rate is
no worse than pure RScale plus two points, and strictly better than
the unguarded arm.

Both arms use an EWMA forecaster for the proactive tier (``fifer``'s
LSTM swapped via the ``proactive_predictor`` override) so the study
runs in seconds and stays deterministic without a training step; the
guard logic is predictor-agnostic.

A second, optional study (``--crash-recovery``) exercises the durable
control plane end-to-end on the *live* serving path: two identical
serves of the same trace — one uninterrupted, one with the gateway
killed mid-run and restored from its journal + checkpoint — must agree
on SLO-violation rate to within two points, and the crashed arm's
journal must conserve every job exactly once (``#admit == #terminal``
per job id, no duplicate terminals).

Run it::

    PYTHONPATH=src python -m repro.experiments.robustness --quick \
        --crash-recovery --out robustness.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.experiments import format_table
from repro.experiments.export import atomic_write_json
from repro.experiments.runner import ExperimentRunner
from repro.scenario import Scenario
from repro.serve.journal import (
    JOURNAL_BASENAME,
    RequestJournal,
    journal_conservation,
)

#: Forecast corruption: inflate by 30x from the third monitor tick on.
DIVERGENCE = (("diverge_after", 3), ("diverge_factor", 30.0))

#: Node 0 dies a third of the way in and comes back two thirds in.
NODE_LOSS = "kill-node@40=0;recover-node@80=0"

#: Guard knobs for the guarded arm (mirrors the CLI flag defaults the
#: docs recommend: --mape-threshold 0.5 --max-surge 8 --spawn-retries 2
#: --scale-down-cooldown 20).
GUARD_KNOBS = dict(
    mape_threshold=0.5,
    fallback_hysteresis=2,
    max_surge=8,
    spawn_retry_attempts=2,
    scale_down_cooldown_ms=20_000.0,
)

#: Guard counters copied from each trial summary into the study output.
GUARD_COUNTERS = (
    "predictor_fallbacks", "predictor_recoveries", "fallback_ticks",
    "surge_clamped", "spawn_retries", "spawn_retries_exhausted",
    "nodes_killed", "nodes_recovered", "stage_sheds", "shed_jobs",
    "tick_errors",
)

ARMS = ("unguarded", "guarded", "rscale")


def study_specs(quick: bool = False, seed: int = 7) -> Dict[str, Dict[str, Scenario]]:
    """The trial matrix: scenario -> arm -> spec.

    Quick mode shortens the trace; the fault times scale with it so the
    divergence still has most of the run to do damage.
    """
    duration = 60.0 if quick else 120.0
    node_loss = "kill-node@20=0;recover-node@40=0" if quick else NODE_LOSS
    common = dict(
        mix="medium", trace_kind="step-poisson", rate_rps=40.0,
        duration_s=duration, seed=seed, nodes=3,
    )
    fifer = dict(proactive_predictor="ewma")

    def scenario(faults) -> Dict[str, Scenario]:
        return {
            "unguarded": Scenario.make(
                "fifer", faults=faults, **fifer, **common),
            "guarded": Scenario.make(
                "fifer", faults=faults, **fifer, **GUARD_KNOBS, **common),
            "rscale": Scenario.make("rscale", faults=faults, **common),
        }

    return {
        "divergence": scenario(DIVERGENCE),
        "node-loss": scenario((("timeline", node_loss),)),
    }


def run_robustness_study(
    quick: bool = False,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    seed: int = 7,
) -> Dict:
    """Run every scenario/arm and derive the acceptance verdicts."""
    matrix = study_specs(quick=quick, seed=seed)
    flat: List[Scenario] = [
        spec for arms in matrix.values() for spec in arms.values()
    ]
    runner = ExperimentRunner(
        workers=workers, cache_dir=cache_dir, use_cache=use_cache)
    results = iter(runner.run(flat))

    out: Dict = {"quick": quick, "seed": seed, "scenarios": {}}
    for scenario, arms in matrix.items():
        out["scenarios"][scenario] = {}
        for arm in arms:
            r = next(results)
            s = r.summary
            out["scenarios"][scenario][arm] = {
                "slo_violation_rate": s["slo_violation_rate"],
                "p99_latency_ms": s["p99_latency_ms"],
                "median_latency_ms": s["median_latency_ms"],
                "avg_containers": s["avg_containers"],
                "cold_starts": s["cold_starts"],
                "guards": {k: s.get(k, 0.0) for k in GUARD_COUNTERS},
                "from_cache": r.from_cache,
            }

    div = out["scenarios"]["divergence"]
    out["acceptance"] = {
        # Falling back must cost at most 2 points over never having had
        # a proactive tier at all ...
        "guarded_within_2pts_of_rscale": bool(
            div["guarded"]["slo_violation_rate"]
            <= div["rscale"]["slo_violation_rate"] + 0.02
        ),
        # ... and must beat riding the diverged forecasts down.
        "guarded_beats_unguarded": bool(
            div["guarded"]["slo_violation_rate"]
            < div["unguarded"]["slo_violation_rate"]
        ),
        "fallback_engaged": bool(
            div["guarded"]["guards"]["predictor_fallbacks"] > 0
        ),
    }
    return out


def run_crash_recovery_study(quick: bool = False, seed: int = 7) -> Dict:
    """Crash the live gateway mid-run and compare against no crash.

    Both arms serve the identical Poisson trace with durability on
    (journal + periodic checkpoints into a throwaway directory); the
    ``crashed`` arm additionally kills the gateway 40% of the way in,
    forcing a journal/checkpoint restore.  Time compression keeps each
    arm under a couple of wall seconds.
    """
    import pathlib
    import tempfile

    from repro.cluster.faults import FaultEvent, FaultTimeline
    from repro.serve import ServeOptions, serve_trace
    from repro.traces.poisson import poisson_trace
    from repro.workloads.mixes import get_mix

    duration = 20.0 if quick else 40.0
    rate_rps = 8.0
    crash_at_ms = duration * 1000.0 * 0.4
    mix = get_mix("medium")
    trace = poisson_trace(rate_rps=rate_rps, duration_s=duration, seed=seed)

    def run_arm(crash: bool) -> Dict:
        with tempfile.TemporaryDirectory(prefix="crash-recovery-") as jdir:
            result = serve_trace(
                "rscale", mix, trace, seed=seed,
                options=ServeOptions(
                    time_scale=0.05, journal_dir=jdir,
                    checkpoint_interval_ms=2_000.0),
                drain_ms=duration * 1000.0,
                faults=FaultTimeline(
                    (FaultEvent(crash_at_ms, "crash-gateway"),)
                    if crash else ()))
            records = RequestJournal.read_records(
                pathlib.Path(jdir) / JOURNAL_BASENAME)
        conservation = journal_conservation(records)
        s = result.summary()
        return {
            "slo_violation_rate": s["slo_violation_rate"],
            "p99_latency_ms": s["p99_latency_ms"],
            "jobs": int(result.n_jobs),
            "completed": int(result.n_completed),
            "journal_appends": int(result.journal_appends),
            "recoveries": int(result.recoveries),
            "jobs_requeued_on_recovery": int(result.jobs_requeued_on_recovery),
            "jobs_deduped_on_recovery": int(result.jobs_deduped_on_recovery),
            "conservation": conservation,
        }

    arms = {"baseline": run_arm(False), "crashed": run_arm(True)}
    delta = abs(
        arms["crashed"]["slo_violation_rate"]
        - arms["baseline"]["slo_violation_rate"]
    )
    out = {
        "quick": quick,
        "seed": seed,
        "crash_at_ms": crash_at_ms,
        "arms": arms,
        "slo_delta": delta,
        "acceptance": {
            # Restoring from the journal must not move the headline SLO
            # number by more than two points ...
            "recovered_slo_within_2pts": bool(delta <= 0.02),
            # ... must actually have exercised the recovery path ...
            "recovery_happened": bool(arms["crashed"]["recoveries"] >= 1),
            # ... and must lose or double-count nothing.
            "crashed_arm_conserves_jobs": bool(
                arms["crashed"]["conservation"]["conserved"]),
            "baseline_arm_conserves_jobs": bool(
                arms["baseline"]["conservation"]["conserved"]),
        },
    }
    return out


def _print_crash_recovery(study: Dict) -> None:
    rows = [
        (
            arm,
            f"{d['slo_violation_rate']:.3%}",
            d["jobs"],
            d["completed"],
            d["recoveries"],
            d["jobs_requeued_on_recovery"],
            d["jobs_deduped_on_recovery"],
            "yes" if d["conservation"]["conserved"] else "NO",
        )
        for arm, d in study["arms"].items()
    ]
    print(format_table(
        ["arm", "SLO viol", "jobs", "completed", "recoveries",
         "requeued", "deduped", "conserved"],
        rows,
        title="crash recovery (live gateway)",
    ))
    print()
    print("crash-recovery acceptance: " + "  ".join(
        f"{k}={'PASS' if v else 'FAIL'}"
        for k, v in study["acceptance"].items()))


def _print_study(study: Dict) -> None:
    for scenario, arms in study["scenarios"].items():
        rows = [
            (
                arm,
                f"{d['slo_violation_rate']:.3%}",
                f"{d['median_latency_ms']:.0f}",
                f"{d['p99_latency_ms']:.0f}",
                f"{d['avg_containers']:.1f}",
                int(d["guards"]["predictor_fallbacks"]),
                int(d["guards"]["surge_clamped"]),
                int(d["guards"]["spawn_retries"]),
                int(d["guards"]["nodes_killed"]),
            )
            for arm, d in arms.items()
        ]
        print(format_table(
            ["arm", "SLO viol", "median(ms)", "P99(ms)", "avg containers",
             "fallbacks", "surge clamped", "spawn retries", "node kills"],
            rows,
            title=f"scenario: {scenario}",
        ))
        print()
    verdicts = study["acceptance"]
    print("acceptance: " + "  ".join(
        f"{k}={'PASS' if v else 'FAIL'}" for k, v in verdicts.items()))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="guarded-control-plane robustness study")
    parser.add_argument("--quick", action="store_true",
                        help="60s traces instead of 120s")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the study as JSON here")
    parser.add_argument("--workers", type=int, default=3,
                        help="trial-level worker processes")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="disk cache for finished trials")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--crash-recovery", action="store_true",
                        help="also run the live gateway crash-recovery "
                             "study (journal + checkpoint restore)")
    args = parser.parse_args(argv)

    study = run_robustness_study(
        quick=args.quick, workers=args.workers,
        cache_dir=args.cache_dir, seed=args.seed,
    )
    _print_study(study)
    verdicts = dict(study["acceptance"])
    if args.crash_recovery:
        print()
        crash_study = run_crash_recovery_study(
            quick=args.quick, seed=args.seed)
        study["crash_recovery"] = crash_study
        _print_crash_recovery(crash_study)
        verdicts.update(
            (f"crash_recovery.{k}", v)
            for k, v in crash_study["acceptance"].items()
        )
    if args.out:
        atomic_write_json(args.out, study)
        print(f"study JSON: {args.out}")
    return 0 if all(verdicts.values()) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
