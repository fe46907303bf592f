"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``      — simulate one policy on a workload mix and trace
  (``--repeats``/``--workers``/``--cache-dir`` fan repeated seeds out
  over processes with a disk result cache).
* ``sweep``    — sweep one RMConfig knob through the same parallel
  cached runner.
* ``serve``    — serve a trace live on the wall clock (asyncio runtime).
* ``compare``  — policies side by side (Figure 8 structure).
* ``predict``  — train and score the eight forecasters (Figure 6).
* ``figures``  — ASCII figures + CSV exports for a comparison.
* ``report``   — run the evaluation, emit a markdown report.
* ``tables``   — print the static paper tables (3, 4, 5, 6).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.policies import EXTENDED_POLICY_NAMES
from repro.experiments import format_table, normalize
from repro.scenario import Scenario, Shards
from repro.sim.engine import ENGINES
from repro.traces import TRACE_KINDS
from repro.workloads import MICROSERVICES, WORKLOAD_MIXES


def _summary_cells(summary: dict) -> tuple:
    """The six headline cells of one ``RunResult.summary()``."""
    return (
        f"{summary['slo_violation_rate']:.3%}",
        f"{summary['median_latency_ms']:.0f}",
        f"{summary['p99_latency_ms']:.0f}",
        f"{summary['avg_containers']:.1f}",
        int(summary['cold_starts']),
        f"{summary['energy_joules'] / 1e3:.0f}",
    )


def _result_row(policy: str, result) -> tuple:
    return (policy, *_summary_cells(result.summary()))


_SUMMARY_HEADERS = ["SLO viol", "median(ms)", "P99(ms)",
                    "avg containers", "cold starts", "energy(kJ)"]
_RESULT_HEADERS = ["policy", *_SUMMARY_HEADERS]


def _make_tracer(args):
    """Tracer for the run, or None when no span output was requested."""
    from repro.obs.trace import Tracer

    if not args.trace_out:
        return None
    return Tracer(sample_rate=args.trace_sample)


def _emit_obs(args, tracer, registry, result) -> None:
    """Shared run/serve epilogue: breakdown table + span/metric dumps."""
    from repro.experiments.report import BREAKDOWN_HEADERS, latency_breakdown_rows

    print()
    print(format_table(
        BREAKDOWN_HEADERS,
        latency_breakdown_rows({args.policy: result}),
        title="mean latency breakdown:",
    ))
    if tracer is not None and args.trace_out:
        from repro.obs.export import write_spans_jsonl

        write_spans_jsonl(tracer.spans, args.trace_out)
        dropped = f" ({tracer.dropped} dropped by sampling)" \
            if tracer.dropped else ""
        print(f"spans: {len(tracer.spans)} written to {args.trace_out}"
              f"{dropped}")
    if args.metrics_out:
        from repro.obs.export import write_metrics_text

        write_metrics_text(registry, args.metrics_out)
        print(f"metrics: {args.metrics_out}")


#: The flag behind each scenario member a sharded plane refuses.
_REFUSED_FLAGS = {"diverge_after": "--diverge-at", "tracer": "--trace-out"}


class UsageError(SystemExit):
    """A command line that describes no runnable run: exit status 2, as
    for argparse's own usage errors, with the one-line message (its
    ``str``) on stderr — :func:`main` prints it."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.code = 2


def _usage_error(args, exc: ValueError) -> UsageError:
    """A scenario that cannot be built or run as asked is a usage error;
    a member the sharded plane refuses is named by its flag."""
    flag = _REFUSED_FLAGS.get(getattr(exc, "member", None))
    if flag:
        exc = f"{flag} is not supported with --shards > 1"
    return UsageError(f"{args.command}: {exc}")


def _scenario(args, policy: Optional[str] = None, seed: Optional[int] = None,
              **overrides) -> Scenario:
    """The one ``args → Scenario`` function: every flag that describes
    the run — workload, guardrails, faults, shards, live options — is
    read here and nowhere else (a command that lacks a flag gets its
    default).  Only knobs that were actually set become overrides, so
    default runs keep the exact base policy config (and its cache keys).
    Whatever the scenario's plane cannot enact or honour, and any
    override ``RMConfig`` does not admit, exits with a usage error."""
    flag = vars(args).get

    def ms(seconds: Optional[float]) -> Optional[float]:
        return None if seconds is None else seconds * 1000.0

    if flag("mape_threshold") is not None:
        overrides["mape_threshold"] = args.mape_threshold
        overrides["fallback_hysteresis"] = args.fallback_hysteresis
    if flag("max_surge"):
        overrides["max_surge"] = args.max_surge
    if flag("spawn_retries"):
        overrides["spawn_retry_attempts"] = args.spawn_retries
    if flag("scale_down_cooldown"):
        overrides["scale_down_cooldown_ms"] = ms(args.scale_down_cooldown)
    faults, live = {}, None
    if flag("diverge_at") is not None:
        faults["diverge_after"] = args.diverge_at
        faults["diverge_factor"] = args.diverge_factor
    if flag("faults"):
        faults["timeline"] = args.faults
    if flag("crash_prob"):
        faults["crash_probability"] = args.crash_prob
    if flag("hang_prob"):
        faults["hang_probability"] = args.hang_prob
    try:
        if args.command == "serve":
            from repro.serve import RetryPolicy, ServeOptions

            live = ServeOptions(
                time_scale=args.time_scale,
                max_pending=args.max_pending,
                executor_workers=args.executor_workers,
                retry=RetryPolicy(
                    max_attempts=args.max_retries + 1,
                    deadline_grace_ms=args.retry_deadline_grace),
                journal_dir=args.journal_dir,
                checkpoint_interval_ms=ms(args.checkpoint_interval),
                drain_grace_ms=ms(args.drain_grace),
            )
        scenario = Scenario.make(
            policy or args.policy, mix=args.mix, trace_kind=args.trace,
            rate_rps=args.rate, duration_s=args.duration, nodes=args.nodes,
            seed=args.seed if seed is None else seed,
            engine=flag("engine"), faults=tuple(faults.items()),
            shed_expired=flag("shed_expired", False),
            drain_ms=ms(flag("drain_timeout", 120.0)), live=live,
            shards=Shards(
                n=flag("shards", 1), workers=flag("shard_workers", 1),
                rebalance_interval_ms=ms(flag("rebalance_interval")),
                stage_routing=flag("stage_routing", "local"),
                heartbeat_interval_ms=ms(flag("heartbeat_interval", 1.0))),
            **overrides)
        scenario.config()
        # Before any banner or training: --trace-out means a tracer.
        scenario.refuse(tracer=flag("trace_out"))
    except ValueError as exc:
        raise _usage_error(args, exc)
    return scenario


def _run(args, scenario: Scenario, tracer=None):
    """Run *scenario*; what it refuses when run is a usage error too."""
    try:
        return scenario.run(tracer=tracer)
    except ValueError as exc:
        raise _usage_error(args, exc)


def _print_guard_counters(result) -> None:
    """One line of guarded-control-plane counters when any fired."""
    fired = (
        result.predictor_fallbacks or result.fallback_ticks
        or result.spawn_retries or result.surge_clamped
        or result.nodes_killed or result.stage_sheds or result.tick_errors
    )
    if not fired:
        return
    print(f"\nguard events: fallbacks={result.predictor_fallbacks} "
          f"(ticks={result.fallback_ticks}, "
          f"recoveries={result.predictor_recoveries})  "
          f"surge clamped={result.surge_clamped}  "
          f"spawn retries={result.spawn_retries} "
          f"(exhausted={result.spawn_retries_exhausted})  "
          f"nodes killed={result.nodes_killed}/"
          f"recovered={result.nodes_recovered}  "
          f"stage sheds={result.stage_sheds}  "
          f"tick errors={result.tick_errors}")


def _runner_from_args(args):
    from repro.experiments.runner import ExperimentRunner

    return ExperimentRunner(
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )


def _cache_note(runner) -> str:
    if runner.cache_dir is None:
        return ""
    return (f"  [cache: {runner.cache_hits} hit(s), "
            f"{runner.cache_misses} executed]")


def _run_batch(args) -> int:
    """run/simulate through the experiment runner (repeats, workers,
    disk cache); prints one summary row per trial plus the aggregate."""
    from repro.experiments.repeats import DEFAULT_METRICS, aggregate_summaries
    from repro.experiments.runner import derive_seeds

    if args.trace_out or args.metrics_out:
        print("note: --trace-out/--metrics-out are ignored with "
              "--repeats/--workers/--cache-dir (trials may run in other "
              "processes or come from cache)", file=sys.stderr)
    seeds = (derive_seeds(args.seed, args.repeats) if args.repeats > 1
             else [args.seed])
    specs = [_scenario(args, seed=seed) for seed in seeds]
    runner = _runner_from_args(args)
    results = runner.run(specs)
    rows = [
        (r.spec.seed, *_summary_cells(r.summary),
         "cache" if r.from_cache else f"{r.wall_s:.1f}s")
        for r in results
    ]
    print(format_table(
        ["seed", *_SUMMARY_HEADERS, "source"],
        rows,
        title=f"{args.policy} on {args.mix} mix / {args.trace} trace "
              f"x{len(results)}{_cache_note(runner)}",
    ))
    if len(results) > 1:
        stats = aggregate_summaries(
            [r.summary for r in results], DEFAULT_METRICS
        )
        print()
        print(format_table(
            ["metric", "mean", "std", "min", "max"],
            [(m, f"{s.mean:.3f}", f"{s.std:.3f}", f"{s.min:.3f}",
              f"{s.max:.3f}") for m, s in stats.items()],
            title=f"aggregate over {len(results)} seeds:",
        ))
    return 0


def _print_sharded(policy: str, result) -> None:
    """Render a ShardedRunResult: per-shard rows + plane aggregate."""
    s = result.summary()
    rows = [
        (
            f"shard {sid}",
            r.n_jobs,
            r.n_completed,
            r.shed_jobs,
            f"{r.p99_latency_ms:.0f}",
        )
        for sid, r in sorted(result.per_shard.items())
    ]
    rows.append((
        "plane", result.n_jobs, result.n_completed, result.shed_jobs,
        f"{s['p99_latency_ms']:.0f}",
    ))
    print(format_table(
        ["shard", "jobs", "completed", "shed", "P99(ms)"], rows,
        title=f"{policy} x{result.n_shards} shards "
              f"({result.mode} plane, "
              f"SLO viol {s['slo_violation_rate']:.3%})",
    ))
    orch = result.orchestration
    if orch.get("ticks"):
        print(f"orchestrator: {orch['ticks']} ticks, "
              f"{orch['rebalances']} rebalances, "
              f"{orch['nodes_moved']} nodes moved, "
              f"final skew {orch.get('final_skew', 0.0):.2f}")


def _run_sharded(args: argparse.Namespace) -> int:
    # The runner and the metrics file have no sharded form: a flag (→ its
    # default) that would silently do nothing is a usage error.  What
    # the *scenario* cannot honour sharded it refuses itself.
    for flag, default in {"--repeats": 1, "--workers": 1,
                          "--cache-dir": None, "--metrics-out": None}.items():
        if getattr(args, flag[2:].replace("-", "_")) != default:
            raise UsageError(
                f"{args.command}: {flag} is not supported with --shards > 1")
    scenario = _scenario(args)
    result = _run(args, scenario, tracer=_make_tracer(args))
    _print_sharded(args.policy, result)
    orch = result.orchestration
    if scenario.timeline.of("kill-shard", "recover-shard"):
        journal = orch.get("journal") or {}
        print(f"failover: {orch.get('failovers', 0)} declarations, "
              f"{orch.get('shard_recoveries', 0)} recoveries, "
              f"journal "
              f"{'conserved' if journal.get('conserved') else 'VIOLATED'}"
              f" ({journal.get('jobs_admitted', 0)} admitted)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.shards > 1:
        return _run_sharded(args)
    if args.repeats > 1 or args.workers > 1 or args.cache_dir:
        return _run_batch(args)
    scenario = _scenario(args)
    tracer = _make_tracer(args)
    system = scenario.system(tracer)
    result = system.run(scenario.arrivals())
    print(format_table(
        _RESULT_HEADERS, [_result_row(args.policy, result)],
        title=f"{args.policy} on {args.mix} mix / {args.trace} trace "
              f"({result.n_jobs} jobs)",
    ))
    _print_guard_counters(result)
    _emit_obs(args, tracer, system.registry, result)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a trace live: real asyncio gateway, workers, control loop."""
    scenario = _scenario(args)
    tracer = _make_tracer(args)
    trace = scenario.arrivals()
    print(f"serving {trace.name} live for {args.duration:g}s "
          f"(time scale {args.time_scale:g}x) ...")
    runtime = scenario.runtime(tracer)
    result = runtime.run(trace)
    print(format_table(
        _RESULT_HEADERS, [_result_row(args.policy, result)],
        title=f"live {args.policy} on {args.mix} mix / {args.trace} trace "
              f"({result.n_jobs} jobs)",
    ))
    print(f"\npeak containers: {result.peak_containers}  "
          f"shed: {runtime.shed_jobs}  "
          f"drained: {'yes' if runtime.drain_completed else 'timed out'}")
    if args.journal_dir:
        print(f"durability: {result.journal_appends} journal appends  "
              f"recoveries: {result.recoveries}  "
              f"requeued: {result.jobs_requeued_on_recovery}  "
              f"deduped: {result.jobs_deduped_on_recovery}"
              + ("  (interrupted)" if runtime.interrupted else ""))
    resilient = (
        result.n_failed or result.task_retries or result.container_crashes
        or result.task_timeouts or result.dead_lettered or result.tick_errors
        or result.degraded_spawns
    )
    if resilient:
        from repro.experiments.report import RESILIENCE_HEADERS, resilience_rows

        print()
        print(format_table(
            RESILIENCE_HEADERS,
            resilience_rows({args.policy: result}),
            title="resilience counters:",
        ))
    _print_guard_counters(result)
    _emit_obs(args, tracer, runtime.registry, result)
    if args.json_out:
        from repro.experiments.export import export_json_summary

        path = export_json_summary(
            {args.policy: result},
            args.json_out,
            extras={args.policy: {
                "mode": "live",
                "time_scale": args.time_scale,
                "shed_jobs": runtime.shed_jobs,
                "shed_deadline": runtime.gateway.shed_deadline,
                "backpressure_sheds": runtime.gateway.backpressure_sheds,
                "drain_completed": runtime.drain_completed,
                "interrupted": runtime.interrupted,
                "in_flight": runtime.gateway.in_flight,
                "duplicate_completions": runtime.gateway.duplicate_completions,
                "stale_signals": runtime.gateway.stale_signals,
                "workers_killed": (
                    runtime.chaos.workers_killed if runtime.chaos else 0
                ),
                "recoveries": result.recoveries,
                "jobs_requeued_on_recovery": result.jobs_requeued_on_recovery,
                "jobs_deduped_on_recovery": result.jobs_deduped_on_recovery,
                "journal_appends": result.journal_appends,
            }},
        )
        print(f"JSON summary: {path}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    results = {policy: _scenario(args, policy=policy).run()
               for policy in args.policies}
    rows = [_result_row(p, r) for p, r in results.items()]
    print(format_table(
        _RESULT_HEADERS, rows,
        title=f"{args.mix} mix / {args.trace} trace",
    ))
    if "bline" in results:
        norm = normalize(
            {p: r.avg_containers for p, r in results.items()}, "bline"
        )
        print("\ncontainers vs bline: "
              + "  ".join(f"{p}={v:.2f}x" for p, v in norm.items()))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Sweep one RMConfig knob via the parallel cached runner."""
    specs = [_scenario(args, **{args.field: value}) for value in args.values]
    curves = dict(zip(
        args.values, _runner_from_args(args).run_summaries(specs)))
    print(format_table(
        [args.field, *_SUMMARY_HEADERS],
        [(value, *_summary_cells(s)) for value, s in curves.items()],
        title=f"{args.policy}: sweep {args.field} on {args.mix} mix / "
              f"{args.trace} trace (seed {args.seed})",
    ))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    from repro.prediction import default_predictors, evaluate_all, windowed_max_series

    # The arrivals ``run fifer`` would replay under the same flags.
    series = windowed_max_series(_scenario(args, policy="fifer").arrivals())
    reports = evaluate_all(default_predictors(seed=args.seed), series)
    rows = [
        (r.name, f"{r.rmse:.1f}", f"{r.mae:.1f}",
         f"{r.mean_latency_ms:.2f}", f"{r.accuracy:.0%}")
        for r in sorted(reports, key=lambda r: r.rmse)
    ]
    print(format_table(
        ["model", "RMSE", "MAE", "latency(ms)", "acc@20%"], rows,
        title=f"forecasters on {args.trace} ({len(series)} intervals)",
    ))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """Run a policy comparison, print ASCII figures, export CSV data."""
    from repro.experiments.export import export_all
    from repro.metrics.ascii_plot import bar_chart, cdf_plot, sparkline

    results = {policy: _scenario(args, policy=policy).run()
               for policy in args.policies}

    print(bar_chart(
        {p: r.avg_containers for p, r in results.items()},
        title=f"average containers ({args.mix} mix / {args.trace}):",
    ))
    print()
    print(bar_chart(
        {p: r.slo_violation_rate * 100 for p, r in results.items()},
        unit="%", title="SLO violation rate:",
    ))
    print()
    print(cdf_plot(
        {p: r.latencies_ms for p, r in results.items()},
        title="response-latency CDF (to P99):",
    ))
    for policy, r in results.items():
        series = r.cumulative_spawn_series()
        print(f"\ncumulative spawns {policy:8s} {sparkline(series)}")

    paths = export_all(results, args.out, prefix=f"{args.mix}_{args.trace}")
    print("\nCSV exports:")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Generate the full markdown experiment report."""
    from repro.experiments.summary import ReportScale, generate_report

    scale = ReportScale.full() if args.full else ReportScale.quick()
    report = generate_report(scale=scale, include_traces=not args.no_traces)
    if args.out:
        import pathlib
        pathlib.Path(args.out).write_text(report)
        print(f"report written to {args.out}")
    else:
        print(report)
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    from repro.experiments import table4_rows, table6_rows
    from repro.experiments.features import FEATURES

    svc_rows = [
        (s.name, s.description, s.model, f"{s.mean_exec_ms:g}")
        for s in MICROSERVICES.values()
    ]
    print(format_table(
        ["function", "service", "model", "exec(ms)"], svc_rows,
        title="Table 3: microservices",
    ))
    print()
    print(format_table(
        ["application", "chain", "slack(ms)"], table4_rows(),
        title="Table 4: chains and slack",
    ))
    print()
    mix_rows = [
        (m.name, ", ".join(a.name for a in m.applications),
         f"{m.avg_slack_ms:.0f}")
        for m in WORKLOAD_MIXES.values()
    ]
    print(format_table(
        ["mix", "applications", "avg slack(ms)"], mix_rows,
        title="Table 5: workload mixes",
    ))
    print()
    print(format_table(
        ["framework", *(f.split()[0] for f in FEATURES)], table6_rows(),
        title="Table 6: features",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fifer reproduction (Middleware 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--mix", choices=sorted(WORKLOAD_MIXES), default="heavy")
        p.add_argument("--trace", choices=TRACE_KINDS, default="step-poisson")
        p.add_argument("--rate", type=float, default=50.0,
                       help="average arrival rate, req/s")
        p.add_argument("--duration", type=float, default=300.0,
                       help="trace length, seconds")
        p.add_argument("--seed", type=int, default=5)
        p.add_argument("--nodes", type=int, default=5,
                       help="worker nodes (16 cores each)")

    def add_obs(p):
        p.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write request spans as JSONL here")
        p.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write a Prometheus text-format metrics "
                            "snapshot here")
        p.add_argument("--trace-sample", type=float, default=1.0,
                       metavar="RATE",
                       help="fraction of traces to keep (head sampling "
                            "by trace id; a trace is kept whole or "
                            "dropped whole)")

    def add_guardrails(p):
        g = p.add_argument_group("guarded control plane")
        g.add_argument("--mape-threshold", type=float, default=None,
                       metavar="FRAC",
                       help="forecast-health guard: degrade the proactive "
                            "tier to reactive-only once the sliding-window "
                            "MAPE exceeds this fraction (e.g. 0.5); off by "
                            "default")
        g.add_argument("--fallback-hysteresis", type=int, default=2,
                       metavar="N",
                       help="consecutive healthy/unhealthy evaluations "
                            "required before the guard switches state "
                            "(suppresses flapping)")
        g.add_argument("--max-surge", type=int, default=0, metavar="N",
                       help="scaling guardrail: cap containers spawned per "
                            "monitor tick across all pools (0 = unlimited)")
        g.add_argument("--spawn-retries", type=int, default=0, metavar="N",
                       help="retry spawn shortfalls (cluster full, surge "
                            "budget) up to N times with jittered backoff "
                            "instead of silently dropping the decision")
        g.add_argument("--scale-down-cooldown", type=float, default=0.0,
                       metavar="SECONDS",
                       help="suppress idle reaping for this long after any "
                            "governed scale-up (0 = no cooldown)")
        g.add_argument("--shed-expired", action="store_true",
                       help="slack-aware admission control: shed arrivals "
                            "whose residual slack is already negative given "
                            "the first stage's queueing delay (the simulator "
                            "also sheds such stage hops while no capacity "
                            "is free)")
        g.add_argument("--faults", default=None, metavar="SPEC",
                       help="chaos: the run's scripted fault timeline, "
                            "';'-separated KIND@START[:END][=IDS][xFACTOR] "
                            "in model seconds, e.g. 'kill-node@30=0,1;"
                            "recover-node@60=0,1', 'blackout@20:35', "
                            "'brownout@3:8x2;kill-workers@5'.  A kind this "
                            "command cannot enact is refused before the "
                            "run starts (DESIGN.md, 'Fault timeline')")

    def add_parallel(p):
        p.add_argument("--workers", type=int, default=1,
                       help="trial-level worker processes (1 = in-process "
                            "serial; results are identical either way)")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="disk cache for finished trials; re-runs and "
                            "resumed sweeps skip completed configurations")
        p.add_argument("--no-cache", action="store_true",
                       help="ignore cached trial results (fresh results "
                            "are still written to --cache-dir)")

    run_p = sub.add_parser("run", aliases=["simulate"],
                           help="simulate one policy")
    run_p.add_argument("policy", choices=EXTENDED_POLICY_NAMES)
    add_common(run_p)
    add_obs(run_p)
    add_parallel(run_p)
    add_guardrails(run_p)
    run_p.add_argument("--engine", choices=list(ENGINES), default=None,
                       help="simulation engine: 'fast' (the event "
                            "loop: stream cursor + coalesced ticks, "
                            "the default) or 'vector' "
                            "(flat-array batch engine; bit-identical "
                            "results, several times faster on large "
                            "traces)")
    run_p.add_argument("--repeats", type=int, default=1,
                       help="repeat across this many seeds derived from "
                            "--seed (SeedSequence.spawn) and aggregate")
    run_p.add_argument("--diverge-at", type=int, default=None,
                       metavar="TICKS",
                       help="chaos: corrupt the proactive predictor's "
                            "forecasts after this many monitor ticks "
                            "(pair with --mape-threshold to exercise the "
                            "fallback)")
    run_p.add_argument("--diverge-factor", type=float, default=25.0,
                       help="forecast inflation factor once diverged")
    shard_g = run_p.add_argument_group("sharded plane")
    shard_g.add_argument("--shards", type=int, default=1, metavar="N",
                         help="gateway shards over a consistent-hash split "
                              "of the request ids; 1 (default) is the "
                              "exact single-gateway path")
    shard_g.add_argument("--shard-workers", type=int, default=1,
                         metavar="N",
                         help="OS processes for the shards (static "
                              "partition, no online rebalance); 1 keeps "
                              "the orchestrated in-process plane")
    shard_g.add_argument("--rebalance-interval", type=float, default=None,
                         metavar="S",
                         help="model seconds between orchestrator "
                              "reconciliations (default: the monitor "
                              "interval)")
    shard_g.add_argument("--heartbeat-interval", type=float, default=1.0,
                         metavar="S",
                         help="model seconds between shard liveness beats "
                              "for the in-run failover health monitor "
                              "(with kill-shard faults)")
    shard_g.add_argument("--stage-routing", choices=["local", "hash"],
                         default="local",
                         help="'local' keeps a job's whole chain on its "
                              "home shard; 'hash' re-routes every stage "
                              "hop through the ring (event-loop engine "
                              "only)")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser(
        "sweep", help="sweep one RMConfig knob (parallel, cached)"
    )
    sweep_p.add_argument("policy", choices=EXTENDED_POLICY_NAMES)
    sweep_p.add_argument("--field", required=True,
                         help="RMConfig field to sweep "
                              "(e.g. max_batch, idle_timeout_ms)")
    sweep_p.add_argument("--values", nargs="+", required=True,
                         help="values to sweep over")
    add_common(sweep_p)
    add_parallel(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    serve_p = sub.add_parser(
        "serve", help="serve a trace live on the wall clock"
    )
    serve_p.add_argument("--policy", choices=EXTENDED_POLICY_NAMES,
                         default="fifer")
    add_common(serve_p)
    serve_p.set_defaults(duration=10.0, rate=20.0)
    serve_p.add_argument("--time-scale", type=float, default=1.0,
                         help="wall seconds per model second "
                              "(0.1 = 10x compressed)")
    serve_p.add_argument("--max-inflight", "--max-pending",
                         dest="max_pending", type=int, default=0,
                         help="backpressure: shed arrivals beyond this many "
                              "in-flight jobs (0 = unbounded; counted in "
                              "gateway_backpressure_sheds_total)")
    serve_p.add_argument("--drain-timeout", type=float, default=120.0,
                         help="graceful-drain bound after the trace ends, "
                              "model seconds")
    serve_p.add_argument("--executor-workers", type=int, default=0,
                         help="work-lane threads (0 = size to the "
                              "cluster)")
    serve_p.add_argument("--json-out", default=None,
                         help="write a structured JSON run summary here")
    serve_p.add_argument("--crash-prob", type=float, default=0.0,
                         help="chaos: per-task worker-crash probability")
    serve_p.add_argument("--hang-prob", type=float, default=0.0,
                         help="chaos: per-task hang probability (recovered "
                              "by the execution timeout)")
    serve_p.add_argument("--max-retries", type=int, default=2,
                         help="retries per failed task before "
                              "dead-lettering; a retry re-enters its "
                              "stage queue at once")
    serve_p.add_argument("--retry-deadline-grace", type=float, default=None,
                         metavar="MS",
                         help="deadline budget: dead-letter a failed task "
                              "instead of retrying it once its residual "
                              "slack plus this grace is negative "
                              "(default: no deadline check)")
    d = serve_p.add_argument_group("durability / crash recovery")
    d.add_argument("--journal-dir", default=None, metavar="DIR",
                   help="durability on: write-ahead request journal + "
                        "control-plane checkpoints in DIR (off by default; "
                        "defaults keep the exact pre-durability behaviour)")
    d.add_argument("--checkpoint-interval", type=float, default=30.0,
                   metavar="SECONDS",
                   help="model seconds between control-plane checkpoints "
                        "(with --journal-dir)")
    d.add_argument("--drain-grace", type=float, default=None,
                   metavar="SECONDS",
                   help="drain budget on SIGTERM/SIGINT before the final "
                        "checkpoint + journal flush (default: "
                        "--drain-timeout)")
    add_guardrails(serve_p)
    add_obs(serve_p)
    serve_p.set_defaults(func=cmd_serve)

    cmp_p = sub.add_parser("compare", help="compare policies side by side")
    cmp_p.add_argument("--policies", nargs="+",
                       default=list(EXTENDED_POLICY_NAMES[:5]),
                       choices=EXTENDED_POLICY_NAMES)
    add_common(cmp_p)
    cmp_p.set_defaults(func=cmd_compare)

    pred_p = sub.add_parser("predict", help="score the eight forecasters")
    add_common(pred_p)
    pred_p.set_defaults(func=cmd_predict)

    fig_p = sub.add_parser(
        "figures", help="ASCII figures + CSV export for a comparison"
    )
    fig_p.add_argument("--policies", nargs="+",
                       default=["bline", "rscale", "bpred"],
                       choices=EXTENDED_POLICY_NAMES)
    fig_p.add_argument("--out", default="figures_out",
                       help="directory for CSV exports")
    add_common(fig_p)
    fig_p.set_defaults(func=cmd_figures)

    tab_p = sub.add_parser("tables", help="print the static paper tables")
    tab_p.set_defaults(func=cmd_tables)

    rep_p = sub.add_parser(
        "report", help="run the evaluation and emit a markdown report"
    )
    rep_p.add_argument("--full", action="store_true",
                       help="bench-scale runs instead of the quick pass")
    rep_p.add_argument("--no-traces", action="store_true",
                       help="skip the wiki/wits replays")
    rep_p.add_argument("--out", default=None, help="write to a file")
    rep_p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
