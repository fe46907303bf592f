"""The ledger: one benchmark for the simulator and the live plane.

Usage (from the repository root)::

    python3 benchmarks/ledger/run.py                      # all workloads
    python3 benchmarks/ledger/run.py --workload live-admit --seed 3
    python3 benchmarks/ledger/run.py --workload sim-vector-wiki --trace 1
    python3 benchmarks/ledger/run.py --smoke              # < 20 s, all four

Each workload runs in its own subprocess under a watchdog.  Every
metric is printed by name with its unit; the last line of standard
output for each workload is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` names.  The exit code is
non-zero when a check fails, a workload crashes or times out.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

PROCESS_STARTED = time.perf_counter()

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Contract: a run ends within 180 s; the watchdog leaves a margin.
RUN_DEADLINE_S = 170.0
#: Cold set-ups timed per untraced run (``setup_s`` is their median).
SETUP_REPS = 3
#: ``setup_s`` is in reference seconds: each cold set-up's wall time
#: over its own ``SpeedProbe.slowdown_mixed`` to this power.  The
#: simulator's set-up is CPU-bound (imports, the LSTM fit, trace
#: generation, a warm-up pass); half of the live set-up is waiting (a
#: quarter-second warm-up serve, thread start-up).  Over two sets of ten
#: runs on a host whose slowdown ranged 1.1-3.0 the raw set-up time
#: spread 10-39 %, the normalised one 3-8 %.
SETUP_ELASTICITY = {"sim": 1.0, "live": 0.5}
#: BLAS/OpenMP pools would otherwise start a thread per core for the
#: LSTM's small matmuls; the load must never use more threads than the
#: workload defines.  Set before numpy is imported anywhere.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
}


def load_spec() -> dict:
    with SPEC_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# child: one workload, in this process
# ----------------------------------------------------------------------

def child_main(args: argparse.Namespace) -> int:
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from spans import SpanRecorder, self_time_coverage

    recorder = SpanRecorder(f"{args.workload}-seed{args.seed}")
    with recorder.span("workload"):
        with recorder.span("setup"):
            with recorder.span("import"):
                import host
            host.pin_to_one_cpu()
            with host.SpeedProbe() as probe:
                probe_started = time.perf_counter()
                with recorder.span("import"):
                    import workloads
                fingerprint = host.fingerprint(OUT_DIR)
                run = workloads.make_run(
                    args.workload, recorder=recorder, seed=args.seed,
                    seconds=args.seconds, scale=args.scale,
                    trace=bool(args.trace), out_dir=OUT_DIR,
                    tamper_journal=args.tamper_journal)
                run.setup()
        # Everything before the timed section, from process start.
        setup_ended = time.perf_counter()
        setup = {
            "setup_s": setup_ended - PROCESS_STARTED,
            "slowdown_mixed": probe.slowdown_mixed(probe_started, setup_ended),
            "probe_s": probe.spent_s(probe_started, setup_ended),
        }
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        run.measure()
        if run.trace:
            run.trace_sections()
            run.probe_layers()
    # The process's own life, not the root span's: the spans must
    # account for (nearly) all of it.
    wall_s = time.perf_counter() - PROCESS_STARTED
    result = run.result()
    result.update(setup)
    result["host"] = fingerprint
    if run.trace:
        result["info"]["span_self_time_coverage"] = self_time_coverage(
            recorder.finished(), wall_s)
        recorder.write(OUT_DIR / f"trace-{args.workload}.jsonl")
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# parent: watchdog, set-up repetitions, report
# ----------------------------------------------------------------------

def _spawn(args: argparse.Namespace, workload: str, timeout_s: float,
           setup_only: bool = False) -> dict:
    """Run one child to completion; never leaves it running."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scale", str(args.scale),
        "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    if args.tamper_journal:
        command.append("--tamper-journal")
    env = dict(os.environ, **THREAD_PINS)
    try:
        # subprocess.run kills the child and waits for it on timeout.
        done = subprocess.run(
            command, stdout=subprocess.PIPE, env=env, cwd=str(ROOT),
            timeout=max(1.0, timeout_s), text=True)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout_s:.0f} s"}
    if done.returncode != 0:
        return {"error": f"exited with code {done.returncode}"}
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": "printed no result"}


def _expected_s(plane: str, args: argparse.Namespace) -> float:
    """Rough wall time of one full child; the watchdog allows 4x."""
    setup = 6.0 if plane == "sim" else 3.0
    if args.trace:
        return setup + 3.0 * args.seconds + 45.0
    return setup + 1.3 * args.seconds + 8.0


def run_workload(args: argparse.Namespace, workload: dict, spec: dict) -> dict:
    """All children of one workload -> the contract's result object."""
    started = time.perf_counter()
    name = workload["name"]
    plane = "sim" if name.startswith("sim-") else "live"

    def remaining() -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - started)

    budget = 4.0 * _expected_s(plane, args)
    setups = []
    reps = 1 if (args.trace or args.smoke) else SETUP_REPS
    for _ in range(reps - 1):
        probe = _spawn(args, name, min(budget, remaining()), setup_only=True)
        if "setup_s" in probe:
            setups.append(probe)
    child = _spawn(args, name, min(budget, remaining()))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if "error" in child:
        # A crash or a hang fails every operation of the workload; it
        # must not hang or crash the caller.
        print(f"== {name}: FAILED ({child['error']})")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    setups.append({key: child[key] for key in (
        "setup_s", "slowdown_mixed", "probe_s")})
    values = dict(child["per_layer"] if args.trace else child["end_to_end"])
    if not args.trace:
        values["setup_s"] = statistics.median(
            (s["setup_s"] - s["probe_s"])
            / s["slowdown_mixed"] ** SETUP_ELASTICITY[plane] for s in setups)
        values["peak_rss_mb"] = child["peak_rss_mb"]
    metrics = {}
    for metric in wanted:
        # A layer the workload bypasses did no work: it reads zero.
        value = values.get(metric["name"], 0.0 if args.trace else None)
        if value is None:
            child["checks"][f"metric_present.{metric['name']}"] = False
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    correct = all(child["checks"].values())
    _report(args, name, child, setups, metrics, correct)
    return {
        "correct": correct,
        "attempted": int(child["attempted"]),
        "failed": int(child["failed"]),
        "metrics": metrics,
    }


def _report(args, name, child, setups, metrics, correct) -> None:
    host = child["host"]
    print(f"== {name}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}" + ("  [smoke]" if args.smoke else ""))
    print("host: " + "  ".join(f"{k}={v}" for k, v in host.items()))
    print("per-layer (traced run)" if args.trace else "end-to-end")
    for metric_name, metric in metrics.items():
        print(f"  {metric_name:<42} {metric['value']:>16.6g} {metric['unit']}")
    if not args.trace:
        print("  info setups: " + json.dumps(
            [{k: round(v, 4) for k, v in s.items()} for s in setups]))
    print("checks: " + "  ".join(
        f"{k}={'ok' if v else 'FAILED'}" for k, v in child["checks"].items()))
    for key, value in child["info"].items():
        print(f"  info {key}: {json.dumps(value)}")
    print(f"  operations: {child['attempted']} attempted, "
          f"{child['failed']} failed -> "
          + ("correct" if correct else "NOT CORRECT"))


def parent_main(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"the program is not here: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        print(f"unknown workload {args.workload!r}; known: {known}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.smoke:
        args.seconds, args.scale = 1.0, 0.05
    OUT_DIR.mkdir(exist_ok=True)
    all_correct = True
    for workload in spec["workloads"]:
        if args.workload not in (None, workload["name"]):
            continue
        result = run_workload(args, workload, spec)
        all_correct = all_correct and result["correct"]
        sys.stdout.flush()
        print(json.dumps(result), flush=True)
    return 0 if all_correct else 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload by name (default: all four)")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed the inputs are generated from")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed section "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at ~1/20 size")
    # Test hook: corrupt the journal between serving and recovery, so
    # test_ledger.py can see a failed check fail the run.
    parser.add_argument("--tamper-journal", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return child_main(args) if args.child else parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
