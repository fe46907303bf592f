"""A/A check: does the benchmark agree with itself?

Runs two interleaved sets (A1 B1 A2 B2 ...) of full untraced runs of
the *same* checkout, run ``i`` of both sets with seed ``i``, and prints
for every end-to-end metric x workload each set's median and quartiles,
the spread (interquartile distance over the median) and whether the two
sets agree within the bound ``BENCHMARK.json`` fixes: the second
median may not be worse than the first by more than the bound, and no
spread (``setup_s`` excepted) may exceed it.

Then two traced runs per workload with one seed must report identical
values for every exact-count metric.

    python3 benchmarks/ledger/aa_check.py --runs 10

Exit code 0 only if every cell agrees and every count repeats.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: Counts made by the program that must repeat exactly for one seed.
EXACT_COUNTS = {
    "sim-eventloop-wits": (
        "sim.engine.events_per_job", "workflow.pool.spawns",
        "py.calls_per_job"),
    "sim-vector-wiki": (
        "runtime.vector.events_per_job", "workflow.pool.spawns",
        "py.calls_per_job"),
    "live-admit": (
        "serve.journal.appends_per_req", "obs.trace.spans_per_job"),
    "live-durable": (
        "serve.journal.appends_per_req", "obs.trace.spans_per_job"),
}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        cwd=str(ROOT), text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["exit_code"] = done.returncode
    return result


def quartiles(values: List[float]):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(first: float, second: float, better: str) -> float:
    """Share of *first* by which *second* is worse (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set (>= 5)")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--skip-exact", action="store_true",
                        help="skip the traced exact-count runs")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or float(spec["run_seconds"])
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    started = time.time()

    values: Dict[tuple, List[float]] = {}
    incorrect = 0
    for i in range(1, args.runs + 1):
        for workload in workloads:
            for which in ("A", "B"):
                result = run_once(workload, i, seconds, trace=0)
                if not result["correct"] or result["failed"]:
                    incorrect += 1
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, name, which), []).append(
                        metric["value"])
                print(f"[{time.time() - started:6.0f} s] {which}{i} {workload} "
                      + " ".join(f"{n}={m['value']:.5g}"
                                 for n, m in result["metrics"].items()),
                      flush=True)

    disagreements = 0
    print(f"\n{'workload':<20}{'metric':<18}{'set':<4}{'q1':>11}"
          f"{'median':>11}{'q3':>11}{'spread':>8}   verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {w: quartiles(values[(workload, name, w)]) for w in "AB"}
            spread = {w: (q3 - q1) / med for w, (q1, med, q3) in stats.items()}
            drift = worse_by(stats["A"][1], stats["B"][1], metric["better"])
            steady = name == "setup_s" or max(spread.values()) <= bound
            agree = steady and drift <= bound
            disagreements += not agree
            for which in "AB":
                q1, med, q3 = stats[which]
                verdict = ""
                if which == "B":
                    verdict = (f"B worse by {drift:+.1%}, bound {bound:.0%}: "
                               + ("agree" if agree else "DISAGREE"))
                print(f"{workload:<20}{name:<18}{which:<4}{q1:>11.5g}"
                      f"{med:>11.5g}{q3:>11.5g}{spread[which]:>8.1%}   {verdict}")

    mismatches = 0
    if not args.skip_exact:
        print("\nexact counts, two traced runs with seed 1")
        for workload in workloads:
            first = run_once(workload, 1, seconds, trace=1)
            second = run_once(workload, 1, seconds, trace=1)
            for name in EXACT_COUNTS[workload]:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                mismatches += a != b
                print(f"{workload:<20}{name:<34}{a!r:>22}{b!r:>22}   "
                      + ("identical" if a == b else "DIFFERENT"))

    print(f"\n{incorrect} incorrect runs, {disagreements} cells disagree, "
          f"{mismatches} counts differ, {time.time() - started:.0f} s")
    return 1 if (incorrect or disagreements or mismatches) else 0


if __name__ == "__main__":
    sys.exit(main())
