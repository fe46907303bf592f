"""Tests of the benchmark itself; run explicitly (about two minutes):

    python3 -m pytest benchmarks/ledger/test_ledger.py

``testpaths`` stays ``tests``, so the tier-1 suite never collects this.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def ledger(*args):
    """Run run.py; returns (exit code, stdout, {workload: result})."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=str(ROOT), timeout=600)
    results, current = {}, None
    for line in done.stdout.splitlines():
        if line.startswith("== "):
            current = line.split()[1].rstrip(":")
        elif line.startswith("{") and current is not None:
            results[current] = json.loads(line)
    return done.returncode, done.stdout, results


def digests(stdout):
    return re.findall(r'info summary_sha256: "([0-9a-f]{64})"', stdout)


@pytest.fixture(scope="module")
def smoke():
    return ledger("--smoke", "--seed", "7")


@pytest.fixture(scope="module")
def smoke_traced():
    return ledger("--smoke", "--seed", "7", "--trace", "1")


def test_spec_names_and_units_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_metric_of_every_workload_is_printed_with_its_unit(
        kind, smoke, smoke_traced):
    code, stdout, results = smoke if kind == "end_to_end" else smoke_traced
    assert code == 0, stdout
    assert list(results) == [w["name"] for w in SPEC["workloads"]]
    for workload, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
        for metric in SPEC[kind]:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
            # ...and in the human-readable table, name then value then unit.
            assert re.search(
                rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$",
                stdout, re.MULTILINE), (workload, metric["name"])
        if kind == "end_to_end":
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_bypassed_layers_read_zero(smoke_traced):
    _, _, results = smoke_traced

    def value(workload, name):
        return results[workload]["metrics"][name]["value"]

    assert value("live-admit", "serve.journal.appends_per_req") == 0
    assert value("live-admit", "obs.trace.spans_per_job") == 0
    assert value("live-durable", "serve.journal.appends_per_req") > 0
    assert value("live-durable", "obs.trace.spans_per_job") > 0
    # The vector engine borrows FlatClock and resolve_engine from
    # sim/engine.py: a handful of calls, parts per million of the run.
    assert value("sim-vector-wiki", "sim.engine.self_share") < 1e-4
    assert value("sim-vector-wiki", "workflow.pool.self_share") == 0
    assert value("sim-vector-wiki", "runtime.vector.self_share") > 0
    assert value("sim-eventloop-wits", "runtime.vector.self_share") == 0
    assert value("sim-eventloop-wits", "sim.engine.self_share") > 0


def test_traced_run_writes_spans_that_cover_the_run(smoke_traced):
    _, stdout, _ = smoke_traced
    coverage = [float(x) for x in re.findall(
        r"info span_self_time_coverage: ([0-9.]+)", stdout)]
    assert len(coverage) == len(SPEC["workloads"])
    assert all(abs(c - 1.0) <= 0.02 for c in coverage)
    for workload in SPEC["workloads"]:
        path = HERE / "out" / f"trace-{workload['name']}.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        names = {s["name"] for s in spans}
        assert {"workload", "setup", "traces.make", "profile"} <= names
        assert len({s["run"] for s in spans}) == 1
        assert all(s["self_s"] >= -1e-9 for s in spans)


def test_seed_changes_the_arrivals_and_repeats_the_digests(smoke):
    _, stdout, results = smoke
    _, again_stdout, again = ledger(
        "--smoke", "--seed", "7", "--workload", "sim-eventloop-wits")
    _, other_stdout, other = ledger(
        "--smoke", "--seed", "8", "--workload", "sim-eventloop-wits")
    assert digests(again_stdout)[0] == digests(stdout)[0]
    assert digests(other_stdout)[0] != digests(stdout)[0]
    assert (other["sim-eventloop-wits"]["attempted"]
            != results["sim-eventloop-wits"]["attempted"])


def test_a_failed_check_fails_the_run():
    code, stdout, results = ledger(
        "--smoke", "--workload", "live-durable", "--tamper-journal")
    assert code != 0
    assert results["live-durable"]["correct"] is False
    assert "journal_readable=FAILED" in stdout
