"""Figure-data export: CSV series for external plotting.

The benches print text tables; this module writes the underlying data
series — latency CDFs, container/spawn timelines, queuing distributions,
per-policy summaries — as plain CSV so any plotting stack (matplotlib,
gnuplot, spreadsheets) can regenerate the paper's figures from a run.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
from typing import Dict, Sequence, Union

import numpy as np

from repro.metrics.collector import RunResult
from repro.metrics.stats import cdf_points
from repro.obs.export import atomic_write_text

PathLike = Union[str, pathlib.Path]


def atomic_write_json(path: PathLike, payload) -> pathlib.Path:
    """Atomically write *payload* as indented, key-sorted JSON."""
    return atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def _write_rows(path: PathLike, header: Sequence[str], rows) -> pathlib.Path:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return atomic_write_text(path, buffer.getvalue())


def export_summary(
    results: Dict[str, RunResult], path: PathLike
) -> pathlib.Path:
    """One row of headline metrics per policy (Figures 8/13 style)."""
    rows = []
    for policy, r in results.items():
        s = r.summary()
        rows.append([
            policy, r.mix, r.trace, int(s["jobs"]),
            f"{s['slo_violation_rate']:.6f}",
            f"{s['median_latency_ms']:.3f}",
            f"{s['p99_latency_ms']:.3f}",
            f"{s['avg_containers']:.3f}",
            int(s["cold_starts"]),
            f"{s['energy_joules']:.1f}",
            int(s["failed"]),
            int(s["task_retries"]),
            int(s["container_crashes"]),
            int(s["dead_lettered"]),
            int(s["shed_jobs"]),
        ])
    return _write_rows(
        path,
        ["policy", "mix", "trace", "jobs", "slo_violation_rate",
         "median_latency_ms", "p99_latency_ms", "avg_containers",
         "cold_starts", "energy_joules", "failed", "task_retries",
         "container_crashes", "dead_lettered", "shed_jobs"],
        rows,
    )


def summary_record(result: RunResult, **extra) -> Dict[str, object]:
    """One result as a flat JSON-ready record.

    Field-compatible with :func:`export_summary`'s CSV columns, plus the
    capacity metrics a live run is judged on (peak containers, failed
    spawns, completion counts).  ``extra`` keys (e.g. shed counts or
    wall-clock info from the serving runtime) are merged in.
    """
    s = result.summary()
    record: Dict[str, object] = {
        "policy": result.policy,
        "mix": result.mix,
        "trace": result.trace,
        "duration_ms": float(result.duration_ms),
        "jobs": int(s["jobs"]),
        "completed": int(s["completed"]),
        "slo_violation_rate": float(s["slo_violation_rate"]),
        "median_latency_ms": float(s["median_latency_ms"]),
        "p99_latency_ms": float(s["p99_latency_ms"]),
        "avg_containers": float(s["avg_containers"]),
        "peak_containers": int(result.peak_containers),
        "cold_starts": int(s["cold_starts"]),
        "failed_spawns": int(result.failed_spawns),
        "energy_joules": float(s["energy_joules"]),
        "mean_active_nodes": float(s["mean_active_nodes"]),
        # Resilience counters (supervised workers + retry layer).
        "failed": int(s["failed"]),
        "task_retries": int(s["task_retries"]),
        "container_crashes": int(s["container_crashes"]),
        "task_timeouts": int(s["task_timeouts"]),
        "dead_lettered": int(s["dead_lettered"]),
        "tick_errors": int(s["tick_errors"]),
        "degraded_spawns": int(s["degraded_spawns"]),
        "shed_jobs": int(s["shed_jobs"]),
    }
    record.update(extra)
    return record


def export_json_summary(
    results: Dict[str, RunResult],
    path: PathLike,
    extras: Union[Dict[str, Dict[str, object]], None] = None,
) -> pathlib.Path:
    """Write the per-policy summary records as a JSON document.

    The structured sibling of :func:`export_summary` for machine
    consumers (dashboards, CI trend lines).  ``extras`` maps a policy
    name to additional per-run fields to merge into its record.
    """
    extras = extras or {}
    payload = {
        "results": [
            summary_record(r, **extras.get(policy, {}))
            for policy, r in results.items()
        ]
    }
    return atomic_write_json(path, payload)


def export_latency_cdf(
    results: Dict[str, RunResult],
    path: PathLike,
    up_to_percentile: float = 95.0,
    points: int = 200,
) -> pathlib.Path:
    """Per-policy latency CDF samples (Figure 10a)."""
    rows = []
    for policy, r in results.items():
        values = cdf_points(r.latencies_ms, up_to_percentile)
        if values.size == 0:
            continue
        idx = np.linspace(0, values.size - 1, min(points, values.size))
        for i in idx.astype(int):
            fraction = (i + 1) / len(r.latencies_ms)
            rows.append([policy, f"{values[i]:.3f}", f"{fraction:.6f}"])
    return _write_rows(path, ["policy", "latency_ms", "cdf"], rows)


def export_container_timeline(
    results: Dict[str, RunResult], path: PathLike
) -> pathlib.Path:
    """Live containers per sample tick per policy (Figure 12b)."""
    rows = []
    for policy, r in results.items():
        if not r.container_samples:
            continue
        totals = np.sum(list(r.container_samples.values()), axis=0)
        for t, count in zip(r.sample_times_ms, totals):
            rows.append([policy, f"{t:.1f}", int(count)])
    return _write_rows(path, ["policy", "time_ms", "containers"], rows)


def export_spawn_series(
    results: Dict[str, RunResult],
    path: PathLike,
    interval_ms: float = 10_000.0,
) -> pathlib.Path:
    """Cumulative spawns per interval per policy (Figure 12b)."""
    rows = []
    for policy, r in results.items():
        series = r.cumulative_spawn_series(interval_ms)
        for k, value in enumerate(series):
            rows.append([policy, f"{(k + 1) * interval_ms:.0f}", int(value)])
    return _write_rows(
        path, ["policy", "time_ms", "cumulative_spawns"], rows
    )


def export_queuing_distribution(
    results: Dict[str, RunResult],
    path: PathLike,
    quantiles: Sequence[float] = (10, 25, 50, 75, 90, 95, 99),
) -> pathlib.Path:
    """Queuing-time quantiles per policy (Figure 10b)."""
    rows = []
    for policy, r in results.items():
        if r.queue_ms.size == 0:
            continue
        values = np.percentile(r.queue_ms, quantiles)
        rows.append([policy, *(f"{v:.3f}" for v in values)])
    return _write_rows(
        path, ["policy", *(f"p{q:g}" for q in quantiles)], rows
    )


def export_all(
    results: Dict[str, RunResult], directory: PathLike, prefix: str = "run"
) -> Dict[str, pathlib.Path]:
    """Write every export for one result set; returns {name: path}."""
    directory = pathlib.Path(directory)
    return {
        "summary": export_summary(results, directory / f"{prefix}_summary.csv"),
        "latency_cdf": export_latency_cdf(
            results, directory / f"{prefix}_latency_cdf.csv"),
        "containers": export_container_timeline(
            results, directory / f"{prefix}_containers.csv"),
        "spawns": export_spawn_series(
            results, directory / f"{prefix}_spawns.csv"),
        "queuing": export_queuing_distribution(
            results, directory / f"{prefix}_queuing.csv"),
    }
