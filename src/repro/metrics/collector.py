"""Run-level metrics: everything the paper's figures report.

The collector samples cluster state on the paper's 10 s cadence and
streams each completed job's latency breakdown into typed columns;
:class:`RunResult` exposes the derived metrics — SLO-violation rate,
average containers spawned, median/tail latency, requests-per-container,
cold-start counts, queuing-time distribution and cluster energy
(metrics (i)-(v) of section 5.3).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.energy import EnergyMeter
from repro.core.poolsurface import PoolSurface
from repro.metrics.stats import sorted_quantiles, summarize_latencies
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer, record_job_spans
from repro.workflow.job import Job


@dataclass
class RunResult:
    """Outcome of one (policy, workload, trace) simulation."""

    policy: str
    mix: str
    trace: str
    duration_ms: float
    # Jobs.
    n_jobs: int
    n_completed: int
    n_incomplete: int
    latencies_ms: np.ndarray
    violations: int
    # Latency breakdown (aligned with latencies_ms).
    exec_ms: np.ndarray
    cold_wait_ms: np.ndarray
    batch_wait_ms: np.ndarray
    queue_ms: np.ndarray
    # Containers.
    sample_times_ms: np.ndarray
    container_samples: Dict[str, np.ndarray]
    total_spawns: int
    spawns_per_pool: Dict[str, int]
    spawn_times_ms: Dict[str, List[float]]
    rpc_per_pool: Dict[str, float]
    failed_spawns: int
    # Energy.
    energy_joules: float
    mean_power_w: float
    mean_active_nodes: float
    # Resilience (defaulted so legacy construction sites stay valid).
    #: Jobs that terminated with an explicit ``failed`` outcome
    #: (dead-lettered by the retry layer).  failed ⊂ incomplete, so
    #: ``slo_violation_rate`` already accounts for them.
    n_failed: int = 0
    #: Tasks requeued after a failed attempt, summed over pools.
    task_retries: int = 0
    #: Workers that crashed mid-execution (injected or organic).
    container_crashes: int = 0
    #: Executions reclaimed by the per-task timeout (hung workers).
    task_timeouts: int = 0
    #: Tasks parked in the dead-letter queue (attempt/deadline budget
    #: exhausted), summed over pools.
    dead_lettered: int = 0
    #: Control-loop tick steps that raised and were contained.
    tick_errors: int = 0
    #: Cold starts inflated by a registry brownout.
    degraded_spawns: int = 0
    #: Arrivals shed at the gateway (backpressure + deadline shedding).
    shed_jobs: int = 0
    # Guarded-control-plane counters (read back from the run registry;
    # all zero unless the guard/guardrails/fault schedule were active).
    #: Fifer→RScale degradations tripped by the forecast-health guard.
    predictor_fallbacks: int = 0
    #: Guard re-arms after the forecast healed.
    predictor_recoveries: int = 0
    #: Monitor ticks spent with proactive pre-spawning suspended.
    fallback_ticks: int = 0
    #: Spawn decisions re-attempted by the governor after placement
    #: failure.
    spawn_retries: int = 0
    #: Spawn shortfall shed after the retry budget ran out.
    spawn_retries_exhausted: int = 0
    #: Containers cut from scaler decisions by the max-surge clamp.
    surge_clamped: int = 0
    #: Nodes killed (and recovered) by the fault schedule.
    nodes_killed: int = 0
    nodes_recovered: int = 0
    #: Already-dead tasks dropped at overloaded downstream stages.
    stage_sheds: int = 0
    # Durability + crash-recovery counters (zero unless a journal dir /
    # crash injection / blackout window was configured for the run).
    #: Records appended to the write-ahead request journal.
    journal_appends: int = 0
    #: Control-plane recoveries (gateway or control-loop restores, or
    #: sim blackout windows that closed).
    recoveries: int = 0
    #: Journaled-but-unfinished jobs re-admitted by recovery.
    jobs_requeued_on_recovery: int = 0
    #: Journaled terminal jobs recovery refused to re-run (exactly-once).
    jobs_deduped_on_recovery: int = 0
    #: Arrivals shed by the ``max_pending`` bound alone (⊂ shed_jobs).
    backpressure_sheds: int = 0
    # Lazily filled caches (sort once, reuse for every quantile /
    # summary / CDF request against this result).
    _sorted_latencies: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False)
    _latency_summary: Optional[Dict[str, float]] = field(
        default=None, repr=False, compare=False)

    # -- derived -------------------------------------------------------------

    @property
    def slo_violation_rate(self) -> float:
        """Violations (incomplete jobs count as violated) over all jobs."""
        if self.n_jobs == 0:
            return 0.0
        return (self.violations + self.n_incomplete) / self.n_jobs

    @property
    def sorted_latencies_ms(self) -> np.ndarray:
        """Response latencies sorted ascending (cached)."""
        if self._sorted_latencies is None:
            object.__setattr__(
                self, "_sorted_latencies", np.sort(self.latencies_ms))
        return self._sorted_latencies

    @property
    def latency_summary(self) -> Dict[str, float]:
        # Not the presorted path: the mean must sum in arrival order to
        # stay bit-identical with historical summaries.  The three
        # percentiles still come from one partition, and the cache makes
        # every later median/p99/summary access free.
        if self._latency_summary is None:
            object.__setattr__(
                self, "_latency_summary", summarize_latencies(self.latencies_ms))
        return self._latency_summary

    @property
    def median_latency_ms(self) -> float:
        return self.latency_summary["p50"]

    @property
    def p99_latency_ms(self) -> float:
        return self.latency_summary["p99"]

    @property
    def avg_containers(self) -> float:
        """Mean concurrently live containers over the run's samples."""
        if not self.container_samples:
            return 0.0
        totals = np.sum(list(self.container_samples.values()), axis=0)
        return float(totals.mean()) if totals.size else 0.0

    @property
    def peak_containers(self) -> int:
        if not self.container_samples:
            return 0
        totals = np.sum(list(self.container_samples.values()), axis=0)
        return int(totals.max()) if totals.size else 0

    @property
    def cold_starts(self) -> int:
        """Every spawn is a cold start (Figure 16)."""
        return self.total_spawns

    def stage_container_distribution(self) -> Dict[str, float]:
        """Average live-container share per function (Figure 11)."""
        if not self.container_samples:
            return {}
        means = {k: float(v.mean()) for k, v in self.container_samples.items()}
        total = 0.0
        for mean in means.values():  # left to right: sum() compensates on 3.12+
            total += mean
        if total <= 0:
            return {k: 0.0 for k in means}
        return {k: v / total for k, v in means.items()}

    def p99_breakdown(self) -> Dict[str, float]:
        """Mean latency components among the slowest 1% of jobs (Fig. 9)."""
        if self.latencies_ms.size == 0:
            return {"queuing": 0.0, "cold_start": 0.0, "exec_time": 0.0}
        threshold = float(sorted_quantiles(self.sorted_latencies_ms, (99.0,))[0])
        mask = self.latencies_ms >= threshold
        return {
            "queuing": float(self.batch_wait_ms[mask].mean()),
            "cold_start": float(self.cold_wait_ms[mask].mean()),
            "exec_time": float(self.exec_ms[mask].mean()),
        }

    def cumulative_spawn_series(self, interval_ms: float = 10_000.0) -> np.ndarray:
        """Cumulative container spawns per interval (Figure 12b)."""
        all_times = [t for times in self.spawn_times_ms.values() for t in times]
        n_bins = max(1, int(np.ceil(self.duration_ms / interval_ms)))
        edges = np.arange(n_bins + 1) * interval_ms
        counts, _ = np.histogram(all_times, bins=edges)
        return np.cumsum(counts)

    def summary(self) -> Dict[str, float]:
        """Flat dict of headline numbers for reports."""
        lat = self.latency_summary
        return {
            "jobs": float(self.n_jobs),
            "completed": float(self.n_completed),
            "slo_violation_rate": self.slo_violation_rate,
            "median_latency_ms": lat["p50"],
            "p99_latency_ms": lat["p99"],
            "avg_containers": self.avg_containers,
            "cold_starts": float(self.cold_starts),
            "energy_joules": self.energy_joules,
            "mean_active_nodes": self.mean_active_nodes,
            "failed": float(self.n_failed),
            "task_retries": float(self.task_retries),
            "container_crashes": float(self.container_crashes),
            "task_timeouts": float(self.task_timeouts),
            "dead_lettered": float(self.dead_lettered),
            "tick_errors": float(self.tick_errors),
            "degraded_spawns": float(self.degraded_spawns),
            "shed_jobs": float(self.shed_jobs),
            "predictor_fallbacks": float(self.predictor_fallbacks),
            "predictor_recoveries": float(self.predictor_recoveries),
            "fallback_ticks": float(self.fallback_ticks),
            "spawn_retries": float(self.spawn_retries),
            "spawn_retries_exhausted": float(self.spawn_retries_exhausted),
            "surge_clamped": float(self.surge_clamped),
            "nodes_killed": float(self.nodes_killed),
            "nodes_recovered": float(self.nodes_recovered),
            "stage_sheds": float(self.stage_sheds),
            "journal_appends": float(self.journal_appends),
            "recoveries": float(self.recoveries),
            "jobs_requeued_on_recovery": float(self.jobs_requeued_on_recovery),
            "jobs_deduped_on_recovery": float(self.jobs_deduped_on_recovery),
            "backpressure_sheds": float(self.backpressure_sheds),
        }


#: RunResult field -> the registry series it totals.  The registry is
#: the single source of truth for guard / governor / fault-schedule /
#: durability events in both worlds.
_REGISTRY_ROLLUPS = {
    "predictor_fallbacks": "predictor_fallbacks_total",
    "predictor_recoveries": "predictor_recoveries_total",
    "fallback_ticks": "scaling_fallback_ticks_total",
    "spawn_retries": "scaling_spawn_retries_total",
    "spawn_retries_exhausted": "scaling_spawn_retries_exhausted_total",
    "surge_clamped": "scaling_surge_clamped_total",
    "nodes_killed": "cluster_node_kills_total",
    "nodes_recovered": "cluster_node_recoveries_total",
    "stage_sheds": "pool_tasks_shed_total",
    "journal_appends": "journal_appends_total",
    "recoveries": "recoveries_total",
    "jobs_requeued_on_recovery": "jobs_requeued_on_recovery",
    "jobs_deduped_on_recovery": "jobs_deduped_on_recovery",
    "backpressure_sheds": "gateway_backpressure_sheds_total",
}


def run_rollups(pools: Dict[str, PoolSurface], energy_meter, registry) -> Dict:
    """The RunResult fields every engine derives the same way: per-pool
    sums, the energy meter's totals and the registry rollups."""
    out = {
        "total_spawns": sum(p.total_spawns for p in pools.values()),
        "spawns_per_pool": {n: p.total_spawns for n, p in pools.items()},
        "spawn_times_ms": {n: list(p.spawn_times_ms) for n, p in pools.items()},
        "rpc_per_pool": {n: p.tasks_per_container() for n, p in pools.items()},
        "failed_spawns": sum(p.failed_spawns for p in pools.values()),
        "energy_joules": energy_meter.total_joules,
        "mean_power_w": energy_meter.mean_power_w,
        "mean_active_nodes": energy_meter.mean_active_nodes,
        "task_retries": sum(p.task_retries for p in pools.values()),
        "container_crashes": sum(p.container_crashes for p in pools.values()),
        "task_timeouts": sum(p.task_timeouts for p in pools.values()),
        "dead_lettered": sum(p.tasks_dead_lettered for p in pools.values()),
    }
    for field_name, series in _REGISTRY_ROLLUPS.items():
        out[field_name] = int(registry.total(series))
    return out


class MetricsCollector:
    """Accumulates job totals and periodic cluster samples during a run.

    The collector is also the observability choke point shared by the
    simulator and the live runtime: every terminal job passes through
    :meth:`record_job_completed` / :meth:`record_job_failed`, so this is
    where request spans are assembled (one schema for both worlds) and
    where the run's latency histograms are fed.  A completed ``Job`` is
    not retained unless *keep_completed* asks for a request log in
    :attr:`completed_jobs` (else ``None``); failed jobs are listed.
    """

    def __init__(
        self,
        energy_meter: EnergyMeter,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        keep_completed: bool = False,
    ) -> None:
        self.energy_meter = energy_meter
        self.tracer = tracer
        self.registry = registry or MetricsRegistry()
        self.completed_jobs: Optional[List[Job]] = (
            [] if keep_completed else None)
        self.failed_jobs: List[Job] = []
        self.sample_times: List[float] = []
        self.pool_samples: Dict[str, List[int]] = {}
        # One value per completed job, in completion order.
        self._latency, self._queue, self._cold, self._batching, self._exec = (
            array("d") for _ in range(5))
        self._violations = 0
        self._c_created = self.registry.counter("jobs_created_total")
        self._c_completed = self.registry.counter("jobs_completed_total")
        self._c_failed = self.registry.counter("jobs_failed_total")
        self._h_latency = self.registry.histogram("request_latency_ms")
        self._h_queue = self.registry.histogram("request_queue_wait_ms")
        self._h_exec = self.registry.histogram("request_exec_ms")
        self._h_cold = self.registry.histogram("request_cold_start_wait_ms")

    @property
    def jobs_created(self) -> int:
        return int(self._c_created.value)

    def record_job_created(self) -> None:
        self._c_created.inc()

    def record_job_completed(self, job: Job) -> None:
        if self.completed_jobs is not None:
            self.completed_jobs.append(job)
        self._c_completed.inc()
        queue_ms, cold_ms, batching_ms, exec_ms = job.totals()
        # ``response_latency_ms`` and ``violated_slo``, inlined.
        latency_ms = job.completion_ms - job.arrival_ms
        if latency_ms > job.app.slo_ms:
            self._violations += 1
        self._latency.append(latency_ms)
        self._queue.append(queue_ms)
        self._cold.append(cold_ms)
        self._batching.append(batching_ms)
        self._exec.append(exec_ms)
        self._h_latency.observe(latency_ms)
        self._h_queue.observe(queue_ms)
        self._h_exec.observe(exec_ms)
        self._h_cold.observe(cold_ms)
        if self.tracer is not None:
            record_job_spans(self.tracer, job)

    def record_job_failed(self, job: Job) -> None:
        """A job terminated with an explicit failed outcome (its task
        was dead-lettered).  Failed jobs stay outside ``n_completed``;
        they are a labelled subset of the incomplete count, so the
        SLO-violation rate already penalises them."""
        self.failed_jobs.append(job)
        self._c_failed.inc()
        if self.tracer is not None:
            record_job_spans(self.tracer, job)

    def sample(
        self,
        pools: Dict[str, PoolSurface],
        nodes,
        now_ms: float,
    ) -> None:
        """One 10 s sampling tick: containers per pool + cluster power."""
        self.sample_times.append(now_ms)
        for name, pool in pools.items():
            self.pool_samples.setdefault(name, []).append(
                pool.sample_containers())
        self.energy_meter.sample(nodes, now_ms)

    def finalize(
        self,
        policy: str,
        mix: str,
        trace: str,
        duration_ms: float,
        pools: Dict[str, PoolSurface],
        tick_errors: int = 0,
        degraded_spawns: int = 0,
        shed_jobs: int = 0,
        flat: Optional[Dict] = None,
    ) -> RunResult:
        """Assemble the run's RunResult — the one place that does.

        The per-completed-job arrays are views of the collector's
        columns.  *flat* is how an engine that never calls
        ``record_job_*`` (the vector engine) hands over the same counts
        and arrays; the run-level series are then fed from them in bulk.
        """
        if flat is None:
            # While these views live, an append to a column raises
            # BufferError instead of moving it.
            flat = {
                "n_jobs": self.jobs_created,
                "n_failed": len(self.failed_jobs),
                "latencies_ms": np.frombuffer(self._latency),
                "violations": self._violations,
                "exec_ms": np.frombuffer(self._exec),
                "cold_wait_ms": np.frombuffer(self._cold),
                "batch_wait_ms": np.frombuffer(self._batching),
                "queue_ms": np.frombuffer(self._queue),
            }
        else:
            self._c_created.set_value(float(flat["n_jobs"]))
            self._c_completed.set_value(float(flat["latencies_ms"].size))
            self._c_failed.set_value(float(flat["n_failed"]))
            self._h_latency.observe_many(flat["latencies_ms"])
            self._h_queue.observe_many(flat["queue_ms"])
            self._h_exec.observe_many(flat["exec_ms"])
            self._h_cold.observe_many(flat["cold_wait_ms"])
        n_completed = int(flat["latencies_ms"].size)
        n_samples = len(self.sample_times)
        return RunResult(
            policy=policy,
            mix=mix,
            trace=trace,
            duration_ms=duration_ms,
            n_completed=n_completed,
            n_incomplete=flat["n_jobs"] - n_completed,
            sample_times_ms=np.asarray(self.sample_times),
            container_samples={
                name: np.asarray(samples[:n_samples])
                for name, samples in self.pool_samples.items()
            },
            tick_errors=tick_errors,
            degraded_spawns=degraded_spawns,
            shed_jobs=shed_jobs,
            **flat,
            **run_rollups(pools, self.energy_meter, self.registry),
        )
