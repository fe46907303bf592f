"""The four workloads: inputs from a seed, a timed section, checks.

Imported only inside a workload's own subprocess (see ``run.py``), so
job-id counters, caches and peak RSS belong to one workload.  The
program is driven through its public entry points only:
``ServerlessSystem(...).run(trace)`` (default engine and
``engine="vector"``), ``ServingRuntime(...).run(trace)`` with a no-op
``work``, ``RequestJournal.read_records`` + ``build_recovery_plan``.

Timing estimators: on a shared VM identical CPU-bound work takes 10-45 %
longer or shorter from one moment to the next — on bad days 2-3 times —
at every time scale from tens of milliseconds to minutes, whatever the
process does (README, "What this host does to a timing").  Every timed
quantity is therefore taken per *segment* — a simulator pass, a window
of live traffic — and taken to *reference* time with the slowdown
``host.SpeedProbe`` measured meanwhile: a simulator pass over the mean
spin inside it, the live numbers over the serve's mixed slowdown to the
power ``LIVE_ELASTICITY``.  The reported value is the median of the
passes and, for the live windows, their lower quartile: a stall
(collector, fsync, a neighbour) only ever adds to a window.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import repro
from repro.core.policies import make_policy_config
from repro.experiments.predictors import pretrained_predictor
from repro.experiments.robustness import journal_conservation
from repro.obs.export import validate_spans_jsonl, write_spans_jsonl
from repro.obs.trace import Tracer
from repro.runtime.system import ClusterSpec, ServerlessSystem
from repro.serve import (
    RequestJournal,
    ServeOptions,
    ServingRuntime,
    TraceReplayer,
    build_recovery_plan,
)
from repro.traces import poisson_trace, wiki_rate_profile, wits_rate_profile
from repro.traces.base import trace_from_profile
from repro.workloads import get_mix

import probes
import spans as spans_mod
from host import SpeedProbe
from spans import SpanRecorder

#: Per-request overhead above which a live request misses goodput.
GOODPUT_LIMIT_MS = 100.0
#: Traffic windows of the live estimators.
WINDOW_S = 1.0
CPU_SAMPLE_S = 0.5
#: By how many per cent a live number moves when the probe's mixed
#: slowdown moves by one per cent.  Measured, not derived: over A/A runs
#: through slow and fast regimes of the host the log-log slopes were
#: 0.7 (CPU per request, both workloads), 0.5-0.7 (latency, live-admit)
#: and 0.9-1.2 (latency, live-durable, where fsync queues); one value
#: for all of them.  Part of a request's cost is no faster on a faster
#: core (timer granularity, wake-ups, the disk).
LIVE_ELASTICITY = 0.75
#: Shape seeds of the two rate profiles.  The *shape* is part of the
#: workload; ``--seed`` draws the arrivals from it.  WITS shape 8 puts
#: one flash crowd in the trace and leaves p90 outside its tail (≈7 %
#: SLO violations), so the simulated overhead repeats across seeds.
WITS_SHAPE_SEED = 8
WIKI_SHAPE_SEED = 7


@dataclass(frozen=True)
class Workload:
    """One entry of ``BENCHMARK.json``'s ``workloads`` (which holds the
    one-line *why*; the README has the long one)."""

    name: str
    plane: str                      # "sim" | "live"
    # sim
    engine: Optional[str] = None    # None = the default event loop
    trace_kind: str = ""
    avg_rps: float = 0.0
    model_s: float = 0.0            # simulated trace length
    # live
    rate_rps: float = 0.0
    durable: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("sim-eventloop-wits", "sim", engine=None, trace_kind="wits",
             avg_rps=100.0, model_s=400.0),
    Workload("sim-vector-wiki", "sim", engine="vector", trace_kind="wiki",
             avg_rps=500.0, model_s=300.0),
    Workload("live-admit", "live", rate_rps=800.0),
    Workload("live-durable", "live", rate_rps=200.0, durable=True),
)}


def _noop_work(task, wall_s: float) -> None:
    """No-op work function: the executor hop is paid, the sleep is not."""


def _quartile_low(values: List[float], fallback: float) -> float:
    """Lower quartile of the per-window values; *fallback* (the value
    over the whole run) when the run was too short to hold a window."""
    return float(np.percentile(values, 25)) if values else fallback


def _sha256(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


class Run:
    """State of one workload run inside its subprocess."""

    def __init__(
        self, workload: Workload, recorder: SpanRecorder, seed: int,
        seconds: float, scale: float, trace: bool, out_dir: pathlib.Path,
        tamper_journal: bool = False,
    ) -> None:
        self.workload = workload
        self.recorder = recorder
        #: Directory of the ``repro`` package, for folding profiles.
        self.package_root = str(pathlib.Path(repro.__file__).resolve().parent)
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.trace = trace
        self.out_dir = out_dir
        self.tamper_journal = tamper_journal
        self.checks: Dict[str, bool] = {}
        self.info: Dict[str, object] = {}
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.predictor = None

    # -- shared ---------------------------------------------------------

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)

    def common_layers(self, result, trace) -> Dict[str, float]:
        """Per-layer numbers both planes take the same way."""
        rec = self.recorder
        generate_s = sum(rec.durations_s("traces.make"))
        return {
            "traces.generate_s": generate_s,
            "traces.arrivals_per_s": len(trace) / generate_s,
            "runtime.system.build_s":
                statistics.median(rec.durations_s("system.build")),
            "workflow.pool.tasks_per_container": (
                statistics.fmean(result.rpc_per_pool.values())
                if result.rpc_per_pool else 0.0),
            "workflow.pool.spawns": float(result.total_spawns),
            "core.scaling.ticks": float(result.sample_times_ms.size),
            "metrics.stats.summary_ms":
                1000.0 * statistics.median(rec.durations_s("result.summary")),
        }

    def probe_layers(self) -> None:
        self.per_layer.update(probes.run_all(
            self.recorder, self.seed, self.out_dir, self.predictor))

    def result(self) -> Dict[str, object]:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": self.checks,
            "end_to_end": self.end_to_end,
            "per_layer": self.per_layer,
            "info": self.info,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


# ----------------------------------------------------------------------
# simulator workloads
# ----------------------------------------------------------------------

class SimRun(Run):

    def setup(self) -> None:
        w, rec = self.workload, self.recorder
        duration_s = max(10.0, w.model_s * self.scale)
        with rec.span("traces.make"):
            if w.trace_kind == "wits":
                profile = wits_rate_profile(
                    avg_rps=w.avg_rps, peak_rps=4 * w.avg_rps,
                    duration_s=duration_s, seed=WITS_SHAPE_SEED)
            else:
                profile = wiki_rate_profile(
                    avg_rps=w.avg_rps, duration_s=duration_s,
                    period_s=duration_s, seed=WIKI_SHAPE_SEED)
            self.sim_trace = trace_from_profile(
                profile, duration_s * 1000.0, seed=self.seed,
                name=w.trace_kind)
        with rec.span("prediction.fit"):
            # Smoke runs skip the 3 s LSTM fit; everything else is Fifer
            # as the paper runs it.
            model = "lstm" if self.scale >= 1.0 else "mwa"
            self.predictor = pretrained_predictor(
                w.trace_kind, w.avg_rps, model=model)
        self.config = make_policy_config("fifer", idle_timeout_ms=60_000.0)
        self.mix = get_mix("heavy")
        with rec.span("warmup"):
            warm_ms = min(30_000.0, duration_s * 500.0)
            self._pass(self.sim_trace.clipped(0.0, warm_ms), w.engine)

    def _system(self, engine: Optional[str], tracer=None):
        kwargs = {} if engine is None else {"engine": engine}
        return ServerlessSystem(
            config=self.config, mix=self.mix,
            cluster_spec=ClusterSpec(n_nodes=52), predictor=self.predictor,
            seed=self.seed, tracer=tracer, **kwargs)

    def _pass(self, trace, engine: Optional[str], tracer=None) -> Dict:
        rec = self.recorder
        with rec.span("system.build"):
            system = self._system(engine, tracer)
        cpu0 = time.process_time()
        with rec.span("system.run") as run_span:
            result = system.run(trace)
        cpu_s = time.process_time() - cpu0
        with rec.span("result.summary"):
            summary = result.summary()
        return {
            "start_s": run_span["start_s"], "end_s": run_span["end_s"],
            "wall_s": run_span["end_s"] - run_span["start_s"],
            "cpu_s": cpu_s,
            "events": int(system.sim.events_executed),
            "summary": summary,
            "result": result,
        }

    def _passes(self, budget_s: float, at_least: int,
                tracer_factory=None) -> List[Dict]:
        """Timed passes over the full trace until *budget_s* is spent.
        ``ref_wall_s`` / ``ref_cpu_s`` are a pass's times in reference
        seconds (see ``host.SpeedProbe``)."""
        passes: List[Dict] = []
        started = time.perf_counter()
        with SpeedProbe() as probe:
            while (len(passes) < at_least
                   or time.perf_counter() - started < budget_s):
                tracer = tracer_factory() if tracer_factory else None
                one = self._pass(self.sim_trace, self.workload.engine, tracer)
                one["spans"] = len(tracer.spans) if tracer else 0
                passes.append(one)
        for one in passes:
            spent = probe.spent_s(one["start_s"], one["end_s"])
            one["slowdown"] = probe.slowdown(one["start_s"], one["end_s"])
            # Not used here (the spin alone follows a busy core better);
            # printed so the two planes' probes can be compared.
            one["slowdown_mixed"] = probe.slowdown_mixed(
                one["start_s"], one["end_s"])
            one["ref_wall_s"] = (one["wall_s"] - spent) / one["slowdown"]
            one["ref_cpu_s"] = (one["cpu_s"] - spent) / one["slowdown"]
        return passes

    def measure(self) -> None:
        rec = self.recorder
        with rec.span("timed"):
            # At least two, so determinism can be checked.
            passes = self._passes(self.seconds, at_least=2)
        first = passes[0]   # every pass simulates the same thing
        result = first["result"]
        wall_s = statistics.median(p["ref_wall_s"] for p in passes)
        cpu_s = statistics.median(p["ref_cpu_s"] for p in passes)
        jobs, done = result.n_jobs, result.n_completed
        self.attempted = jobs
        self.failed = jobs - done
        # Simulated (model-time) cost of a request above its execution
        # and hop floor: queueing, batching and cold-start waits.
        overhead = np.asarray(result.queue_ms)
        self.end_to_end.update({
            "jobs_per_s": done / wall_s,
            "cpu_ms_per_job": 1000.0 * cpu_s / done,
            "overhead_p50_ms": float(np.percentile(overhead, 50)),
            "overhead_p90_ms": float(np.percentile(overhead, 90)),
        })
        self.info.update({
            "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
            "pass_slowdown": [round(p["slowdown"], 4) for p in passes],
            "pass_slowdown_mixed": [
                round(p["slowdown_mixed"], 4) for p in passes],
            "pass_ref_wall_s": [round(p["ref_wall_s"], 4) for p in passes],
            "jobs": jobs,
            "events": first["events"],
            "summary_sha256": _sha256(first["summary"]),
            "slo_violation_rate": result.slo_violation_rate,
        })
        self.first, self.wall_s = first, wall_s
        with rec.span("checks"):
            self.check("passes_identical", all(
                p["summary"] == passes[0]["summary"] for p in passes))
            self.check("jobs_conserved", (
                result.n_completed + result.n_failed + result.shed_jobs
                == result.n_jobs))
            slice_ms = min(60_000.0, self.sim_trace.duration_ms / 2.0)
            sliced = self.sim_trace.clipped(0.0, slice_ms)
            loop = self._pass(sliced, None)["summary"]
            vector = self._pass(sliced, "vector")["summary"]
            self.check("engines_agree", loop == vector)

    def trace_sections(self) -> None:
        rec, w, first = self.recorder, self.workload, self.first
        result, jobs = first["result"], first["result"].n_jobs
        with rec.span("timed.program_tracer"):
            traced = self._passes(
                self.seconds / 2.0, 1, lambda: Tracer(sample_rate=1.0))
        plain_s = self.wall_s
        traced_s = statistics.median(p["ref_wall_s"] for p in traced)
        with rec.span("profile"):
            share, calls, _ = spans_mod.profile_by_module(
                lambda: self._system(w.engine).run(self.sim_trace),
                self.package_root)
        events_per_s = first["events"] / self.wall_s
        on_vector = w.engine == "vector"
        self.per_layer.update(_shares(share))
        self.per_layer.update(self.common_layers(result, self.sim_trace))
        self.per_layer.update({
            "prediction.fit_s.lstm": sum(rec.durations_s("prediction.fit")),
            "sim.engine.events_per_s": 0.0 if on_vector else events_per_s,
            "sim.engine.events_per_job":
                0.0 if on_vector else first["events"] / jobs,
            "runtime.vector.events_per_s": events_per_s if on_vector else 0.0,
            "runtime.vector.events_per_job":
                first["events"] / jobs if on_vector else 0.0,
            "obs.trace.spans_per_job": 0.0,
            "obs.trace.overhead_share": (traced_s - plain_s) / plain_s,
            "py.calls_per_job": calls / jobs,
        })
        self.info["program_tracer_spans_per_job"] = traced[0]["spans"] / jobs


# ----------------------------------------------------------------------
# live workloads
# ----------------------------------------------------------------------

class _Sampler(threading.Thread):
    """Every half second: (wall, process CPU, requests completed)."""

    def __init__(self, completed: Callable[[], int]) -> None:
        super().__init__(name="ledger-sampler", daemon=True)
        self._completed = completed
        self._stop_event = threading.Event()
        self.samples: List[Tuple[float, float, int]] = []

    def run(self) -> None:
        while not self._stop_event.wait(CPU_SAMPLE_S):
            self.samples.append(
                (time.perf_counter(), time.process_time(), self._completed()))

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


class LiveRun(Run):

    def setup(self) -> None:
        w, rec = self.workload, self.recorder
        self.config = make_policy_config("rscale")
        self.mix = get_mix("heavy")
        self.journal_root = self.out_dir / f"journal-{w.name}"
        shutil.rmtree(self.journal_root, ignore_errors=True)
        with rec.span("traces.make"):
            self.live_trace = poisson_trace(
                w.rate_rps, self.seconds, seed=self.seed)
        with rec.span("replay.plan"):
            # The same plan ServingRuntime.serve builds after it starts
            # the clock; built here to time it and to know when each
            # request was due.
            self.plan = TraceReplayer(
                self.live_trace, self.mix, seed=self.seed).plan()
        with rec.span("warmup"):
            # A quarter second of traffic: enough to import asyncio's
            # machinery and start the executor threads, short enough
            # that set-up time is not mostly this sleep.
            self._serve(poisson_trace(w.rate_rps, 0.25, seed=self.seed + 1),
                        "warmup", tracer_on=w.durable)

    def _runtime(self, subdir: str, tracer_on: bool):
        # One executor thread: the work is a no-op, and main thread plus
        # one worker is all the threads a two-core host has cores for
        # (the default sizes the pool to the cluster and grew to 17).
        options = ServeOptions(time_scale=1.0, executor_workers=1)
        if self.workload.durable:
            options = ServeOptions(
                time_scale=1.0, executor_workers=1,
                journal_dir=str(self.journal_root / subdir),
                checkpoint_interval_ms=2000.0,
                heartbeat_interval_ms=1000.0)
        with self.recorder.span("system.build"):
            return ServingRuntime(
                config=self.config, mix=self.mix,
                cluster_spec=ClusterSpec(n_nodes=8), seed=self.seed,
                options=options, work=_noop_work,
                tracer=Tracer(sample_rate=1.0) if tracer_on else None)

    def _serve(self, trace, subdir: str, tracer_on: bool,
               plan=None, profile: bool = False) -> Dict:
        """One open-loop serve of *trace*; with *plan* (the replay plan
        of *trace*) also the per-request statistics."""
        runtime = self._runtime(subdir, tracer_on)
        sampler = _Sampler(lambda: len(
            getattr(getattr(runtime, "metrics", None), "completed_jobs", ())))
        probe = SpeedProbe()
        share: Dict[str, float] = {}
        calls = 0
        sampler.start()
        cpu0 = time.process_time()
        with self.recorder.span("serve.run") as span:
            if profile:
                share, calls, result = spans_mod.profile_by_module(
                    lambda: runtime.run(trace), self.package_root)
            else:
                with probe:
                    result = runtime.run(trace)
        cpu_s = time.process_time() - cpu0
        sampler.stop()
        served = {
            "runtime": runtime, "result": result, "offered": len(trace),
            "start_s": span["start_s"], "end_s": span["end_s"],
            "wall_s": span["end_s"] - span["start_s"], "cpu_s": cpu_s,
            "share": share, "calls": calls,
        }
        if plan is not None:
            served.update(self._request_stats(served, plan, sampler, probe))
        return served

    def _request_stats(self, served: Dict, plan, sampler: _Sampler,
                       probe: SpeedProbe) -> Dict:
        """Per-request overhead, measured from the instant each request
        was *due* in the plan (so generator lateness counts against the
        plane), and CPU per request; both per window, lower quartile of
        the windows, then taken to reference speed: divided by
        ``SpeedProbe.slowdown_mixed`` of the serve to the power
        ``LIVE_ELASTICITY``.  The unnormalised values, the whole-run
        values and the windows themselves are kept beside them."""
        metrics = served["runtime"].metrics
        # Jobs are created in admission order, one per planned arrival
        # (nothing is shed below saturation), so ids map onto the plan.
        terminal = metrics.completed_jobs + metrics.failed_jobs
        first_id = min(j.job_id for j in terminal) if terminal else 0
        jobs = sorted(metrics.completed_jobs, key=lambda j: j.job_id)
        index = np.array([j.job_id - first_id for j in jobs], dtype=int)
        due = np.array([p.time_ms for p in plan])[index]
        floor = np.array(
            [j.app.n_stages * j.app.transition_overhead_ms for j in jobs])
        overhead = np.array([j.completion_ms for j in jobs]) - due - floor
        lag = np.array([j.arrival_ms for j in jobs]) - due
        window = (due // (WINDOW_S * 1000.0)).astype(int)
        p50s, p90s = [], []
        for k in range(int(window.max()) + 1 if window.size else 0):
            in_window = overhead[window == k]
            if in_window.size >= 50:
                p50s.append(float(np.percentile(in_window, 50)))
                p90s.append(float(np.percentile(in_window, 90)))
        cpu_ms = []
        for a, b in zip(sampler.samples, sampler.samples[1:]):
            done = b[2] - a[2]
            # Skip the ramp-up and drain windows.
            if done >= 0.25 * self.workload.rate_rps * CPU_SAMPLE_S:
                busy_s = b[1] - a[1] - probe.spent_s(a[0], b[0])
                cpu_ms.append(1000.0 * busy_s / done)
        start_s, end_s = served["start_s"], served["end_s"]
        slowdown = probe.slowdown_mixed(start_s, end_s)
        to_reference = slowdown ** -LIVE_ELASTICITY
        whole = {
            "cpu_ms_per_job": (
                1000.0 * (served["cpu_s"] - probe.spent_s(start_s, end_s))
                / max(len(jobs), 1)),
            "overhead_p50_ms": float(np.percentile(overhead, 50)),
            "overhead_p90_ms": float(np.percentile(overhead, 90)),
        }
        raw = {
            "cpu_ms_per_job": _quartile_low(cpu_ms, whole["cpu_ms_per_job"]),
            "overhead_p50_ms": _quartile_low(p50s, whole["overhead_p50_ms"]),
            "overhead_p90_ms": _quartile_low(p90s, whole["overhead_p90_ms"]),
        }
        return {
            "overhead": overhead, "lag": lag, "due_ms": due,
            "whole_run": whole, "raw": raw, "slowdown": slowdown,
            "windows": {
                "cpu_ms_per_job": [round(v, 4) for v in cpu_ms],
                "overhead_p50_ms": [round(v, 3) for v in p50s],
                "overhead_p90_ms": [round(v, 3) for v in p90s],
            },
            **{name: value * to_reference for name, value in raw.items()},
            "good": int((overhead <= GOODPUT_LIMIT_MS).sum()),
            "last_due_s": float(due.max()) / 1000.0 if due.size else 0.0,
        }

    def measure(self) -> None:
        w, rec = self.workload, self.recorder
        with rec.span("timed"):
            served = self._serve(self.live_trace, "serve",
                                 tracer_on=w.durable, plan=self.plan)
        self.served = served
        result, runtime = served["result"], served["runtime"]
        with rec.span("result.summary"):
            summary = result.summary()
        offered, done = served["offered"], result.n_completed
        self.attempted = offered
        self.failed = offered - done
        self.end_to_end.update({
            "jobs_per_s": served["good"] / served["wall_s"],
            "cpu_ms_per_job": served["cpu_ms_per_job"],
            "overhead_p50_ms": served["overhead_p50_ms"],
            "overhead_p90_ms": served["overhead_p90_ms"],
        })
        self.info.update({
            "offered": offered, "completed": done,
            "serve_wall_s": round(served["wall_s"], 4),
            "slowdown": round(served["slowdown"], 4),
            "unnormalised": served["raw"],
            "whole_run": served["whole_run"],
            "windows": served["windows"],
            "summary_sha256": _sha256(summary),
        })
        with rec.span("checks"):
            self.check("jobs_conserved", (
                result.n_completed + result.n_failed + result.shed_jobs
                == offered == result.n_jobs))
            self.check("drain_completed", runtime.drain_completed)
            if w.durable:
                self._durable_checks(served)

    def _durable_checks(self, served: Dict) -> None:
        rec, runtime, result = self.recorder, served["runtime"], served["result"]
        path = runtime.journal.path
        if self.tamper_journal:
            lines = path.read_text(encoding="utf-8").splitlines()
            lines[len(lines) // 2] = lines[len(lines) // 2][:-7]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        slo = {app.name: app.slo_ms for app in self.mix.applications}
        now_ms = runtime.clock.now
        read_s, plan_s = [], []
        try:
            for _ in range(5):
                with rec.span("journal.read") as span:
                    records = RequestJournal.read_records(path)
                read_s.append(span["end_s"] - span["start_s"])
                with rec.span("recovery.plan") as span:
                    plan = build_recovery_plan(records, now_ms, slo.get)
                plan_s.append(span["end_s"] - span["start_s"])
        except ValueError as exc:
            self.info["journal_error"] = str(exc)
            self.check("journal_readable", False)
            return
        self.check("journal_readable", True)
        per_100k = 1e5 / max(len(records), 1)
        self.recovery = {
            "serve.recovery.read_s_per_100k":
                statistics.median(read_s) * per_100k,
            "serve.recovery.plan_s_per_100k":
                statistics.median(plan_s) * per_100k,
            "serve.recovery.total_s_per_100k": statistics.median(
                [r + p for r, p in zip(read_s, plan_s)]) * per_100k,
        }
        self.info["journal_records"] = len(records)
        self.info["recovery"] = self.recovery
        self.check("journal_conserved",
                   journal_conservation(records)["conserved"])
        self.check("recovery_exactly_once", (
            not plan.requeue and not plan.expired
            and len(plan.deduped) == plan.admitted == served["offered"]))
        tracer = runtime.tracer
        self.check("one_root_span_per_job", (
            len(tracer.roots()) == result.n_completed + result.n_failed))
        spans_path = self.out_dir / f"program-spans-{self.workload.name}.jsonl"
        write_spans_jsonl(tracer.spans, spans_path)
        self.check("spans_schema_valid",
                   validate_spans_jsonl(spans_path) == len(tracer.spans))

    def _ladder(self) -> Dict[str, float]:
        """Fixed-rate rungs, 4 s each: overhead at each rate and the
        highest rate that stays clean (p90 overhead within the goodput
        limit, generator lag p99 <= 50 ms, drain completed)."""
        out: Dict[str, float] = {}
        max_clean = 0.0
        rung_s = 4.0 if self.scale >= 1.0 else 1.0
        for rate in (400, 1200, 1600):
            trace = poisson_trace(float(rate), rung_s, seed=self.seed + rate)
            plan = TraceReplayer(trace, self.mix, seed=self.seed).plan()
            with self.recorder.span(f"ladder.{rate}"):
                served = self._serve(trace, f"ladder-{rate}", False, plan=plan)
            # Judge the rung on its steady part: ServingRuntime.serve
            # builds the replay plan and prewarms after it starts the
            # clock, so the first arrivals of any serve are late.
            steady = served["due_ms"] >= 1000.0 * min(1.0, rung_s / 2.0)
            overhead = served["overhead"][steady]
            lag = served["lag"][steady]
            out[f"serve.gateway.overhead_p50_ms.at_{rate}"] = float(
                np.percentile(overhead, 50))
            clean = (
                served["runtime"].drain_completed
                and served["result"].n_completed == served["offered"]
                and np.percentile(overhead, 90) <= GOODPUT_LIMIT_MS
                and np.percentile(lag, 99) <= 50.0)
            if clean:
                max_clean = float(rate)
        out["serve.gateway.max_clean_rate_rps"] = max_clean
        return out

    def trace_sections(self) -> None:
        w, rec, served = self.workload, self.recorder, self.served
        result, runtime = served["result"], served["runtime"]
        done = max(result.n_completed, 1)
        # The same serve with the program's tracer toggled: on where the
        # workload runs without it, off where it runs with it.
        with rec.span("timed.program_tracer"):
            toggled = self._serve(self.live_trace, "toggled",
                                  tracer_on=not w.durable, plan=self.plan)
        with_tracer, without = (
            (served, toggled) if w.durable else (toggled, served))
        cpu_with = with_tracer["cpu_ms_per_job"]
        cpu_without = without["cpu_ms_per_job"]
        # Profiling roughly doubles the cost of a request, so the
        # profiled serve runs at half the rate to stay below saturation;
        # shares of busy time per module do not depend on the rate.
        half = poisson_trace(w.rate_rps / 2.0, max(1.0, self.seconds / 2.0),
                             seed=self.seed + 2)
        with rec.span("profile"):
            profiled = self._serve(half, "profile", tracer_on=w.durable,
                                   profile=True)
        registry = runtime.registry
        appends = registry.total("journal_appends_total")
        fsyncs = registry.total("journal_fsyncs_total")
        journal_bytes = (
            runtime.journal.path.stat().st_size if w.durable else 0)
        tracer = runtime.tracer
        overhead, lag = served["overhead"], served["lag"]
        self.per_layer.update(_shares(profiled["share"]))
        self.per_layer.update(self.common_layers(result, self.live_trace))
        self.per_layer.update({
            "serve.replayer.plan_build_s": sum(rec.durations_s("replay.plan")),
            "serve.replayer.lag_p50_ms": float(np.percentile(lag, 50)),
            "serve.replayer.lag_p99_ms": float(np.percentile(lag, 99)),
            "serve.gateway.overhead_p99_ms": float(
                np.percentile(overhead, 99)),
            "serve.gateway.overhead_p99_samples": float(overhead.size),
            "serve.control.ticks": float(runtime.control.ticks),
            "serve.control.tick_errors": float(runtime.control.tick_errors),
            "serve.runtime.drain_s": served["wall_s"] - served["last_due_s"],
            "serve.journal.appends_per_req": appends / done,
            "serve.journal.fsyncs_per_req": fsyncs / done,
            "serve.journal.bytes_per_req": journal_bytes / done,
            "obs.trace.spans_per_job":
                len(tracer.spans) / done if tracer is not None else 0.0,
            "obs.trace.overhead_share":
                (cpu_with - cpu_without) / cpu_without,
            "py.calls_per_job":
                profiled["calls"] / max(profiled["result"].n_completed, 1),
        })
        if w.durable:
            self.per_layer.update(self.recovery)
        else:
            self.per_layer.update(self._ladder())


#: ``X.self_share`` metrics: module (as ``spans.module_of`` names it).
SHARE_LAYERS = (
    "sim.engine", "runtime.system", "runtime.vector", "core.scheduling",
    "core.vectorized", "core.scaling", "workflow.pool", "workflow.job",
    "cluster", "prediction", "metrics.collector", "obs.registry",
    "serve.gateway", "serve.pool", "serve.journal", "stdlib",
)


def _shares(share: Dict[str, float]) -> Dict[str, float]:
    return {f"{layer}.self_share": share.get(layer, 0.0)
            for layer in SHARE_LAYERS}


def make_run(name: str, **kwargs) -> Run:
    workload = WORKLOADS[name]
    cls = SimRun if workload.plane == "sim" else LiveRun
    return cls(workload, **kwargs)
