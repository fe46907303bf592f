"""Micro-probes of single layers through their small public functions.

Run only in the traced run.  Each probe is sized to take a few tenths
of a second, so the whole set stays near ten seconds; none feeds an
end-to-end metric directly — the README's table says which end-to-end
metric each should move.
"""

from __future__ import annotations

import gc
import pathlib
import shutil
import time
from typing import Callable, Dict, Optional

import numpy as np

from repro.obs.export import prometheus_snapshot, write_spans_jsonl
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.trace import Tracer
from repro.prediction import default_predictors
from repro.prediction.base import Predictor
from repro.serve.checkpoint import CheckpointManager
from repro.serve.journal import EV_ADMIT, EV_HOP, RequestJournal
from repro.shard.live import merge_registry_snapshots, snapshot_registry
from repro.shard.ring import ConsistentHashRing
from repro.shard.sim import partition_arrivals
from repro.sim.engine import Event, EventQueue, Simulator
from repro.traces.base import ArrivalTrace

def _per_call_s(fn: Callable[[], object], calls: int) -> float:
    """Mean seconds per call of *fn* over *calls* calls."""
    started = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - started) / calls


#: Metric suffix for each of the eight Figure 6 forecasters.
PREDICTOR_KEYS = {
    "MWA": "mwa", "EWMA": "ewma", "Linear R.": "linear",
    "Logistic R.": "logistic", "Simple FF.": "feedforward",
    "WeaveNet": "wavenet", "DeepArEst": "deepar", "LSTM": "lstm",
}


def probe_predictors(
    seed: int, fitted_lstm: Optional[Predictor]
) -> Dict[str, float]:
    """One forecast step per predictor — what the control loop pays
    every monitor tick.  Trainable models are fitted on a short
    synthetic rate series first (fit time is not reported here;
    ``prediction.fit_s.lstm`` times the workload's own fit)."""
    rng = np.random.default_rng(seed)
    t = np.arange(90)
    series = 100.0 + 30.0 * np.sin(t / 9.0) + rng.normal(0.0, 4.0, t.size)
    history = list(series[-24:])
    out: Dict[str, float] = {}
    for predictor in default_predictors(seed=seed):
        key = PREDICTOR_KEYS[predictor.name]
        if key == "lstm" and fitted_lstm is not None:
            predictor = fitted_lstm
        elif predictor.trainable:
            predictor.fit(series)
        predictor.predict(history)  # first call may allocate
        calls = 10 if key in ("logistic", "lstm") else 100
        out[f"prediction.predict_us.{key}"] = (
            _per_call_s(lambda: predictor.predict(history), calls) * 1e6)
    return out


def probe_event_queue(n: int = 60_000) -> Dict[str, float]:
    noop = lambda: None  # noqa: E731
    queue = EventQueue()
    started = time.perf_counter()
    for i in range(n):
        queue.push(Event(time=float(i % 997), priority=0, callback=noop))
    while queue:
        queue.pop()
    push_pop = 2 * n / (time.perf_counter() - started)
    # 80 % of scheduled events are cancelled before they fire: the
    # regime lazy-cancellation compaction exists for.
    sim = Simulator()
    started = time.perf_counter()
    for i in range(n):
        handle = sim.schedule_at(float(i), noop)
        if i % 5:
            sim.cancel(handle)
    sim.run()
    churn = 2 * n / (time.perf_counter() - started)
    return {
        "sim.engine.push_pop_ops_per_s": push_pop,
        "sim.engine.cancel_churn_ops_per_s": churn,
    }


def probe_registry(seed: int) -> Dict[str, float]:
    rng = np.random.default_rng(seed)
    values = rng.lognormal(5.0, 1.0, 100_000)
    few = [float(v) for v in values[:20_000]]
    hist = Histogram()
    started = time.perf_counter()
    for v in few:
        hist.observe(v)
    observe_ns = (time.perf_counter() - started) / len(few) * 1e9
    started = time.perf_counter()
    hist.observe_many(values)
    many_ns = (time.perf_counter() - started) / values.size * 1e9
    other = Histogram()
    other.observe_many(values)
    merge_us = _per_call_s(lambda: hist.merge(other), 200) * 1e6
    # A registry shaped like one gateway's: a few dozen counters, four
    # latency histograms, per-function gauges.
    registry = MetricsRegistry()
    for i in range(40):
        registry.counter(f"probe_counter_{i}_total").inc(i)
    for fn in range(8):
        registry.gauge("pool_containers", function=f"f{fn}").set(fn)
    for name in ("latency", "queue", "exec", "cold"):
        registry.histogram(f"request_{name}_ms").observe_many(values[:5000])
    snapshot_ms = _per_call_s(lambda: prometheus_snapshot(registry), 20) * 1e3
    snapshots = [snapshot_registry(registry) for _ in range(4)]
    merge_ms = _per_call_s(
        lambda: merge_registry_snapshots(snapshots), 20) * 1e3
    return {
        "obs.registry.observe_ns": observe_ns,
        "obs.registry.observe_many_ns_per_value": many_ns,
        "obs.registry.hist_merge_us": merge_us,
        "obs.export.prometheus_snapshot_ms": snapshot_ms,
        "shard.live.merge_snapshots_ms": merge_ms,
    }


def probe_span_export(scratch: pathlib.Path, n_jobs: int = 2000) -> Dict[str, float]:
    tracer = Tracer(sample_rate=1.0)
    for job in range(n_jobs):
        trace_id = f"job-{job}"
        root = f"{trace_id}/request"
        tracer.span("request", trace_id, root, 0.0, 250.0, None,
                    job_id=job, app="probe", outcome="completed")
        for stage in range(4):
            tracer.span("exec", trace_id, f"{trace_id}/{stage}/exec",
                        10.0 * stage, 10.0 * stage + 5.0, root,
                        function=f"f{stage}", stage_index=stage, exec_ms=5.0)
    started = time.perf_counter()
    write_spans_jsonl(tracer.spans, scratch / "probe-spans.jsonl")
    per_span_us = (time.perf_counter() - started) / len(tracer.spans) * 1e6
    return {"obs.export.spans_jsonl_us_per_span": per_span_us}


def probe_journal(scratch: pathlib.Path) -> Dict[str, float]:
    """Cost of one append under each half of the fsync policy: hop
    records batch (one fsync per 32), admits force one fsync each."""
    directory = scratch / "probe-journal"
    shutil.rmtree(directory, ignore_errors=True)
    journal = RequestJournal(directory / "journal.jsonl")
    try:
        n_batched, n_durable = 6400, 300
        started = time.perf_counter()
        for i in range(n_batched):
            journal.append(EV_HOP, i, float(i), stage=1)
        journal.flush()
        batched_us = (time.perf_counter() - started) / n_batched * 1e6
        started = time.perf_counter()
        for i in range(n_durable):
            journal.append(EV_ADMIT, i, float(i), app="probe", scale=1.0)
        durable_us = (time.perf_counter() - started) / n_durable * 1e6
    finally:
        journal.close()
    # A control-plane snapshot shaped like ServingRuntime's: pool sizes
    # plus the sampler's 10 s arrival window at 400 req/s.
    state = {
        "policy": "rscale", "seed": 0, "t_ms": 10_000.0,
        "pools": {f"f{i}": {"containers": 12} for i in range(8)},
        "sampler": {"arrivals_ms": [float(i) * 2.5 for i in range(4000)]},
        "governor": None, "store": {}, "in_flight": 3,
    }
    checkpointer = CheckpointManager(directory, interval_ms=1000.0)
    save_ms = _per_call_s(lambda: checkpointer.save(state, 10_000.0), 20) * 1e3
    shutil.rmtree(directory, ignore_errors=True)
    return {
        "serve.journal.append_us.batched": batched_us,
        "serve.journal.append_us.durable": durable_us,
        "serve.checkpoint.save_ms": save_ms,
    }


def probe_shard(seed: int) -> Dict[str, float]:
    build_ms = _per_call_s(lambda: ConsistentHashRing(4), 5) * 1e3
    ring = ConsistentHashRing(4)
    keys = np.arange(1_000_000, dtype=np.uint64)
    ring.shard_for_array(keys[:1000])
    started = time.perf_counter()
    ring.shard_for_array(keys)
    lookup_ns = (time.perf_counter() - started) / keys.size * 1e9
    rng = np.random.default_rng(seed)
    trace = ArrivalTrace(np.sort(rng.uniform(0.0, 600_000.0, 300_000)))
    started = time.perf_counter()
    partition_arrivals(trace, ring)
    partition_per_s = len(trace) / (time.perf_counter() - started)
    return {
        "shard.ring.build_ms": build_ms,
        "shard.ring.lookup_ns_per_key": lookup_ns,
        "shard.sim.partition_arrivals_per_s": partition_per_s,
    }


def run_all(
    recorder, seed: int, scratch: pathlib.Path,
    fitted_lstm: Optional[Predictor],
) -> Dict[str, float]:
    """Every probe, each under its own span of *recorder*."""
    probes = {
        "probe.predictors": lambda: probe_predictors(seed, fitted_lstm),
        "probe.event_queue": probe_event_queue,
        "probe.registry": lambda: probe_registry(seed),
        "probe.span_export": lambda: probe_span_export(scratch),
        "probe.journal": lambda: probe_journal(scratch),
        "probe.shard": lambda: probe_shard(seed),
    }
    out: Dict[str, float] = {}
    for name, probe in probes.items():
        # The workload's results are still alive; without this a probe
        # that allocates would time the collector walking that heap.
        gc.collect()
        gc.disable()
        try:
            with recorder.span(name):
                out.update(probe())
        finally:
            gc.enable()
    return out
