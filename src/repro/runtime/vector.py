"""The vectorized batch engine (``engine="vector"``).

DESIGN.md section 13.  This engine replaces the object-per-event
discrete simulator with a flat representation tuned for mega-scale
replays (the Wiki trace at paper scale):

* **SoA job records** — no ``Job``/``Task``/``JobStage`` objects on the
  hot path.  A job is an index; its per-stage latency record lives at
  ``job_base[j] + stage`` inside flat parallel arrays (enqueue / start /
  end / exec / cold), converted to numpy in one shot at finalize time.
* **Batch admission** — every arrival's application is pre-sampled in
  one vectorized draw (:func:`repro.core.vectorized.presample_app_indices`),
  blackout-covered arrivals are masked in one pass, and (when admission
  cannot shed) the whole record layout is laid out up front with
  :func:`repro.core.vectorized.job_record_layout`.
* **Flat tuple heap + merged arrival cursor** — events are plain
  ``(time, seq, kind, a, b)`` tuples compared in C; arrivals never
  enter the heap at all (a cursor over the sorted trace array is merged
  against the heap head, consuming virtual sequence numbers so ordering
  is identical to the event-loop engine).
* **Epoch-driven run loop** — the horizon is drained in monitor-epoch
  chunks (:func:`repro.core.vectorized.epoch_boundaries`); scalers,
  reaping and sampling run at exactly the event loop's tick cadence —
  the shared :class:`~repro.core.controlplane.ControlPlane` — against
  duck-typed :class:`VectorPool` objects, so the *decision logic* is
  the real, shared code from ``core/scaling.py``.
* **Vectorized finalize** — per-job latency breakdowns come from
  ``np.add.reduceat`` segment sums over the flat records, and the run
  histograms are fed through ``Histogram.observe_many``.

Where it diverges from the event loop — and why results don't:
the engine replays the *exact* event order (virtual sequence numbers
replicate heap tie-breaking, including the stream cursor's
reschedule-before-callback rule), consumes the *exact* RNG streams
(one ``standard_normal`` z-buffer serves cold-start and exec draws in
draw order; ``lognormal(0, s)`` ≡ ``exp(s·z)`` and
``normal(m, s)`` ≡ ``m + s·z`` bit for bit), and mirrors every
counter-visible side effect.  ``tests/test_vector_parity.py`` asserts
identical ``RunResult`` summaries against the event-loop engine across a
policy × trace × mix × seed grid.

Two result-invisible shortcuts are taken deliberately: per-job
``StateStore`` rows are not written (pool/stage rows still are), and
global ``Job`` ids are only consumed when a tracer is attached (span
output is id-normalized by the golden harness).  Configurations the
flat loop cannot replicate exactly raise
:class:`VectorEngineUnsupported` instead of silently diverging.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from functools import partial
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster.coldstart import ColdStartModel
from repro.cluster.container import _container_ids
from repro.core.controlplane import (
    ControlPlane,
    prewarm_opening_capacity,
    reclaim_idle_capacity,
    wire_scalers,
)
from repro.core.scheduling import LSFQueue, make_queue
from repro.core.vectorized import (
    covered_mask,
    epoch_boundaries,
    job_record_layout,
    presample_app_indices,
)
from repro.metrics.collector import RunResult, run_rollups
from repro.obs.trace import record_job_spans
from repro.sim.engine import FlatClock
from repro.workflow.job import Job, _job_ids
from repro.workflow.lifecycle import SHED_EXPIRED_REASON

__all__ = ["VectorEngine", "VectorEngineUnsupported", "run_vector"]

# Event kinds on the flat heap.  Entries are (time, seq, kind, a, b);
# (time, seq) is unique, so comparison never reaches the payload.
K_ENQ = 0        # a=job index, b=stage index
K_READY = 1      # a=container
K_COMPLETE = 2   # a=container
K_TICK = 3       # monitor tick
K_BLACKOUT = 4   # a=0 start / 1 end

# Container states as plain ints (cheap compares on the hot path).
S_SPAWNING, S_IDLE, S_BUSY, S_DEAD = 0, 1, 2, 3

#: Standard-normal draws buffered per refill.  Over-consuming the
#: stream at run end is harmless: nothing reads ``rng_exec`` afterward.
_Z_CHUNK = 8192

#: Head-pointer lists are physically compacted once the dead prefix
#: crosses this length (and dominates), preserving element order.
_PRUNE_COMPACT = 512


class VectorEngineUnsupported(RuntimeError):
    """This configuration needs per-event machinery the flat loop does
    not replicate; run it with ``engine="fast"`` instead."""


class VectorContainer:
    """Flat container record (duck-typed where scalers peek at it)."""

    __slots__ = (
        "cid", "batch", "node", "pool", "state", "ready_at",
        "lq", "cur_j", "cur_s", "cur_r", "tx", "last_used", "busy",
    )

    def __init__(self, cid, batch, node, pool, now, cold):
        self.cid = cid
        self.batch = batch
        self.node = node
        self.pool = pool
        self.state = S_SPAWNING
        self.ready_at = now + cold
        self.lq = deque()
        self.cur_j = -1
        self.cur_s = -1
        self.cur_r = -1          # record index of the running task
        self.tx = 0
        self.last_used = now
        self.busy = 0.0

    # -- adapters for code shared with the event-loop engine -----------

    @property
    def occupied_slots(self) -> int:
        return len(self.lq) + (1 if self.cur_r >= 0 else 0)

    @property
    def free_slots(self) -> int:
        return self.batch - len(self.lq) - (1 if self.cur_r >= 0 else 0)

    @property
    def is_reapable(self) -> bool:
        return self.state == S_IDLE and not self.lq

    @property
    def tasks_executed(self) -> int:
        return self.tx

    @property
    def last_used_ms(self) -> float:
        return self.last_used


class VectorPool:
    """SoA stand-in for :class:`~repro.workflow.pool.FunctionPool`.

    Exposes the full monitoring / scaling surface the shared control
    plane (ReactiveScaler, ProactiveScaler, HPAScaler, SpawnGovernor,
    ``static_pool_sizes``) reads, while the engine drives the data
    plane (queues, dispatch, records) directly.
    """

    # Never incremented by the vector engine (no fault model support);
    # plain class attrs keep the collector's per-pool sums valid.
    task_retries = 0
    container_crashes = 0
    task_timeouts = 0
    tasks_dead_lettered = 0

    def __init__(self, eng, service, batch_size, stage_slack_ms,
                 stage_response_ms, scheduling, spawn_on_demand,
                 reap_exempt, single_use, delay_window_ms, registry):
        self.eng = eng
        self.service = service
        self.cluster = eng.cluster
        self.cold_start = eng.cold_model
        self.batch_size = batch_size
        self.stage_slack_ms = stage_slack_ms
        self.stage_response_ms = stage_response_ms
        self.lsf = isinstance(make_queue(scheduling), LSFQueue)
        self.q = [] if self.lsf else deque()
        self.qn = 0              # LSF insertion tiebreaker (per pool)
        self.spawn_on_demand = spawn_on_demand
        self.reap_exempt = reap_exempt
        self.single_use = single_use
        self.delay_window_ms = delay_window_ms
        self.reclaim_callback: Optional[Callable[[], bool]] = None
        self.containers: List[VectorContainer] = []
        self.n_live = 0
        self.prewarmed = 0
        self.spawn_times_ms: List[float] = []
        self.retired_task_counts: List[int] = []
        self.enq_n = 0           # tasks enqueued (synced at finalize)
        self.done_n = 0          # tasks completed (synced at finalize)
        # Head-pointer windows (event loop: deques pruned with strict <).
        self.waiting: List[int] = []       # record indices, FIFO
        self.whead = 0
        self.recent_enq: List[float] = []  # enqueue times
        self.ehead = 0
        self.recent_delays: List[tuple] = []  # (t, queue_delay)
        self.dhead = 0
        # The same per-pool registry metrics FunctionPool creates.
        svc_mean = service.mean_exec_ms
        self.svc_mean = svc_mean * 1.0     # input_scale pinned to 1.0
        self.svc_std = service.exec_std_ms
        label = {"pool": service.name}
        self._c_crashes = registry.counter(
            "pool_container_crashes_total", **label)
        self._c_retries = registry.counter("pool_task_retries_total", **label)
        self._c_timeouts = registry.counter(
            "pool_task_timeouts_total", **label)
        self._c_dead = registry.counter(
            "pool_tasks_dead_lettered_total", **label)
        self._c_spawns = registry.counter("pool_spawns_total", **label)
        self._c_failed_spawns = registry.counter(
            "pool_failed_spawns_total", **label)
        self._c_enqueued = registry.counter(
            "pool_tasks_enqueued_total", **label)
        self._c_shed = registry.counter("pool_tasks_shed_total", **label)
        self._c_completed = registry.counter(
            "pool_tasks_completed_total", **label)
        self._g_containers = registry.gauge("pool_live_containers", **label)

    # -- identity / capacity (scaler-facing) ---------------------------

    @property
    def function(self) -> str:
        return self.service.name

    @property
    def n_containers(self) -> int:
        return self.n_live

    @property
    def capacity_requests(self) -> int:
        return self.n_live * self.batch_size

    @property
    def queue_length(self) -> int:
        return len(self.q)

    @property
    def live_containers(self) -> List[VectorContainer]:
        return [c for c in self.containers if c.state != S_DEAD]

    @property
    def free_slots(self) -> int:
        total = 0
        for c in self.containers:
            st = c.state
            if st == S_IDLE or st == S_BUSY:
                total += c.batch - len(c.lq) - (1 if c.cur_r >= 0 else 0)
        return total

    @property
    def pending_capacity(self) -> int:
        return sum(c.batch - len(c.lq) for c in self.containers
                   if c.state == S_SPAWNING)

    @property
    def total_spawns(self) -> int:
        return int(self._c_spawns.value)

    @property
    def failed_spawns(self) -> int:
        return int(self._c_failed_spawns.value)

    @property
    def tasks_shed(self) -> int:
        return int(self._c_shed.value)

    @property
    def tasks_enqueued(self) -> int:
        return self.enq_n

    @property
    def tasks_completed(self) -> int:
        return self.done_n

    # -- monitoring (scaler-facing) ------------------------------------

    def recent_arrival_rate_rps(self) -> float:
        re = self.recent_enq
        h = self.ehead
        n = len(re)
        horizon = self.eng.now - self.delay_window_ms
        while h < n and re[h] < horizon:
            h += 1
        if h > _PRUNE_COMPACT and h > (n >> 1):
            del re[:h]
            h = 0
            n = len(re)
        self.ehead = h
        window_s = self.delay_window_ms / 1000.0
        return (n - h) / window_s if window_s > 0 else 0.0

    def recent_queue_delay_ms(self) -> float:
        rd = self.recent_delays
        h = self.dhead
        n = len(rd)
        horizon = self.eng.now - self.delay_window_ms
        while h < n and rd[h][0] < horizon:
            h += 1
        if h > _PRUNE_COMPACT and h > (n >> 1):
            del rd[:h]
            h = 0
            n = len(rd)
        self.dhead = h
        if n - h <= 0:
            return 0.0
        total = 0.0
        for i in range(h, n):
            total += rd[i][1]
        return total / (n - h)

    def oldest_waiting_age_ms(self) -> float:
        w = self.waiting
        h = self.whead
        n = len(w)
        rec_start = self.eng.rec_start
        while h < n and rec_start[w[h]] >= 0:
            h += 1
        if h > _PRUNE_COMPACT and h > (n >> 1):
            del w[:h]
            h = 0
            n = len(w)
        self.whead = h
        if h >= n:
            return 0.0
        return self.eng.now - self.eng.rec_enq[w[h]]

    def monitored_delay_ms(self) -> float:
        return max(self.recent_queue_delay_ms(), self.oldest_waiting_age_ms())

    def tasks_per_container(self) -> float:
        counts = list(self.retired_task_counts) + [
            c.tx for c in self.containers if c.state != S_DEAD]
        if not counts:
            return 0.0
        return sum(counts) / len(counts)

    # -- actuation (scaler-facing; engine does the real work) ----------

    def dispatch(self) -> None:
        self.eng.dispatch_pool(self)

    def spawn(self, count: int = 1) -> int:
        return len(self.eng.spawn_list(self, count))

    def scale_up_to(self, n_target: int) -> int:
        deficit = n_target - self.n_live
        if deficit <= 0:
            return 0
        return self.spawn(deficit)

    def prewarm(self, count: int) -> int:
        return self.eng.prewarm_pool(self, count)

    def record_shed(self) -> None:
        self._c_shed.inc()

    def reap_idle(self, idle_timeout_ms: float) -> int:
        if self.reap_exempt:
            return 0
        now = self.eng.now
        reaped = 0
        for c in self.containers:
            if (c.state == S_IDLE and not c.lq
                    and now - c.last_used >= idle_timeout_ms):
                self._retire(c)
                reaped += 1
        if reaped:
            self._compact()
        return reaped

    def reclaim_one_idle(self, exclude_busy_window_ms: float = 0.0) -> bool:
        best = None
        for c in self.containers:
            if c.state != S_IDLE or c.lq:
                continue
            if best is None or c.last_used < best.last_used:
                best = c
        if best is None:
            return False
        if (exclude_busy_window_ms > 0.0
                and self.eng.now - best.last_used < exclude_busy_window_ms):
            return False
        self._retire(best)
        self._compact()
        return True

    def _retire(self, c: VectorContainer) -> None:
        c.state = S_DEAD
        self.retired_task_counts.append(c.tx)
        svc = self.service
        self.cluster.release(c.node, self.eng.now,
                             cpu=svc.cpu_cores, memory_mb=svc.memory_mb)
        self.n_live -= 1

    def _compact(self) -> None:
        self.containers = [c for c in self.containers if c.state != S_DEAD]


def _check_supported(system) -> None:
    if system.shared_cluster is not None:
        raise VectorEngineUnsupported(
            "vector engine cannot share a cluster (multi-tenant attach); "
            "use engine='fast'")
    if system.fault_model is not None:
        raise VectorEngineUnsupported(
            "vector engine does not support container fault injection; "
            "use engine='fast'")
    if system.input_scale_sampler is not None:
        raise VectorEngineUnsupported(
            "vector engine pins input_scale to 1.0 (no per-job sampler); "
            "use engine='fast'")
    if type(system.cold_start_model) is not ColdStartModel:
        raise VectorEngineUnsupported(
            "vector engine requires the stock ColdStartModel; "
            "use engine='fast'")


class VectorEngine:
    """One run of one system over one trace, flattened.

    Steppable: the sharded sim constructs one per shard and drives them
    epoch by epoch via ``step_until``.
    """

    def __init__(self, system, trace) -> None:
        _check_supported(system)
        self.system = system
        self.trace = trace
        self.config = system.config
        self.mix = system.mix
        self.cold_model = system.cold_start_model
        self.tracer = system.tracer
        self.blackout = system.blackout
        self.shed_on = system.shed_expired
        self.now = 0.0
        self._events = 0
        self._heap: List[tuple] = []
        self._seq = 0
        self._build()
        self._precompute_apps()
        self._admit_batch()
        self._attach()

    # -- wiring (mirrors ServerlessSystem._build + attach) -------------

    def _build(self) -> None:
        system = self.system
        config = self.config
        system._build_substrate()
        registry = self.registry = system.registry
        self.cluster = system.cluster
        self._rng_apps = system._rng_apps
        self._rng_exec = system._rng_exec
        self._zbuf: List[float] = []
        self._zi = 0
        self._zn = 0
        self.sampler = system.sampler
        self.energy_meter = system.energy_meter
        # Run-level metrics (MetricsCollector parity: created eagerly).
        self._c_created = registry.counter("jobs_created_total")
        self._c_completed = registry.counter("jobs_completed_total")
        self._c_failed = registry.counter("jobs_failed_total")
        self._h_latency = registry.histogram("request_latency_ms")
        self._h_queue = registry.histogram("request_queue_wait_ms")
        self._h_exec = registry.histogram("request_exec_ms")
        self._h_cold = registry.histogram("request_cold_start_wait_ms")
        self.pools: Dict[str, VectorPool] = {}
        for name in self.mix.function_names():
            svc = system._service(name)
            self.pools[name] = VectorPool(
                self, svc,
                batch_size=system.batch_sizes[name],
                stage_slack_ms=system.stage_slacks[name],
                stage_response_ms=system.stage_responses[name],
                scheduling=config.scheduling,
                spawn_on_demand=config.spawn_on_demand,
                reap_exempt=config.static_pool,
                single_use=config.single_use,
                delay_window_ms=config.monitor_interval_ms,
                registry=registry,
            )
        system.pools = self.pools
        reclaim = partial(reclaim_idle_capacity, self.pools)
        for pool in self.pools.values():
            pool.reclaim_callback = reclaim
        # The real control plane (shared scalers, shared guarded tick)
        # over the duck-typed pools; only ``sample`` is the engine's.
        self.control = system.control = ControlPlane(
            config, self.pools, registry, sample=self._sample,
            **wire_scalers(
                config, self.pools, system.predictor, self.sampler,
                system.stage_shares, registry, seed=system.seed + 2),
        )

    def _precompute_apps(self) -> None:
        """Flatten per-application constants into index-addressed rows."""
        apps = list(self.mix.applications)
        self.apps = apps
        self.app_over = [a.transition_overhead_ms for a in apps]
        self.app_slo = [a.slo_ms for a in apps]
        self.app_slack = [a.slack_ms for a in apps]
        self.app_nst = [a.n_stages for a in apps]
        self.app_last = [a.n_stages - 1 for a in apps]
        # Same cached suffix sums the LSF slack key uses in the event loop.
        self.app_rw = [
            tuple(a.remaining_work_ms(s) for s in range(a.n_stages))
            for a in apps
        ]
        self.app_pools = [
            tuple(self.pools[name] for name in a.stage_names) for a in apps
        ]
        self.app_first_pool = [pp[0] for pp in self.app_pools]

    def _admit_batch(self) -> None:
        """Vectorized batch admission: pre-draw every arrival's app,
        mask blackout-covered arrivals, and (when admission cannot
        shed) lay out the whole flat record space up front."""
        times = np.asarray(self.trace.arrivals_ms, dtype=np.float64)
        self._n_arr = int(times.size)
        self._arr_times = times.tolist()
        if self.blackout is not None:
            cov = covered_mask(times, self.blackout.at_ms,
                               self.blackout.until_ms)
        else:
            cov = np.zeros(times.size, dtype=bool)
        uncovered = ~cov
        k = int(np.count_nonzero(uncovered))
        # Uncovered arrivals consume app draws in arrival order; covered
        # ones consume nothing (the event loop's blackout branch returns
        # before sampling).
        cdf = self.mix._weight_cdf
        drawn = presample_app_indices(cdf, self._rng_apps, k)
        arr_app = np.full(times.size, -1, dtype=np.int64)
        arr_app[uncovered] = drawn
        self._arr_app = arr_app.tolist()
        # SoA job state.  Static layout when admission cannot shed
        # (every uncovered arrival is admitted); grown per-admission
        # under --shed-expired.
        if not self.shed_on:
            arr_job = np.full(times.size, -1, dtype=np.int64)
            arr_job[uncovered] = np.arange(k)
            self._arr_job = arr_job.tolist()
            nst = np.asarray(self.app_nst, dtype=np.intp)
            counts = nst[drawn] if k else np.empty(0, dtype=np.intp)
            base, total = job_record_layout(counts)
            self.job_app = drawn.tolist()
            self.job_arrival = times[uncovered].tolist()
            self.job_base = base.tolist()
            self.job_completion = [-1.0] * k
            self.rec_enq = [-1.0] * total
            self.rec_start = [-1.0] * total
            self.rec_end = [-1.0] * total
            self.rec_exec = [0.0] * total
            self.rec_cold = [0.0] * total
        else:
            self._arr_job = None
            self.job_app = []
            self.job_arrival = []
            self.job_base = []
            self.job_completion = []
            self.rec_enq = []
            self.rec_start = []
            self.rec_end = []
            self.rec_exec = []
            self.rec_cold = []
        self._created = 0
        self._gateway_shed = 0
        self._shed_deadline = 0
        self._blackout_lost = 0
        self._completed_order: List[int] = []
        self._failed: List[int] = []
        self._failed_ms: Dict[int, float] = {}
        self._terminal = [] if self.tracer is not None else None

    def _attach(self) -> None:
        """Replicate attach()'s event schedule, including sequence-number
        assignment order (cursor first, then prewarms, then blackout
        edges, then the first monitor tick)."""
        system = self.system
        config = self.config
        trace = self.trace
        system._trace_name = trace.name
        # 1. Arrival cursor: virtual seq 0 when the trace is non-empty.
        self._ai = 0
        if self._n_arr > 0:
            self._a_seq = 0
            self._seq = 1
        else:
            self._a_seq = -1
            self._seq = 0
        # 2. Prewarm (same ready-event order: pools in mix order).
        prewarm_opening_capacity(
            self.pools, trace, config, system.stage_shares)
        # 3. (node events — refused when the system was built)
        # 4. Blackout edges: crash then recovery counters.
        if self.blackout is not None:
            heapq.heappush(self._heap, (self.blackout.at_ms, self._seq,
                                        K_BLACKOUT, 0, 0))
            self._seq += 1
            heapq.heappush(self._heap, (self.blackout.until_ms, self._seq,
                                        K_BLACKOUT, 1, 0))
            self._seq += 1
        # 5. Monitor: first tick one interval in.
        heapq.heappush(self._heap, (config.monitor_interval_ms, self._seq,
                                    K_TICK, 0, 0))
        self._seq += 1
        self.sample_times: List[float] = []
        self.pool_samples: Dict[str, List[int]] = {}

    # -- RNG (one z stream serves cold + exec draws in draw order) -----

    def _draw_z(self) -> float:
        i = self._zi
        if i >= self._zn:
            self._zbuf = self._rng_exec.standard_normal(_Z_CHUNK).tolist()
            self._zn = _Z_CHUNK
            i = 0
        self._zi = i + 1
        return self._zbuf[i]

    # -- data plane ----------------------------------------------------

    def dispatch_pool(self, pool: VectorPool) -> None:
        q = pool.q
        if not q:
            return
        containers = pool.containers
        lsf = pool.lsf
        heappop = heapq.heappop
        while q:
            best = None
            bf = 0x7FFFFFFF
            for c in containers:
                st = c.state
                if st != S_IDLE and st != S_BUSY:
                    continue
                f = c.batch - len(c.lq) - (1 if c.cur_r >= 0 else 0)
                if f <= 0 or f >= bf:
                    continue
                best = c
                bf = f
                if f == 1:
                    # 1 is the global minimum and ties keep the first
                    # hit, so the scan can stop here.
                    break
            if best is None:
                return
            if lsf:
                item = heappop(q)
                best.lq.append((item[2], item[3]))
            else:
                best.lq.append(q.popleft())
            if best.state == S_IDLE and best.cur_r < 0:
                self.start_next(best)

    def start_next(self, c: VectorContainer) -> None:
        j, s = c.lq.popleft()
        c.cur_j = j
        c.cur_s = s
        c.state = S_BUSY
        r = self.job_base[j] + s
        c.cur_r = r
        now = self.now
        self.rec_start[r] = now
        e = self.rec_enq[r]
        ra = c.ready_at
        if ra > e:
            self.rec_cold[r] = (ra if ra < now else now) - e
        pool = c.pool
        std = pool.svc_std
        if std != 0.0:
            mean = pool.svc_mean
            ex = mean + std * self._draw_z()
            lo = 0.1 * mean
            if ex < lo:
                ex = lo
        else:
            ex = pool.svc_mean
        self.rec_exec[r] = ex
        heapq.heappush(self._heap, (now + ex, self._seq, K_COMPLETE, c, 0))
        self._seq += 1

    def spawn_list(self, pool: VectorPool, count: int) -> List[VectorContainer]:
        out: List[VectorContainer] = []
        now = self.now
        svc = pool.service
        cpu = svc.cpu_cores
        mem = svc.memory_mb
        cluster = self.cluster
        mean = self.cold_model.mean_ms(pool.function)
        sigma = self.cold_model.jitter_sigma
        for _ in range(count):
            node = cluster.place(cpu=cpu, memory_mb=mem)
            if node is None and pool.reclaim_callback is not None:
                if pool.reclaim_callback():
                    node = cluster.place(cpu=cpu, memory_mb=mem)
            if node is None:
                pool._c_failed_spawns.inc()
                continue
            if sigma > 0:
                cold = mean * math.exp(sigma * self._draw_z())
            else:
                cold = mean
            c = VectorContainer(next(_container_ids), pool.batch_size,
                                node, pool, now, cold)
            heapq.heappush(self._heap,
                           (now + cold, self._seq, K_READY, c, 0))
            self._seq += 1
            pool.containers.append(c)
            pool.n_live += 1
            pool._c_spawns.inc()
            pool.spawn_times_ms.append(now)
            out.append(c)
        return out

    def prewarm_pool(self, pool: VectorPool, count: int) -> int:
        now = self.now
        svc = pool.service
        placed = 0
        for _ in range(count):
            node = self.cluster.place(cpu=svc.cpu_cores,
                                      memory_mb=svc.memory_mb)
            if node is None:
                break
            c = VectorContainer(next(_container_ids), pool.batch_size,
                                node, pool, now, 0.0)
            heapq.heappush(self._heap, (now, self._seq, K_READY, c, 0))
            self._seq += 1
            pool.containers.append(c)
            pool.n_live += 1
            pool.prewarmed += 1
            placed += 1
        return placed

    def spawn_for_backlog(self, pool: VectorPool) -> None:
        q = pool.q
        qlen = len(q)
        free = 0
        pending = 0
        for c in pool.containers:
            st = c.state
            if st == S_IDLE or st == S_BUSY:
                free += c.batch - len(c.lq) - (1 if c.cur_r >= 0 else 0)
            elif st == S_SPAWNING:
                pending += c.batch - len(c.lq)
        deficit = qlen - free - pending
        if deficit <= 0:
            return
        spawned = self.spawn_list(pool, math.ceil(deficit / pool.batch_size))
        lsf = pool.lsf
        heappop = heapq.heappop
        for c in spawned:
            lq = c.lq
            while len(lq) < c.batch and q:
                if lsf:
                    item = heappop(q)
                    lq.append((item[2], item[3]))
                else:
                    lq.append(q.popleft())

    def _deadline_expired(self, a: int) -> bool:
        pool = self.app_first_pool[a]
        if pool.free_slots > 0:
            return False
        return pool.monitored_delay_ms() > self.app_slack[a]

    # -- control plane (real scalers at tick cadence) ------------------

    def _tick(self, now: float) -> None:
        bl = self.blackout
        if bl is not None and bl.covers(now):
            self.registry.counter("control_plane_ticks_skipped_total").inc()
            return
        self.control.tick(now)

    def _sample(self, now: float) -> None:
        self.sample_times.append(now)
        for name, pool in self.pools.items():
            n = pool.n_live
            self.pool_samples.setdefault(name, []).append(n)
            pool._g_containers.set(n)
        if self.system.sample_energy:
            self.energy_meter.sample(self.cluster.nodes, now)

    # -- the merged run loop -------------------------------------------

    def step_until(self, until: float) -> None:
        """Advance the merged run loop to *until* (one monitor epoch).

        The public stepping surface: the sharded sim interleaves N
        engines by stepping each to the same boundary, reconciling them
        through the global orchestrator between epochs.  ``run()`` below
        is exactly this primitive in a loop, so a 1-shard stepped run
        replays the solo path.
        """
        heap = self._heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        times = self._arr_times
        arr_app = self._arr_app
        arr_job = self._arr_job
        n_arr = self._n_arr
        ai = self._ai
        a_seq = self._a_seq
        executed = self._events
        job_app = self.job_app
        job_arrival = self.job_arrival
        job_base = self.job_base
        job_completion = self.job_completion
        rec_enq = self.rec_enq
        rec_start = self.rec_start
        rec_end = self.rec_end
        rec_exec = self.rec_exec
        app_over = self.app_over
        app_slo = self.app_slo
        app_nst = self.app_nst
        app_last = self.app_last
        app_rw = self.app_rw
        app_pools = self.app_pools
        shed_on = self.shed_on
        terminal = self._terminal
        completed = self._completed_order
        sampler_record = self.sampler.record
        interval = self.config.monitor_interval_ms
        while True:
            take_arrival = False
            at = 0.0
            if ai < n_arr:
                at = times[ai]
                if not heap:
                    take_arrival = True
                else:
                    h0 = heap[0]
                    if at < h0[0] or (at == h0[0] and a_seq < h0[1]):
                        take_arrival = True
            if take_arrival:
                if at > until:
                    break
                # Advance the cursor *before* the body (the stream
                # cursor reschedules itself first, so events pushed by
                # the arrival get later sequence numbers than the next
                # arrival's).
                idx = ai
                ai += 1
                a_seq = self._seq
                self._seq += 1
                self.now = at
                executed += 1
                self._created += 1
                a = arr_app[idx]
                if a < 0:
                    # Blackout-covered: lost at the front door (no
                    # sampler, no app draw).
                    self._gateway_shed += 1
                    self._blackout_lost += 1
                    continue
                sampler_record(at)
                if shed_on:
                    if self._deadline_expired(a):
                        self._gateway_shed += 1
                        self._shed_deadline += 1
                        continue
                    j = len(job_app)
                    job_app.append(a)
                    job_arrival.append(at)
                    job_completion.append(-1.0)
                    job_base.append(len(rec_enq))
                    nst = app_nst[a]
                    rec_enq.extend([-1.0] * nst)
                    rec_start.extend([-1.0] * nst)
                    rec_end.extend([-1.0] * nst)
                    rec_exec.extend([0.0] * nst)
                    self.rec_cold.extend([0.0] * nst)
                else:
                    j = arr_job[idx]
                heappush(heap, (at + app_over[a], self._seq, K_ENQ, j, 0))
                self._seq += 1
                continue
            if not heap:
                break
            h0 = heap[0]
            now = h0[0]
            if now > until:
                break
            heappop(heap)
            self.now = now
            executed += 1
            kind = h0[2]
            if kind == K_ENQ:
                j = h0[3]
                s = h0[4]
                a = job_app[j]
                pool = app_pools[a][s]
                if shed_on and s > 0:
                    key = (job_arrival[j] + app_slo[a]) - app_rw[a][s]
                    if key - now < 0 and pool.free_slots == 0:
                        # Already-dead task at a saturated stage: shed
                        # without touching its enqueue record.
                        pool._c_shed.inc()
                        self._failed.append(j)
                        self._failed_ms[j] = now
                        if terminal is not None:
                            terminal.append((j, True))
                        continue
                r = job_base[j] + s
                rec_enq[r] = now
                if pool.lsf:
                    key = (job_arrival[j] + app_slo[a]) - app_rw[a][s]
                    heappush(pool.q, (key, pool.qn, j, s))
                    pool.qn += 1
                else:
                    pool.q.append((j, s))
                pool.waiting.append(r)
                pool.enq_n += 1
                re = pool.recent_enq
                re.append(now)
                h = pool.ehead
                horizon = now - pool.delay_window_ms
                n = len(re)
                while h < n and re[h] < horizon:
                    h += 1
                if h > _PRUNE_COMPACT and h > (n >> 1):
                    del re[:h]
                    h = 0
                pool.ehead = h
                if pool.spawn_on_demand:
                    self.spawn_for_backlog(pool)
                self.dispatch_pool(pool)
            elif kind == K_COMPLETE:
                c = h0[3]
                if c.state == S_DEAD:
                    continue
                r = c.cur_r
                if r < 0:
                    continue
                j = c.cur_j
                s = c.cur_s
                rec_end[r] = now
                c.busy += rec_exec[r]
                c.tx += 1
                c.last_used = now
                c.cur_r = -1
                if c.lq:
                    self.start_next(c)
                else:
                    c.state = S_IDLE
                pool = c.pool
                pool.done_n += 1
                rd = pool.recent_delays
                rd.append((now, rec_start[r] - rec_enq[r]))
                h = pool.dhead
                horizon = now - pool.delay_window_ms
                n = len(rd)
                while h < n and rd[h][0] < horizon:
                    h += 1
                if h > _PRUNE_COMPACT and h > (n >> 1):
                    del rd[:h]
                    h = 0
                pool.dhead = h
                if pool.single_use and c.state == S_IDLE and not c.lq:
                    pool._retire(c)
                    pool._compact()
                a = job_app[j]
                if s == app_last[a]:
                    job_completion[j] = now
                    completed.append(j)
                    if terminal is not None:
                        terminal.append((j, False))
                else:
                    heappush(heap,
                             (now + app_over[a], self._seq, K_ENQ, j, s + 1))
                    self._seq += 1
                self.dispatch_pool(pool)
            elif kind == K_READY:
                c = h0[3]
                if c.state == S_DEAD:
                    continue
                c.state = S_IDLE
                c.last_used = now
                self.dispatch_pool(c.pool)
                if c.state == S_IDLE and c.cur_r < 0 and c.lq:
                    self.start_next(c)
            elif kind == K_TICK:
                self._tick(now)
                heappush(heap, (now + interval, self._seq, K_TICK, 0, 0))
                self._seq += 1
            else:  # K_BLACKOUT
                if h0[3] == 0:
                    self.registry.counter(
                        "control_plane_crashes_total").inc()
                else:
                    self.registry.counter("recoveries_total").inc()
        self._ai = ai
        self._a_seq = a_seq
        self._events = executed
        self.now = until

    @property
    def in_flight(self) -> int:
        """Created jobs not yet settled (completed, failed or shed)."""
        return self._created - (len(self._completed_order)
                                + len(self._failed) + self._gateway_shed)

    def all_done(self) -> bool:
        """True once every created job has settled (drain condition)."""
        return self.in_flight <= 0

    def finish(self) -> RunResult:
        """Seal the clock and collect this engine's RunResult."""
        self.system.sim = FlatClock(self.now, self._events)
        return self._finalize()

    def run(self) -> RunResult:
        trace = self.trace
        horizon = trace.duration_ms + 1.0
        interval = self.config.monitor_interval_ms
        for bound in epoch_boundaries(horizon, interval):
            self.step_until(bound)
        drained = horizon
        drain_ms = self.system.drain_ms
        while not self.all_done() and drained < horizon + drain_ms:
            drained += interval
            self.step_until(drained)
        return self.finish()

    # -- vectorized finalize -------------------------------------------

    def _finalize(self) -> RunResult:
        registry = self.registry
        completed = self._completed_order
        n_completed = len(completed)
        n_jobs = self._created
        n_admitted = len(self.job_app)
        # Sync run counters.  The lifecycle's lazily-created counters
        # (gateway shed / blackout loss) must stay absent from the
        # registry when zero, for prometheus-export parity.
        self._c_created.set_value(float(n_jobs))
        self._c_completed.set_value(float(n_completed))
        self._c_failed.set_value(float(len(self._failed)))
        if self._gateway_shed:
            registry.counter("gateway_shed_total").set_value(
                float(self._gateway_shed))
        if self._shed_deadline:
            registry.counter("gateway_shed_deadline_total").set_value(
                float(self._shed_deadline))
        if self._blackout_lost:
            registry.counter("control_plane_blackout_lost_total").set_value(
                float(self._blackout_lost))
        for pool in self.pools.values():
            pool._c_enqueued.set_value(float(pool.enq_n))
            pool._c_completed.set_value(float(pool.done_n))
        if n_completed:
            enq = np.asarray(self.rec_enq)
            start = np.asarray(self.rec_start)
            exc = np.asarray(self.rec_exec)
            cold = np.asarray(self.rec_cold)
            base = np.asarray(self.job_base, dtype=np.intp)
            # Per-record queue delay with the JobStage guard (unstarted
            # or unenqueued stages contribute 0), then batching wait.
            qd = np.where((start >= 0.0) & (enq >= 0.0), start - enq, 0.0)
            bw = qd - cold
            np.maximum(bw, 0.0, out=bw)
            bw += 0.0  # normalize any -0.0 to +0.0 (max(0.0, x) parity)
            # reduceat's per-segment reduction is sequential, matching
            # sum() over a job's stages bit for bit.
            exec_job = np.add.reduceat(exc, base)
            qd_job = np.add.reduceat(qd, base)
            cold_job = np.add.reduceat(cold, base)
            bw_job = np.add.reduceat(bw, base)
            co = np.asarray(completed, dtype=np.intp)
            completion = np.asarray(self.job_completion)
            arrival = np.asarray(self.job_arrival)
            app_idx = np.asarray(self.job_app, dtype=np.intp)
            latencies = completion[co] - arrival[co]
            slo_co = np.asarray(self.app_slo)[app_idx[co]]
            violations = int(np.count_nonzero(latencies > slo_co))
            exec_co = exec_job[co]
            qd_co = qd_job[co]
            cold_co = cold_job[co]
            bw_co = bw_job[co]
        else:
            latencies = np.array([])
            violations = 0
            exec_co = np.array([])
            qd_co = np.array([])
            cold_co = np.array([])
            bw_co = np.array([])
        # Histograms observe completed jobs in completion order.
        self._h_latency.observe_many(latencies)
        self._h_queue.observe_many(qd_co)
        self._h_exec.observe_many(exec_co)
        self._h_cold.observe_many(cold_co)
        if self.tracer is not None:
            self._emit_spans(n_admitted)
        n_samples = len(self.sample_times)
        container_samples = {
            name: np.asarray(samples[:n_samples])
            for name, samples in self.pool_samples.items()
        }
        return RunResult(
            policy=self.config.name,
            mix=self.mix.name,
            trace=self.trace.name,
            duration_ms=self.now,
            n_jobs=n_jobs,
            n_completed=n_completed,
            n_incomplete=n_jobs - n_completed,
            latencies_ms=latencies,
            violations=violations,
            exec_ms=exec_co,
            cold_wait_ms=cold_co,
            batch_wait_ms=bw_co,
            queue_ms=qd_co,
            sample_times_ms=np.asarray(self.sample_times),
            container_samples=container_samples,
            n_failed=len(self._failed),
            tick_errors=self.control.tick_errors,
            degraded_spawns=getattr(self.cold_model, "degraded_spawns", 0),
            shed_jobs=self._gateway_shed,
            **run_rollups(self.pools, self.energy_meter, registry),
        )

    def _emit_spans(self, n_admitted: int) -> None:
        """Materialize real ``Job`` objects for terminal jobs (in
        terminal-event order, matching the event-loop engine's span
        emission order) and feed the shared span assembler."""
        ids = [next(_job_ids) for _ in range(n_admitted)]
        for j, failed in self._terminal:
            a = self.job_app[j]
            job = Job(app=self.apps[a], arrival_ms=self.job_arrival[j],
                      job_id=ids[j])
            b = self.job_base[j]
            for s, stage in enumerate(job.stages):
                r = b + s
                stage.enqueue_ms = self.rec_enq[r]
                stage.start_ms = self.rec_start[r]
                stage.end_ms = self.rec_end[r]
                stage.exec_ms = self.rec_exec[r]
                stage.cold_start_wait_ms = self.rec_cold[r]
            if failed:
                job.failed_ms = self._failed_ms[j]
                job.failure_reason = SHED_EXPIRED_REASON
            else:
                job.completion_ms = self.job_completion[j]
            record_job_spans(self.tracer, job)


def run_vector(system, trace) -> RunResult:
    """Run *system* over *trace* with the vector engine."""
    return VectorEngine(system, trace).run()
