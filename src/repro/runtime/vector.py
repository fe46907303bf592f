"""The vectorized batch engine (``engine="vector"``).

DESIGN.md section 13.  This engine replaces the object-per-event
discrete simulator with a flat representation tuned for mega-scale
replays (the Wiki trace at paper scale):

* **SoA job records** — no ``Job``/``Task``/``JobStage`` objects on the
  hot path.  A job is an index; its per-stage latency record lives at
  ``job_base[j] + stage`` inside flat parallel columns (enqueue / start /
  end / exec / cold): typed ``array`` buffers, 8 B per value, viewed as
  numpy without a copy at finalize time and released by ``finish()``.
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
  :func:`repro.core.vectorized.segment_totals` over the flat records,
  and the run histograms are fed through ``Histogram.observe_many``.

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
from array import array
from collections import deque
from functools import partial
from typing import Dict, List

import numpy as np

from repro.cluster.coldstart import ColdStartModel
from repro.cluster.container import _container_ids
from repro.core.controlplane import (
    ControlPlane,
    prewarm_opening_capacity,
    reclaim_idle_capacity,
    wire_scalers,
)
from repro.core.poolsurface import PoolSurface
from repro.core.scheduling import LSFQueue, make_queue
from repro.core.vectorized import (
    covered_mask,
    epoch_boundaries,
    job_record_layout,
    presample_app_indices,
    segment_totals,
)
from repro.metrics.collector import MetricsCollector, RunResult
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

#: The run's per-record, per-job and per-arrival state: typed buffers
#: (8 B per value, where a list of boxed floats costs 32), read by
#: finalize through zero-copy numpy views and released by ``finish()``.
_COLUMNS = (
    "rec_enq", "rec_start", "rec_end", "rec_exec", "rec_cold",
    "job_app", "job_arrival", "job_base", "job_completion",
    "_arr_times", "_arr_app", "_arr_job", "_completed_order",
)
_DTYPES = {"d": np.float64, "q": np.int64}


def _column(typecode: str, values: np.ndarray) -> array:
    """*values* copied into a typed buffer as raw bytes — no Python
    object per element, unlike ``tolist()``."""
    return array(
        typecode, values.astype(_DTYPES[typecode], copy=False).tobytes())


class VectorEngineUnsupported(RuntimeError):
    """This configuration needs per-event machinery the flat loop does
    not replicate; run it with ``engine="fast"`` instead."""


class VectorContainer:
    """Flat container record; the attribute and property names shared
    with :class:`~repro.cluster.container.Container` are what the pool
    surface and the scalers read."""

    __slots__ = (
        "cid", "batch", "node", "pool", "state", "ready_at",
        "lq", "cur_j", "cur_s", "cur_r", "tasks_executed", "last_used_ms",
        "busy",
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
        self.tasks_executed = 0
        self.last_used_ms = now
        self.busy = 0.0

    @property
    def occupied_slots(self) -> int:
        return len(self.lq) + (1 if self.cur_r >= 0 else 0)

    @property
    def free_slots(self) -> int:
        return self.batch - len(self.lq) - (1 if self.cur_r >= 0 else 0)

    @property
    def is_reapable(self) -> bool:
        return self.state == S_IDLE and not self.lq

    def terminate(self) -> None:
        self.state = S_DEAD
        self.pool.n_live -= 1


class VectorPool(PoolSurface):
    """The pool surface over the engine's flat representation.

    The shared control plane (ReactiveScaler, ProactiveScaler,
    HPAScaler, SpawnGovernor, ``static_pool_sizes``) reads and actuates
    the inherited surface; the engine drives the data plane (queues,
    dispatch, records) directly.  What is overridden is storage: the
    queue, a live-container tally, head-pointer monitor windows and the
    two hot-loop task tallies.
    """

    def __init__(self, eng, scheduling, **surface):
        super().__init__(**surface)
        self.eng = eng
        self.lsf = isinstance(make_queue(scheduling), LSFQueue)
        self.q = [] if self.lsf else deque()
        self.qn = 0              # LSF insertion tiebreaker (per pool)
        self.n_live = 0
        self.enq_n = 0           # tasks enqueued (synced at finalize)
        self.done_n = 0          # tasks completed (synced at finalize)
        # Head-pointer windows (event loop: deques pruned with strict <).
        self.waiting: List[int] = []       # record indices, FIFO
        self.whead = 0
        self.recent_enq: List[float] = []  # enqueue times
        self.ehead = 0
        self.recent_delays: List[tuple] = []  # (t, queue_delay)
        self.dhead = 0
        self.svc_mean = self.service.mean_exec_ms * 1.0  # input_scale 1.0
        self.svc_std = self.service.exec_std_ms

    # -- representation: clock, capacity, tallies ----------------------

    @property
    def now(self) -> float:
        return self.eng.now

    @property
    def n_containers(self) -> int:
        return self.n_live

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
    def tasks_enqueued(self) -> int:
        return self.enq_n

    @property
    def tasks_completed(self) -> int:
        return self.done_n

    # -- representation: monitor windows -------------------------------

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

    # -- hooks ---------------------------------------------------------

    def dispatch(self) -> None:
        self.eng.dispatch_pool(self)

    def _draw_cold_start_ms(self) -> float:
        # ``lognormal(0, s)`` as ``exp(s*z)`` off the engine's z-buffer:
        # cold-start and exec draws share one stream, in draw order.
        mean = self.cold_start.mean_ms(self.function)
        sigma = self.cold_start.jitter_sigma
        if sigma > 0:
            return mean * math.exp(sigma * self.eng._draw_z())
        return mean

    def _make_container(self, node, cold_start_ms: float) -> VectorContainer:
        eng = self.eng
        c = VectorContainer(next(_container_ids), self.batch_size, node,
                            self, eng.now, cold_start_ms)
        heapq.heappush(eng._heap, (c.ready_at, eng._seq, K_READY, c, 0))
        eng._seq += 1
        self.n_live += 1
        return c

    def _pin_head(self, c: VectorContainer) -> None:
        if self.lsf:
            item = heapq.heappop(self.q)
            c.lq.append((item[2], item[3]))
        else:
            c.lq.append(self.q.popleft())


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
        # Sampling and the RunResult are the collector's, as on the
        # event loop (its run-level series are created eagerly here).
        self.metrics = MetricsCollector(self.energy_meter, registry=registry)
        self.pools: Dict[str, VectorPool] = {
            name: VectorPool(self, **system._pool_args(name))
            for name in self.mix.function_names()
        }
        system.pools = self.pools
        reclaim = partial(reclaim_idle_capacity, self.pools)
        for pool in self.pools.values():
            pool.reclaim_callback = reclaim
        # The real control plane (shared scalers, shared guarded tick,
        # the collector's sample) over the vector pools.
        self.control = system.control = ControlPlane(
            config, self.pools, registry,
            sample=lambda now: self.metrics.sample(
                self.pools, self.cluster.nodes, now, system.sample_energy),
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
        self._arr_times = _column("d", times)
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
        self._arr_app = _column("q", arr_app)
        # SoA job state.  Static layout when admission cannot shed
        # (every uncovered arrival is admitted); grown per-admission
        # under --shed-expired.
        if not self.shed_on:
            arr_job = np.full(times.size, -1, dtype=np.int64)
            arr_job[uncovered] = np.arange(k)
            self._arr_job = _column("q", arr_job)
            nst = np.asarray(self.app_nst, dtype=np.intp)
            counts = nst[drawn] if k else np.empty(0, dtype=np.intp)
            base, total = job_record_layout(counts)
            self.job_app = _column("q", drawn)
            self.job_arrival = _column("d", times[uncovered])
            self.job_base = _column("q", base)
            self.job_completion = array("d", [-1.0]) * k
            self.rec_enq = array("d", [-1.0]) * total
            self.rec_start = array("d", [-1.0]) * total
            self.rec_end = array("d", [-1.0]) * total
            self.rec_exec = array("d", [0.0]) * total
            self.rec_cold = array("d", [0.0]) * total
        else:
            self._arr_job = None
            self.job_app = array("q")
            self.job_arrival = array("d")
            self.job_base = array("q")
            self.job_completion = array("d")
            self.rec_enq = array("d")
            self.rec_start = array("d")
            self.rec_end = array("d")
            self.rec_exec = array("d")
            self.rec_cold = array("d")
        self._created = 0
        self._gateway_shed = 0
        self._shed_deadline = 0
        self._blackout_lost = 0
        self._completed_order = array("q")
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

    # -- the merged run loop -------------------------------------------

    def _check_live(self) -> None:
        if self.rec_enq is None:
            raise RuntimeError(
                "this VectorEngine is finished: finish() released its "
                "columns; build a new engine to run again")

    def step_until(self, until: float) -> None:
        """Advance the merged run loop to *until* (one monitor epoch).

        The public stepping surface: the sharded sim interleaves N
        engines by stepping each to the same boundary, reconciling them
        through the global orchestrator between epochs.  ``run()`` below
        is exactly this primitive in a loop, so a 1-shard stepped run
        replays the solo path.
        """
        self._check_live()
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
                        pool.record_shed()
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
                    pool._spawn_for_backlog()
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
                c.tasks_executed += 1
                c.last_used_ms = now
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
                c.last_used_ms = now
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
        """Seal the clock, collect this engine's RunResult and release
        the columns (the result owns its arrays; the engine is spent,
        and so is any pool reading that indexes a record)."""
        self._check_live()
        self.system.sim = FlatClock(self.now, self._events)
        result = self._finalize()
        for name in _COLUMNS:
            setattr(self, name, None)
        return result

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
        n_admitted = len(self.job_app)
        # The lifecycle's lazily-created counters (gateway shed /
        # blackout loss) must stay absent from the registry when zero,
        # for prometheus-export parity.
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
            # The hot-loop tallies, written through to their series.
            PoolSurface.tasks_enqueued.__set__(pool, pool.enq_n)
            PoolSurface.tasks_completed.__set__(pool, pool.done_n)
        if completed:
            # Zero-copy views; everything handed to the RunResult below
            # is a fresh array (arithmetic or fancy indexing), so the
            # columns can be released once it is built.
            enq = np.frombuffer(self.rec_enq)
            start = np.frombuffer(self.rec_start)
            exc = np.frombuffer(self.rec_exec)
            cold = np.frombuffer(self.rec_cold)
            base = np.frombuffer(self.job_base, dtype=np.int64)
            # Per-record queue delay with the JobStage guard (unstarted
            # or unenqueued stages contribute 0), then batching wait.
            qd = np.where((start >= 0.0) & (enq >= 0.0), start - enq, 0.0)
            bw = qd - cold
            np.maximum(bw, 0.0, out=bw)
            bw += 0.0  # normalize any -0.0 to +0.0 (max(0.0, x) parity)
            # Stage by stage, matching the left-to-right loops of
            # Job.total_* bit for bit (np.add.reduceat would not).
            exec_job = segment_totals(exc, base)
            qd_job = segment_totals(qd, base)
            cold_job = segment_totals(cold, base)
            bw_job = segment_totals(bw, base)
            co = np.frombuffer(completed, dtype=np.int64)
            completion = np.frombuffer(self.job_completion)
            arrival = np.frombuffer(self.job_arrival)
            app_idx = np.frombuffer(self.job_app, dtype=np.int64)
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
        if self.tracer is not None:
            self._emit_spans(n_admitted)
        return self.metrics.finalize(
            policy=self.config.name,
            mix=self.mix.name,
            trace=self.trace.name,
            duration_ms=self.now,
            pools=self.pools,
            tick_errors=self.control.tick_errors,
            shed_jobs=self._gateway_shed,
            flat={
                "n_jobs": self._created,
                "n_failed": len(self._failed),
                "latencies_ms": latencies,
                "violations": violations,
                "exec_ms": exec_co,
                "cold_wait_ms": cold_co,
                "batch_wait_ms": bw_co,
                "queue_ms": qd_co,
            },
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
