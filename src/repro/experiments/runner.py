"""Parallel, cached experiment execution.

The evaluation repeats the same shape of work hundreds of times: one
``(policy, mix, trace, seed, knobs)`` configuration per sweep point,
repeat seed, or ablation arm.  Trials are independent, so this module
fans them out over a :class:`concurrent.futures.ProcessPoolExecutor`
and memoizes finished trials on disk:

* :class:`TrialSpec` — an immutable, hashable description of one run.
* :func:`config_hash` — sha256 of the spec's canonical JSON; the disk
  cache key.  Anything that changes the run's output (policy, mix,
  trace kind/rate/duration, seed, nodes, config overrides, and a
  format version) is part of the hash; nothing else is.
* :func:`run_trial` — execute one spec to its summary dict.
* :class:`ExperimentRunner` — fan-out + cache orchestration.  Results
  come back in input order regardless of completion order, and a trial
  summary is bit-identical whether it ran serially, in a worker
  process, or was replayed from cache (the simulator is deterministic
  per seed and the cache stores full float precision).
* :func:`derive_seeds` — per-trial seed derivation through
  ``numpy.random.SeedSequence.spawn`` so repeat batches get
  well-separated streams from one base seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.collector import RunResult
    from repro.runtime.system import ServerlessSystem

# The simulator stack (policies, runtime, traces) is imported lazily
# inside the functions that need it: a pool worker that only replays
# cached summaries — and the parent process while it fans out — should
# not pay the full import graph up front.

#: Bump when the summary format or run semantics change incompatibly;
#: invalidates every existing cache entry.
CACHE_FORMAT_VERSION = 2

#: The keys ``TrialSpec.faults`` may carry.
FAULT_KEYS = frozenset((
    "crash_probability", "crash_point", "timeline",
    "diverge_after", "diverge_factor", "diverge_mode",
))

PathLike = Union[str, pathlib.Path]
Overrides = Tuple[Tuple[str, Union[float, int, str, bool]], ...]


@dataclass(frozen=True)
class TrialSpec:
    """One simulator trial, fully determined by its fields.

    ``overrides`` are extra ``RMConfig`` keyword arguments as a sorted
    tuple of pairs (tuples keep the dataclass hashable; sorting keeps
    the hash independent of construction order).  Guardrail knobs
    (``mape_threshold``, ``max_surge``, ...) are RMConfig fields and
    therefore ride ``overrides``; ``faults`` carries everything that is
    *not* policy config — container-crash model, node-fault schedule,
    predictor-divergence injection — as its own sorted pair tuple.
    Both tuples are part of the cache key: two trials differing only in
    ``crash_probability`` or MAPE threshold can never share an entry.

    Recognised ``faults`` keys (:data:`FAULT_KEYS`; any other raises):
    ``crash_probability``, ``crash_point``, ``timeline`` (a spec string
    for :meth:`~repro.cluster.faults.FaultTimeline.parse`),
    ``diverge_after`` (monitor ticks), ``diverge_factor``,
    ``diverge_mode`` (``"scale"`` | ``"nan"``).
    """

    policy: str
    mix: str = "heavy"
    trace_kind: str = "step-poisson"
    rate_rps: float = 50.0
    duration_s: float = 300.0
    seed: int = 5
    nodes: int = 5
    overrides: Overrides = ()
    faults: Overrides = ()
    shed_expired: bool = False
    #: Simulation engine ("fast" | "vector" | None for the
    #: system default).  Deliberately NOT part of :meth:`canonical` —
    #: every engine produces a bit-identical summary (enforced by
    #: ``tests/test_vector_parity.py``), so trials may share cache
    #: entries across engines.
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "overrides", tuple(sorted(dict(self.overrides).items()))
        )
        object.__setattr__(
            self, "faults", tuple(sorted(dict(self.faults).items()))
        )
        unknown = sorted(set(dict(self.faults)) - FAULT_KEYS)
        if unknown:
            # A typo'd key would otherwise run fault-free and be cached
            # under a key that looks like a fault trial.
            raise ValueError(
                f"unknown faults key(s) {unknown}; known: "
                f"{sorted(FAULT_KEYS)}")

    @staticmethod
    def make(policy: str, **kwargs) -> "TrialSpec":
        """Build a spec, folding unknown keywords into ``overrides``."""
        own = {f for f in TrialSpec.__dataclass_fields__}
        overrides = dict(kwargs.pop("overrides", ()))
        for key in list(kwargs):
            if key not in own:
                overrides[key] = kwargs.pop(key)
        return TrialSpec(
            policy=policy, overrides=tuple(overrides.items()), **kwargs
        )

    def canonical(self) -> Dict:
        """JSON-stable representation used for hashing and cache files."""
        return {
            "version": CACHE_FORMAT_VERSION,
            "policy": self.policy,
            "mix": self.mix,
            "trace_kind": self.trace_kind,
            "rate_rps": self.rate_rps,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "nodes": self.nodes,
            "overrides": [[k, v] for k, v in self.overrides],
            "faults": [[k, v] for k, v in self.faults],
            "shed_expired": self.shed_expired,
        }


def config_hash(spec: TrialSpec) -> str:
    """sha256 of the spec's canonical JSON (the disk-cache key)."""
    payload = json.dumps(
        spec.canonical(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def derive_seeds(base_seed: int, n: int) -> List[int]:
    """*n* statistically independent trial seeds from one base seed.

    Uses ``SeedSequence.spawn`` so sibling trials get non-overlapping
    entropy streams; the mapping is deterministic in ``(base_seed, n)``
    prefix — seed i is the same whether 5 or 50 seeds were derived.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    children = np.random.SeedSequence(base_seed).spawn(n)
    return [int(child.generate_state(1, np.uint32)[0]) for child in children]


def run_trial(spec: TrialSpec) -> Dict[str, float]:
    """Execute one trial and return ``RunResult.summary()``."""
    return _run_trial_result(spec)[0].summary()


def _run_trial_result(
    spec: TrialSpec, tracer=None,
) -> Tuple["RunResult", "ServerlessSystem"]:
    """Assemble the one system a spec describes, run it, and return
    ``(result, system)`` — the only spec → system path, shared by the
    runner and every single-run CLI command."""
    from repro.cluster.faults import FaultTimeline
    from repro.core.policies import make_policy_config
    from repro.runtime.system import ClusterSpec, ServerlessSystem
    from repro.traces.factory import cached_trace
    from repro.workloads import get_mix

    overrides = dict(spec.overrides)
    overrides.setdefault("idle_timeout_ms", 60_000.0)
    config = make_policy_config(spec.policy, **overrides)
    faults = dict(spec.faults)
    from repro.experiments.predictors import predictor_for_run

    predictor = predictor_for_run(
        config.proactive_predictor, spec.trace_kind, spec.rate_rps)
    if "diverge_after" in faults and config.proactive_predictor is not None:
        from repro.prediction.guarded import DivergentPredictor
        from repro.runtime.system import _UNTRAINED_PREDICTORS

        if predictor is None:
            factory = _UNTRAINED_PREDICTORS[config.proactive_predictor.lower()]
            predictor = factory()
        predictor = DivergentPredictor(
            predictor,
            diverge_after=int(faults["diverge_after"]),
            factor=float(faults.get("diverge_factor", 25.0)),
            mode=str(faults.get("diverge_mode", "scale")),
        )
    fault_model = None
    if float(faults.get("crash_probability", 0.0)) > 0.0:
        from repro.cluster.faults import ContainerFaultModel

        fault_model = ContainerFaultModel(
            crash_probability=float(faults["crash_probability"]),
            crash_point=float(faults.get("crash_point", 0.5)),
        )
    timeline = (
        FaultTimeline.parse(str(faults["timeline"]))
        if faults.get("timeline") else FaultTimeline()
    )
    system = ServerlessSystem(
        config=config,
        mix=get_mix(spec.mix),
        cluster_spec=ClusterSpec(n_nodes=spec.nodes),
        predictor=predictor,
        seed=spec.seed,
        fault_model=fault_model,
        tracer=tracer,
        shed_expired=spec.shed_expired,
        faults=timeline,
        engine=spec.engine,
    )
    trace = cached_trace(spec.trace_kind, spec.rate_rps, spec.duration_s,
                         spec.seed)
    return system.run(trace), system


def _execute_trial_chunk(
    specs: Sequence[TrialSpec],
) -> List[Tuple[Dict[str, float], float]]:
    """Run a batch of trials in one worker task.

    Returns ``(summary, wall_s)`` per spec, in the chunk's own order.
    One task per *chunk* instead of one per *trial* is the fix for the
    pool regression: submitting N tiny futures serialized N specs, paid
    N rounds of executor IPC and left the parent deserializing result
    dicts on the critical path between submissions.  With chunks there
    are exactly ``workers`` futures per batch regardless of N.
    """
    out: List[Tuple[Dict[str, float], float]] = []
    for spec in specs:
        started = time.perf_counter()
        summary = run_trial(spec)
        out.append((summary, time.perf_counter() - started))
    return out


@dataclass
class TrialResult:
    """One finished trial: its spec, summary and provenance."""

    spec: TrialSpec
    summary: Dict[str, float]
    key: str
    from_cache: bool = False
    wall_s: float = 0.0


@dataclass
class ExperimentRunner:
    """Fan trials out over processes, replaying cached ones from disk.

    Args:
        workers: worker processes; ``<= 1`` runs everything in-process
            (no executor), which is also the deterministic reference
            path the parallel path must match byte for byte.
        cache_dir: directory for ``<hash>.json`` result files; ``None``
            disables persistence entirely.
        use_cache: when False, cached entries are ignored (but fresh
            results are still written for later runs).
    """

    workers: int = 1
    cache_dir: Optional[PathLike] = None
    use_cache: bool = True
    #: Trials served from disk in the last ``run`` call.
    cache_hits: int = field(default=0, init=False)
    #: Trials actually executed in the last ``run`` call.
    cache_misses: int = field(default=0, init=False)

    def run(self, specs: Sequence[TrialSpec]) -> List[TrialResult]:
        """Execute *specs*, returning results in input order."""
        specs = list(specs)
        self.cache_hits = 0
        self.cache_misses = 0
        results: List[Optional[TrialResult]] = [None] * len(specs)
        pending: List[int] = []
        for idx, spec in enumerate(specs):
            key = config_hash(spec)
            cached = self._load(key) if self.use_cache else None
            if cached is not None:
                self.cache_hits += 1
                results[idx] = TrialResult(
                    spec=spec, summary=cached, key=key, from_cache=True
                )
            else:
                pending.append(idx)
        self.cache_misses = len(pending)
        if pending:
            if self.workers <= 1 or len(pending) == 1:
                for idx in pending:
                    results[idx] = self._run_serial(specs[idx])
            else:
                self._run_parallel(specs, pending, results)
        return [r for r in results if r is not None]

    def run_summaries(self, specs: Sequence[TrialSpec]) -> List[Dict[str, float]]:
        """Like :meth:`run` but returning just the summary dicts."""
        return [r.summary for r in self.run(specs)]

    # -- internals -----------------------------------------------------------

    def _run_serial(self, spec: TrialSpec) -> TrialResult:
        key = config_hash(spec)
        started = time.perf_counter()
        summary = run_trial(spec)
        wall = time.perf_counter() - started
        self._store(key, spec, summary)
        return TrialResult(spec=spec, summary=summary, key=key, wall_s=wall)

    def _run_parallel(
        self,
        specs: Sequence[TrialSpec],
        pending: Sequence[int],
        results: List[Optional[TrialResult]],
    ) -> None:
        from repro.traces.factory import (
            pool_inherits_memory,
            prime_trace_cache,
            trace_cache_initializer,
        )

        trace_keys = sorted({
            (
                specs[idx].trace_kind,
                specs[idx].rate_rps,
                specs[idx].duration_s,
                specs[idx].seed,
            )
            for idx in pending
        })
        # Build every distinct trace once in the parent before the pool
        # forks: workers inherit the arrival arrays copy-on-write
        # instead of regenerating them per trial.  Under spawn the
        # parent's cache is invisible to workers, so skip the wasted
        # build here and let the pool initializer below prime each
        # worker process exactly once instead.
        if pool_inherits_memory():
            prime_trace_cache(trace_keys)
        # Round-robin assignment keeps chunk workloads balanced when
        # pending trials are sorted by size (sweeps usually are), and
        # caps the future count at ``workers`` — the per-future
        # submit/pickle/collect overhead was the parallel-path
        # regression this replaces.
        n_chunks = min(self.workers, len(pending))
        chunks = [list(pending[i::n_chunks]) for i in range(n_chunks)]
        with ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=trace_cache_initializer,
            initargs=(trace_keys,),
        ) as pool:
            futures = {
                pool.submit(
                    _execute_trial_chunk, [specs[idx] for idx in chunk]
                ): chunk
                for chunk in chunks
            }
            for future, chunk in futures.items():
                for idx, (summary, wall) in zip(chunk, future.result()):
                    spec = specs[idx]
                    key = config_hash(spec)
                    self._store(key, spec, summary)
                    results[idx] = TrialResult(
                        spec=spec, summary=summary, key=key, wall_s=wall
                    )

    def _cache_path(self, key: str) -> Optional[pathlib.Path]:
        if self.cache_dir is None:
            return None
        return pathlib.Path(self.cache_dir) / f"{key}.json"

    def _load(self, key: str) -> Optional[Dict[str, float]]:
        path = self._cache_path(key)
        if path is None or not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None  # truncated/corrupt entry: fall through to re-run
        if payload.get("version") != CACHE_FORMAT_VERSION:
            return None
        summary = payload.get("summary")
        return dict(summary) if isinstance(summary, dict) else None

    def _store(self, key: str, spec: TrialSpec, summary: Dict[str, float]) -> None:
        path = self._cache_path(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "spec": spec.canonical(),
            "summary": summary,
        }
        # Atomic publish: a concurrent reader never sees a partial file.
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
        os.replace(tmp, path)


def summaries_json(results: Sequence[TrialResult]) -> str:
    """Canonical JSON for a result batch (determinism comparisons).

    Excludes provenance (``wall_s``, ``from_cache``) so serial, parallel
    and cache-replayed batches of the same specs serialize identically.
    """
    payload = [
        {"key": r.key, "spec": r.spec.canonical(), "summary": r.summary}
        for r in results
    ]
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def repeat_specs(
    policy: str,
    base_seed: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    repeats: int = 5,
    **spec_kwargs,
) -> List[TrialSpec]:
    """Specs for a repeat batch: one trial per seed.

    Either pass explicit ``seeds`` or a ``base_seed`` from which
    *repeats* seeds are derived via :func:`derive_seeds`.
    """
    if seeds is None:
        if base_seed is None:
            raise ValueError("pass either seeds or base_seed")
        seeds = derive_seeds(base_seed, repeats)
    return [
        TrialSpec.make(policy, seed=int(seed), **spec_kwargs)
        for seed in seeds
    ]


def sweep_specs(
    policy: str,
    field_name: str,
    values: Sequence,
    **spec_kwargs,
) -> List[TrialSpec]:
    """Specs for a one-knob sweep: one trial per *field_name* value."""
    overrides = dict(spec_kwargs.pop("overrides", ()))
    specs = []
    for value in values:
        point = dict(overrides)
        point[field_name] = value
        specs.append(
            TrialSpec.make(
                policy, overrides=tuple(point.items()), **spec_kwargs
            )
        )
    return specs
