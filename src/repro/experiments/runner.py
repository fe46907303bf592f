"""Parallel, cached experiment execution.

The evaluation repeats the same shape of work hundreds of times: one
``(policy, mix, trace, seed, knobs)`` configuration per sweep point,
repeat seed, or ablation arm.  Trials are independent, so this module
fans them out over a :class:`concurrent.futures.ProcessPoolExecutor`
and memoizes finished trials on disk:

* a *spec* is a :class:`~repro.scenario.Scenario` — the immutable,
  hashable description of one run.
* :func:`config_hash` — sha256 of the spec's canonical JSON; the disk
  cache key.  Anything that changes the run's output is part of the
  hash; nothing else is (:meth:`~repro.scenario.Scenario.canonical`).
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
import pathlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.export import atomic_write_text
from repro.scenario import CACHE_FORMAT_VERSION, Scenario

PathLike = Union[str, pathlib.Path]


def config_hash(spec: Scenario) -> str:
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


def run_trial(spec: Scenario) -> Dict[str, float]:
    """Execute one trial and return ``RunResult.summary()``."""
    return spec.run().summary()


def _execute_trial_chunk(
    specs: Sequence[Scenario],
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

    spec: Scenario
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

    def run(self, specs: Sequence[Scenario]) -> List[TrialResult]:
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

    def run_summaries(self, specs: Sequence[Scenario]) -> List[Dict[str, float]]:
        """Like :meth:`run` but returning just the summary dicts."""
        return [r.summary for r in self.run(specs)]

    # -- internals -----------------------------------------------------------

    def _run_serial(self, spec: Scenario) -> TrialResult:
        key = config_hash(spec)
        started = time.perf_counter()
        summary = run_trial(spec)
        wall = time.perf_counter() - started
        self._store(key, spec, summary)
        return TrialResult(spec=spec, summary=summary, key=key, wall_s=wall)

    def _run_parallel(
        self,
        specs: Sequence[Scenario],
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

    def _store(self, key: str, spec: Scenario, summary: Dict[str, float]) -> None:
        path = self._cache_path(key)
        if path is None:
            return
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "spec": spec.canonical(),
            "summary": summary,
        }
        # Atomic publish: a concurrent reader never sees a partial file
        # (no fsync — ``_load`` re-runs an entry a crash left torn).
        atomic_write_text(
            path, json.dumps(payload, sort_keys=True, indent=1), fsync=False)


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
) -> List[Scenario]:
    """Specs for a repeat batch: one trial per seed.

    Either pass explicit ``seeds`` or a ``base_seed`` from which
    *repeats* seeds are derived via :func:`derive_seeds`.
    """
    if seeds is None:
        if base_seed is None:
            raise ValueError("pass either seeds or base_seed")
        seeds = derive_seeds(base_seed, repeats)
    return [
        Scenario.make(policy, seed=int(seed), **spec_kwargs)
        for seed in seeds
    ]


def sweep_specs(
    policy: str,
    field_name: str,
    values: Sequence,
    **spec_kwargs,
) -> List[Scenario]:
    """Specs for a one-knob sweep: one trial per *field_name* value."""
    overrides = dict(spec_kwargs.pop("overrides", ()))
    return [
        Scenario.make(
            policy, overrides=tuple({**overrides, field_name: value}.items()),
            **spec_kwargs)
        for value in values
    ]
