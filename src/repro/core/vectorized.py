"""Vectorized batch-admission math for the ``engine="vector"`` path.

The vector engine (:mod:`repro.runtime.vector`) keeps job state in
struct-of-arrays (SoA) form — flat parallel arrays indexed by a job's
record offset — instead of one ``Job`` object per request.  This module
holds the *pure* array math the engine leans on: pre-sampling every
arrival's application in one draw, masking blackout-covered arrivals,
laying out the flat per-stage record arrays, binning the run horizon
into monitor epochs, and the per-job segment reductions used at
finalize time.

Everything here is deliberately side-effect free so it can be tested
directly against the scalar equivalents used by the event-loop engines.

Bit-exactness notes (load-bearing — the differential harness in
``tests/test_vector_parity.py`` asserts them end to end):

* ``presample_app_indices`` consumes the *same* RNG stream as ``k``
  sequential ``WorkloadMix.sample_application`` calls: numpy's
  ``Generator.random(k)`` produces the identical doubles as ``k``
  scalar ``random()`` calls, and a vectorized ``searchsorted`` equals
  the per-element scalar lookup.
* ``segment_totals`` adds one stage per pass, so every job's total is
  ``((0.0 + x0) + x1) + x2 ...`` — the association order of the
  explicit loop in ``Job.totals`` — and per-job totals match the
  scalar path bit for bit at any chain length.  Neither shortcut does:
  ``np.add.reduceat`` computes ``x0 + (x1 + x2 + ...)`` (its inner
  loop is a pairwise sum of the segment's tail), and builtin ``sum()``
  is a compensated sum since Python 3.12.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = [
    "presample_app_indices",
    "covered_mask",
    "job_record_layout",
    "epoch_boundaries",
    "segment_totals",
]


def presample_app_indices(
    cdf: np.ndarray, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Draw ``count`` application indices from a normalized weight CDF.

    Equivalent to ``count`` sequential ``sample_application`` calls on
    the same generator (same bitstream, same searchsorted side).
    """
    if count <= 0:
        return np.empty(0, dtype=np.intp)
    u = rng.random(count)
    return np.searchsorted(cdf, u, side="right").astype(np.intp, copy=False)


def covered_mask(
    times_ms: np.ndarray, start_ms: float, end_ms: float
) -> np.ndarray:
    """Boolean mask of arrivals inside a ``[start, end)`` blackout."""
    return (times_ms >= start_ms) & (times_ms < end_ms)


def job_record_layout(
    stage_counts: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """Flat SoA layout for per-stage records.

    Given each admitted job's chain length, returns ``(job_base,
    n_records)`` where ``job_base[j]`` is job ``j``'s offset into the
    flat record arrays (record index = ``job_base[j] + stage``).
    """
    if stage_counts.size == 0:
        return np.empty(0, dtype=np.intp), 0
    ends = np.cumsum(stage_counts, dtype=np.intp)
    base = np.empty_like(ends)
    base[0] = 0
    base[1:] = ends[:-1]
    return base, int(ends[-1])


def epoch_boundaries(horizon_ms: float, epoch_ms: float) -> List[float]:
    """Monitor-epoch chunk boundaries covering ``(0, horizon]``.

    The vector run loop drains events epoch by epoch; the boundaries
    are strictly increasing and the last one is exactly ``horizon_ms``
    so the final clock matches the event-loop engines.
    """
    if horizon_ms <= 0:
        return [horizon_ms]
    if epoch_ms <= 0:
        return [horizon_ms]
    n = int(horizon_ms // epoch_ms)
    bounds = [epoch_ms * i for i in range(1, n + 1)]
    if not bounds or bounds[-1] < horizon_ms:
        bounds.append(horizon_ms)
    return bounds


def segment_totals(values: np.ndarray, job_base: np.ndarray) -> np.ndarray:
    """Per-job sums over contiguous stage segments of a flat array,
    each added strictly left to right from 0.0."""
    if job_base.size == 0:
        return np.empty(0, dtype=np.float64)
    counts = np.diff(job_base, append=values.size)
    totals = values[job_base] + 0.0
    for stage in range(1, int(counts.max())):
        longer = np.flatnonzero(counts > stage)
        totals[longer] += values[job_base[longer] + stage]
    return totals
