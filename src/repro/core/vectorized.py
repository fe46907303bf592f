"""Vectorized batch-admission math for the ``engine="vector"`` path.

The vector engine (:mod:`repro.runtime.vector`) keeps job state in
struct-of-arrays (SoA) form — flat parallel arrays indexed by a job's
record offset — instead of one ``Job`` object per request.  This module
holds the *pure* array math the engine leans on: pre-sampling every
arrival's application in one draw, masking blackout-covered arrivals,
laying out the flat per-stage record arrays, and binning the run
horizon into monitor epochs.

Everything here is deliberately side-effect free so it can be tested
directly against the scalar equivalents used by the event-loop engines.

Bit-exactness note (load-bearing — the differential harness in
``tests/test_vector_parity.py`` asserts them end to end):

* ``presample_app_indices`` consumes the *same* RNG stream as ``k``
  sequential ``WorkloadMix.sample_application`` calls: numpy's
  ``Generator.random(k)`` produces the identical doubles as ``k``
  scalar ``random()`` calls, and a vectorized ``searchsorted`` equals
  the per-element scalar lookup.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = [
    "presample_app_indices",
    "covered_mask",
    "job_record_layout",
    "epoch_boundaries",
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

