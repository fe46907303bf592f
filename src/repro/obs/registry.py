"""A unified metrics registry: counters, gauges and mergeable histograms.

Every runtime component used to keep its own ad-hoc integer attributes
(``gateway.shed``, ``pool.task_retries`` ...), which made end-of-run
reconciliation — "do
the per-pool sums actually equal what the collector reports?" — a
manual, drift-prone exercise.  This module centralises them:

* :class:`Counter` — monotonically increasing float (``inc``).
* :class:`Gauge` — a settable level (``set``/``inc``/``dec``).
* :class:`Histogram` — fixed-bucket distribution.  Buckets are chosen
  at creation and never change, so two histograms with the same edges
  merge exactly (bucket-wise addition); quantiles are estimated by
  linear interpolation inside the owning bucket, which bounds every
  estimate by that bucket's edges.
* :class:`MetricsRegistry` — get-or-create access by ``(name, labels)``,
  plus cross-label totals for reconciliation checks.

The registry is deliberately dependency-free and works under both the
virtual sim clock and the scaled wall clock — it never reads time; the
caller owns all timestamps.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: Default latency bucket upper bounds, in model milliseconds.  Spans
#: the range of the paper's workloads: single-stage execs of tens of ms
#: up to multi-second SLO-violating tails.
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0,
)

Labels = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> Labels:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing counter."""

    kind = "counter"

    def __init__(self) -> None:
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self._value += amount

    def set_value(self, value: float) -> None:
        """Set the absolute count.

        Exists so legacy ``obj.counter += 1`` attribute sites can be
        property-backed by a registry counter without rewriting every
        call site; going *down* (other than a reset to 0) is rejected to
        preserve counter semantics.
        """
        if value != 0.0 and value < self._value:
            raise ValueError(
                f"counter cannot decrease ({self._value} -> {value})"
            )
        self._value = float(value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Counter {self._value}>"


class Gauge:
    """A level that can move in both directions."""

    kind = "gauge"

    def __init__(self) -> None:
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)

    # ``set_value`` aliases ``set`` so property-backed attribute sites
    # can treat counters and gauges uniformly.
    set_value = set

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Gauge {self._value}>"


class Histogram:
    """Fixed-bucket histogram with exact merge.

    ``edges`` are the finite upper bounds of the buckets; an implicit
    overflow bucket catches everything above the last edge.  A value
    ``v`` lands in the first bucket whose edge satisfies ``v <= edge``
    (Prometheus ``le`` semantics).
    """

    kind = "histogram"

    def __init__(self, edges: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        if any(not math.isfinite(e) for e in edges):
            raise ValueError("bucket edges must be finite")
        self.edges = edges
        self.bucket_counts: List[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        # First bucket whose edge satisfies value <= edge; index
        # len(edges) is the overflow bucket.  bisect keeps this O(log n)
        # — observe() sits on the per-job hot path (4 histograms fed
        # per completed job).
        self.bucket_counts[bisect.bisect_left(self.edges, value)] += 1

    def observe_many(self, values) -> None:
        """Observe a batch of values, bit-identical to observing them
        one by one in order.

        The bucket counts come from one vectorized ``searchsorted`` +
        ``bincount`` pass; the running ``sum`` is the last element of a
        ``cumsum`` seeded with the current sum, which adds strictly
        left to right (summation order is part of the histogram's
        exported state, so a pairwise ``ndarray.sum`` would diverge in
        the last bits).  Used by the vector engine's finalize, which
        feeds whole runs at once.
        """
        import numpy as _np  # local: registry stays import-light

        arr = _np.asarray(values, dtype=float)
        if arr.size == 0:
            return
        self.count += int(arr.size)
        self.sum = float(_np.cumsum(_np.concatenate(([self.sum], arr)))[-1])
        lo = float(arr.min())
        hi = float(arr.max())
        self.min = lo if self.min is None else min(self.min, lo)
        self.max = hi if self.max is None else max(self.max, hi)
        idx = _np.searchsorted(self.edges, arr, side="left")
        counts = _np.bincount(idx, minlength=len(self.edges) + 1)
        buckets = self.bucket_counts
        for i, extra in enumerate(counts.tolist()):
            if extra:
                buckets[i] += extra

    @property
    def value(self) -> float:
        """The count, so registries can report histograms uniformly."""
        return float(self.count)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def bucket_bounds(self, index: int) -> Tuple[float, float]:
        """(lower, upper) bounds of bucket *index*.

        The overflow bucket's upper bound is the largest observed value
        (so quantile estimates stay finite and bounded).
        """
        lower = 0.0 if index == 0 else self.edges[index - 1]
        if index < len(self.edges):
            return lower, self.edges[index]
        upper = self.max if self.max is not None else lower
        return lower, max(lower, upper)

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile (``0 <= q <= 1``).

        Linear interpolation inside the bucket that holds the target
        rank, so the estimate is always within that bucket's bounds.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            if cumulative + n >= target:
                lower, upper = self.bucket_bounds(i)
                fraction = (target - cumulative) / n
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
            cumulative += n
        lower, upper = self.bucket_bounds(len(self.bucket_counts) - 1)
        return upper

    def merge(self, other: "Histogram") -> "Histogram":
        """Bucket-wise sum of two histograms with identical edges.

        Exact: ``merge(h(a), h(b))`` has the same buckets, count, sum
        and min/max as a histogram of the concatenated samples.
        """
        if self.edges != other.edges:
            raise ValueError("cannot merge histograms with different edges")
        merged = Histogram(self.edges)
        merged.bucket_counts = [
            a + b for a, b in zip(self.bucket_counts, other.bucket_counts)
        ]
        merged.count = self.count + other.count
        merged.sum = self.sum + other.sum
        mins = [m for m in (self.min, other.min) if m is not None]
        maxs = [m for m in (self.max, other.max) if m is not None]
        merged.min = min(mins) if mins else None
        merged.max = max(maxs) if maxs else None
        return merged

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Histogram n={self.count} sum={self.sum:.1f}>"


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create metric store keyed by ``(name, labels)``.

    One registry serves a whole run (sim or live); components ask for
    their metric by name + labels and share the instance.  Re-requesting
    a name with a different metric kind is an error — silent type
    punning is exactly the bug class the registry exists to kill.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, Labels], Metric] = {}
        self._kinds: Dict[str, str] = {}

    def _get_or_create(self, name: str, labels: Dict[str, object], factory):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            expected = self._kinds.setdefault(name, metric.kind)
            if metric.kind != expected:
                raise ValueError(
                    f"metric {name!r} already registered as {expected}, "
                    f"requested {metric.kind}"
                )
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(name, labels, Gauge)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        **labels,
    ) -> Histogram:
        return self._get_or_create(name, labels, lambda: Histogram(buckets))

    # -- introspection -----------------------------------------------------

    def collect(self) -> Iterable[Tuple[str, Labels, Metric]]:
        """Every registered metric, sorted by (name, labels)."""
        for (name, labels), metric in sorted(
            self._metrics.items(), key=lambda item: item[0]
        ):
            yield name, labels, metric

    def names(self) -> List[str]:
        return sorted(self._kinds)

    def value(self, name: str, **labels) -> float:
        """Current value of one metric (0.0 if never registered)."""
        metric = self._metrics.get((name, _label_key(labels)))
        return metric.value if metric is not None else 0.0

    def total(self, name: str) -> float:
        """Sum of a metric's value across every label set.

        The reconciliation primitive: per-pool counters roll up to the
        run totals the collector reports.  Added left to right in
        registration order (builtin ``sum()`` compensates on 3.12+).
        """
        total = 0.0
        for (metric_name, _), metric in self._metrics.items():
            if metric_name == name:
                total += metric.value
        return total

    def merged_histogram(self, name: str) -> Optional[Histogram]:
        """Merge a histogram metric across all label sets (or None)."""
        merged: Optional[Histogram] = None
        for (metric_name, _), metric in sorted(self._metrics.items()):
            if metric_name != name or not isinstance(metric, Histogram):
                continue
            merged = metric if merged is None else merged.merge(metric)
        return merged


# -- snapshot / merge (cross-process metrics) --------------------------------

#: A snapshot row: ``(name, labels, kind, payload)`` where payload is a
#: float for counters/gauges and a state dict for histograms.
SnapshotRow = Tuple[str, Tuple[Tuple[str, str], ...], str, object]


def snapshot_registry(registry: MetricsRegistry) -> List[SnapshotRow]:
    """Serialize every metric in *registry* for cross-process transport.

    Live metric objects hold no locks or handles, but shipping the
    registry itself would freeze its concrete classes into the pickle
    stream; a plain-data snapshot keeps the wire format stable.
    """
    rows: List[SnapshotRow] = []
    for name, labels, metric in registry.collect():
        if metric.kind == "histogram":
            payload = {
                "edges": list(metric.edges),
                "bucket_counts": list(metric.bucket_counts),
                "count": metric.count,
                "sum": metric.sum,
                "min": metric.min,
                "max": metric.max,
            }
        else:
            payload = metric.value
        rows.append((name, labels, metric.kind, payload))
    return rows


def _thaw_histogram(payload: Dict) -> Histogram:
    hist = Histogram(payload["edges"])
    hist.bucket_counts = list(payload["bucket_counts"])
    hist.count = int(payload["count"])
    hist.sum = float(payload["sum"])
    hist.min = payload["min"]
    hist.max = payload["max"]
    return hist


def merge_registry_snapshots(
    snapshots: Sequence[Optional[List[SnapshotRow]]],
) -> MetricsRegistry:
    """Merge per-shard registry snapshots into one plane-level registry.

    Counters and gauges sum (a gauge here is an end-of-run level, and
    the plane-level level is the sum over gateways); histograms merge
    exactly bucket-wise.  The result reconciles: every ``*_total`` in
    the merged registry equals the sum of the per-shard totals.

    A dead shard ships no snapshot (``None``) — or a torn, partial
    one.  Either degrades instead of raising: missing snapshots are
    counted in the ``shards_missing`` gauge, unreadable rows in
    ``registry_rows_skipped_total``, and everything readable still
    merges.  Losing a gateway must never also lose the survivors'
    metrics.
    """
    merged = MetricsRegistry()
    missing = 0
    rows_skipped = 0
    for rows in snapshots:
        if rows is None:
            missing += 1
            continue
        for row in rows:
            try:
                name, labels, kind, payload = row
                label_kwargs = dict(labels)
                if kind == "counter":
                    merged.counter(name, **label_kwargs).inc(float(payload))
                elif kind == "gauge":
                    merged.gauge(name, **label_kwargs).inc(float(payload))
                else:
                    incoming = _thaw_histogram(payload)
                    slot = merged.histogram(
                        name, buckets=incoming.edges, **label_kwargs)
                    combined = slot.merge(incoming)
                    slot.bucket_counts = combined.bucket_counts
                    slot.count = combined.count
                    slot.sum = combined.sum
                    slot.min = combined.min
                    slot.max = combined.max
            except (TypeError, ValueError, KeyError, IndexError):
                rows_skipped += 1
    if missing:
        merged.gauge("shards_missing").set(float(missing))
    if rows_skipped:
        merged.counter("registry_rows_skipped_total").inc(rows_skipped)
    return merged
