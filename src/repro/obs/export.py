"""Observability exporters: span JSONL, Prometheus text, breakdowns.

Three consumers, three formats:

* **Span JSONL** — one JSON object per span, the schema of
  :meth:`repro.obs.trace.Span.to_dict`.  Machine-diffable (the golden
  trace tests), streamable, and loadable into any trace viewer with a
  ten-line adapter.  :func:`validate_span_dict` is the schema's
  executable definition; CI's trace-smoke step runs it over real output.
* **Prometheus text exposition** — a point-in-time snapshot of a
  :class:`~repro.obs.registry.MetricsRegistry`, scrape-compatible.
* **Latency breakdown** — the per-stage decomposition table (queuing vs
  cold start vs execution vs transitions) whose components sum exactly
  to the recorded mean end-to-end latency; this is the report-side view
  of the same data the spans carry per request.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import pathlib
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.trace import SPAN_NAMES, Span

PathLike = Union[str, pathlib.Path]

_tmp_ids = itertools.count()


def atomic_write_text(
    path: PathLike, text: str, fsync: bool = True
) -> pathlib.Path:
    """Write *text* to *path* atomically (tmp file + ``os.replace``).

    Readers never observe a truncated artifact: they see the previous
    complete file or the new complete file, nothing in between.  Every
    publisher funnels through this helper: summaries, span JSONL,
    Prometheus snapshots and checkpoints must survive a crash (``fsync``
    on); the heartbeat and lease files are liveness hints rewritten
    every second from the event-loop thread, and a torn trial-cache
    entry is simply re-run (``fsync=False``).  The temp name is unique
    per process and call, so concurrent writers of one path never
    share it.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_tmp_ids)}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(text)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


#: Required top-level fields of one exported span and their types.
SPAN_SCHEMA: Dict[str, type] = {
    "trace_id": str,
    "span_id": str,
    "name": str,
    "start_ms": float,
    "end_ms": float,
    "duration_ms": float,
    "attrs": dict,
}


def validate_span_dict(record: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless *record* is one schema-valid span."""
    for field_name, expected in SPAN_SCHEMA.items():
        if field_name not in record:
            raise ValueError(f"span missing field {field_name!r}: {record}")
        value = record[field_name]
        if expected is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(
                    f"span field {field_name!r} must be numeric, "
                    f"got {type(value).__name__}"
                )
            if not math.isfinite(float(value)):
                raise ValueError(f"span field {field_name!r} must be finite")
        elif not isinstance(value, expected):
            raise ValueError(
                f"span field {field_name!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )
    if "parent_id" not in record:
        raise ValueError(f"span missing field 'parent_id': {record}")
    parent = record["parent_id"]
    if parent is not None and not isinstance(parent, str):
        raise ValueError("span field 'parent_id' must be a string or null")
    if record["name"] not in SPAN_NAMES:
        raise ValueError(f"unknown span name {record['name']!r}")
    if float(record["end_ms"]) < float(record["start_ms"]):
        raise ValueError(
            f"span {record['span_id']!r} ends before it starts"
        )
    if (record["name"] == "request") != (parent is None):
        raise ValueError(
            "exactly the 'request' span must be a root (parent_id null)"
        )


def write_spans_jsonl(spans: Iterable[Span], path: PathLike) -> pathlib.Path:
    """Write spans as JSONL, one schema-valid object per line.

    Atomic (tmp + ``os.replace``): a crash mid-export never leaves a
    truncated span file for the golden-trace diff to choke on.
    """
    lines = "".join(
        json.dumps(span.to_dict(), sort_keys=True) + "\n" for span in spans
    )
    return atomic_write_text(path, lines)


def validate_spans_jsonl(path: PathLike) -> int:
    """Validate every line of a span JSONL file; returns the span count.

    The CI trace-smoke step's entry point: raises on the first
    schema-invalid span.
    """
    count = 0
    with pathlib.Path(path).open() as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not JSON: {exc}") from exc
            validate_span_dict(record)
            count += 1
    return count


# -- Prometheus text exposition ---------------------------------------------


def _format_labels(labels) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + inner + "}"


def prometheus_snapshot(registry: MetricsRegistry) -> str:
    """Render *registry* in the Prometheus text exposition format."""
    lines: List[str] = []
    seen_types = set()
    for name, labels, metric in registry.collect():
        if name not in seen_types:
            lines.append(f"# TYPE {name} {metric.kind}")
            seen_types.add(name)
        label_str = _format_labels(labels)
        if isinstance(metric, Histogram):
            cumulative = 0
            for i, bucket_count in enumerate(metric.bucket_counts):
                cumulative += bucket_count
                le = (
                    f"{metric.edges[i]:g}"
                    if i < len(metric.edges)
                    else "+Inf"
                )
                bucket_labels = tuple(labels) + (("le", le),)
                lines.append(
                    f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}"
                )
            lines.append(f"{name}_sum{label_str} {metric.sum:g}")
            lines.append(f"{name}_count{label_str} {metric.count}")
        else:
            lines.append(f"{name}{label_str} {metric.value:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_metrics_text(
    registry: MetricsRegistry, path: PathLike
) -> pathlib.Path:
    """Write a Prometheus text snapshot of *registry* to *path*
    atomically (scrapers never see a half-written exposition)."""
    return atomic_write_text(path, prometheus_snapshot(registry))


# -- latency breakdown -------------------------------------------------------

#: Ordered component keys of :func:`latency_breakdown`.  The first four
#: sum exactly to ``e2e`` (each is a mean over completed jobs and the
#: decomposition holds per job, so it holds for the means).
BREAKDOWN_COMPONENTS = ("queuing", "cold_start", "exec", "transition")


def latency_breakdown(result) -> Dict[str, float]:
    """Mean end-to-end latency decomposed into its stage components.

    ``queuing`` is batching wait (queue delay not caused by cold
    starts), ``cold_start`` the cold-start-induced wait, ``exec`` the
    execution time, and ``transition`` everything else — per-hop
    transition overheads plus (live runs only) event-loop slop.  By
    construction ``queuing + cold_start + exec + transition == e2e``.
    """
    import numpy as np

    if result.latencies_ms.size == 0:
        breakdown = {key: 0.0 for key in BREAKDOWN_COMPONENTS}
        breakdown["e2e"] = 0.0
        return breakdown
    e2e = float(np.mean(result.latencies_ms))
    queuing = float(np.mean(result.batch_wait_ms))
    cold = float(np.mean(result.cold_wait_ms))
    exec_ms = float(np.mean(result.exec_ms))
    return {
        "queuing": queuing,
        "cold_start": cold,
        "exec": exec_ms,
        "transition": e2e - queuing - cold - exec_ms,
        "e2e": e2e,
    }
