"""The benchmark's own tracing: spans around calls into the program,
and a cProfile pass folded by module for the time inside those calls.

The benchmark may not edit the program, so it can only place spans at
the boundary (``traces.make``, ``system.run``, ``serve.run`` ...).  What
happens *inside* ``system.run`` / ``serve.run`` is attributed by running
one extra pass under cProfile and summing each function's self time
into the ``repro`` module its file belongs to.
"""

from __future__ import annotations

import contextlib
import cProfile
import json
import pathlib
import pstats
import time
from typing import Callable, Dict, Iterator, List, Tuple


class SpanRecorder:
    """Nested wall-clock spans, kept in memory until :meth:`write`."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Dict]:
        record = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start_s": time.perf_counter(),
            "end_s": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end_s"] = time.perf_counter()
            self._open.pop()

    def finished(self) -> List[Dict]:
        """Closed spans with ``duration_s`` and ``self_s`` (duration
        minus the part covered by child spans) filled in."""
        closed = [dict(s) for s in self.spans if s["end_s"] is not None]
        child_time: Dict[int, float] = {}
        for span in closed:
            span["duration_s"] = span["end_s"] - span["start_s"]
            if span["parent"] is not None:
                child_time[span["parent"]] = (
                    child_time.get(span["parent"], 0.0) + span["duration_s"])
        for span in closed:
            span["self_s"] = span["duration_s"] - child_time.get(span["id"], 0.0)
        return closed

    def durations_s(self, name: str) -> List[float]:
        """Duration of every closed span called *name*, in order."""
        return [
            s["end_s"] - s["start_s"] for s in self.spans
            if s["name"] == name and s["end_s"] is not None]

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.finished():
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def _is_idle_wait(func: Tuple[str, int, str]) -> bool:
    # The event loop's poll is waiting, not work: a live run that is
    # half idle must not report half its time in "stdlib".
    return func[0] == "~" and "select." in func[2] and "poll" in func[2]


def module_of(filename: str, package_root: str) -> str:
    """Layer name of a profiled file: ``sim.engine`` for
    ``<package_root>/sim/engine.py``; whole packages for ``cluster``,
    ``prediction``, ``shard`` and ``traces`` (reported as one layer);
    ``stdlib`` for everything outside the package (numpy, asyncio,
    json, builtins such as ``os.fsync``)."""
    if not filename.startswith(package_root) or not filename.endswith(".py"):
        return "stdlib"
    rel = list(pathlib.PurePath(filename[len(package_root):-3]).parts)
    rel = [p for p in rel if p not in ("/", "__init__")]
    if rel and rel[0] in ("cluster", "prediction", "shard", "traces"):
        return rel[0]
    return ".".join(rel) or "repro"


def profile_by_module(
    fn: Callable[[], object], package_root: str
) -> Tuple[Dict[str, float], int, object]:
    """Run *fn* under cProfile on this thread; *package_root* is the
    directory of the ``repro`` package.

    Returns ``(share, calls, result)``: each module's share of the
    thread's busy self time (idle polls excluded), the number of
    function calls profiled, and *fn*'s return value.
    """
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    by_module: Dict[str, float] = {}
    calls = 0
    for func, (_, n_calls, self_s, _, _) in stats.items():
        if _is_idle_wait(func):
            continue
        calls += n_calls
        module = module_of(func[0], package_root)
        by_module[module] = by_module.get(module, 0.0) + self_s
    busy = sum(by_module.values())
    share = {m: (t / busy if busy > 0 else 0.0) for m, t in by_module.items()}
    return share, calls, result


def self_time_coverage(spans: List[Dict], wall_s: float) -> float:
    """Sum of every span's self time over the run's wall time; 1.0 when
    the spans account for the whole run."""
    return sum(s["self_s"] for s in spans) / wall_s
