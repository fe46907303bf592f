"""The host: what the numbers were measured on, and how fast it was
running while they were."""

from __future__ import annotations

import os
import pathlib
import platform
import signal
import time
from typing import Dict, Optional

import numpy as np


def filesystem_type(path: pathlib.Path) -> str:
    """Filesystem type of the mount holding *path* (``unknown`` off
    Linux).  ``tmpfs`` makes fsync free, which voids ``live-durable``."""
    target = str(path.resolve())
    best, fs_type = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = target == mount or target.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fs_type = mount, fields[2]
    except OSError:
        pass
    return fs_type


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process (and every thread and child it starts) to the
    highest-numbered CPU it may use; returns it (``None`` off Linux).

    The two vCPUs of the authoring host change speed independently, the
    live plane hands every stage to an executor thread and back, and the
    speed probe below samples the main thread only: unpinned, the probe
    and the work it is meant to follow can sit on different cores, and
    each hand-over may cross cores (an inter-processor interrupt, which
    in a VM costs what the host decides).  On one core the load is one
    runnable thread at a time — never more than ``nproc``.  The highest
    CPU, because interrupts and housekeeping prefer CPU 0."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def _affinity() -> str:
    try:
        return ",".join(str(cpu) for cpu in sorted(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return "unknown"


def fingerprint(journal_dir: pathlib.Path) -> Dict[str, object]:
    """Taken at the start of a run, before any load is generated."""
    nproc = os.cpu_count() or 1
    try:
        load_1m = os.getloadavg()[0]
    except OSError:
        load_1m = 0.0
    return {
        "nproc": nproc,
        "cpus": _affinity(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "journal_fs": filesystem_type(journal_dir),
        "load_1m": round(load_1m, 2),
        # Someone else is using more than half the cores: the timings
        # of this run are not to be trusted.
        "disturbed": load_1m > 0.5 * nproc,
    }


class SpeedProbe:
    """How fast this core runs Python *while* the timed code runs.

    On a shared VM identical CPU-bound work takes 10-45 % longer or
    shorter from one minute — or one tenth of a second — to the next,
    because the core shares hardware with other tenants.  A calibration
    timed before and after a pass does not see it; one taken *during*
    the pass does (correlation 0.85-0.9 with the pass time, within and
    between processes).

    An interval timer interrupts the main thread every ``PERIOD_S`` and
    times a fixed quarter-millisecond *spin* (arithmetic on small
    integers) there and a fixed *chase* (dependent loads through a
    16 MB table, each a cache miss) — 2 % of the thread's time, which
    :meth:`spent_s` gives back.

    The simulator keeps the core busy from start to end, and its pass
    time follows the spin: :meth:`slowdown` is the mean spin time of a
    stretch of the run over ``NOMINAL_SPIN_S``.  The live plane sleeps
    between events and works in bursts of a tenth of a millisecond on a
    core whose caches somebody else has used in between; there the spin
    alone over-reacts (it moved 30 % where the plane's CPU time moved
    10 %) and the chase alone under-reacts, and :meth:`slowdown_mixed`
    — the geometric mean of the two, from the medians over the whole
    serve — is what followed the plane in every A/A campaign (README).
    A CPU-bound duration divided by its slowdown is that duration in
    *reference seconds*: what it would have been had the core run the
    probe at the nominal speed throughout.
    """

    PERIOD_S = 0.025
    SPIN = 7000
    #: The spin on the authoring host in its fast state (the fastest of
    #: some 20 000 samples over a day; runs reach it within 2 %).  A
    #: fixed reference, not a per-run minimum: a run that never sees
    #: the fast state would otherwise hide its own slowdown.  On another
    #: class of machine every normalised number shifts by one constant
    #: factor, which comparisons between commits do not see.
    NOMINAL_SPIN_S = 245e-6
    #: Entries of the chase table (4-byte offsets: 16 MB, beyond the
    #: private caches) and loads per sample.
    CHASE_ENTRIES = 1 << 22
    CHASE_STEPS = 1200
    #: The chase on the authoring host in its fast state.
    NOMINAL_CHASE_S = 250e-6

    _table: Optional[memoryview] = None

    def __init__(self) -> None:
        self.starts: list = []
        self.durations: list = []
        self.chase_durations: list = []
        self._previous = None
        self._at = 0
        self._chase = self.chase_table()

    @classmethod
    def chase_table(cls) -> memoryview:
        """One cycle through all entries in pseudo-random order, so that
        no stretch of the chase fits a cache; built once per process,
        in place (touching fresh memory is what building it costs).
        (A full-period linear congruential map: a power-of-two modulus,
        ``a % 4 == 1``, ``c`` odd.)"""
        if cls._table is None:
            following = np.arange(cls.CHASE_ENTRIES, dtype=np.uint32)
            following *= np.uint32(1664525)
            following += np.uint32(1013904223)
            following &= np.uint32(cls.CHASE_ENTRIES - 1)
            cls._table = memoryview(following)
        return cls._table

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        x = 0
        for i in range(self.SPIN):
            x += i * i % 7
        spun = time.perf_counter()
        self.starts.append(started)
        self.durations.append(spun - started)
        table, at = self._chase, self._at
        for _ in range(self.CHASE_STEPS):
            at = table[at]
        self._at = at
        self.chase_durations.append(time.perf_counter() - spun)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if not callable(self._previous):
            # Not nested inside another probe: stop the timer, and stop
            # it first — an alarm with no handler ends the process.
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, values: list, start_s: float, end_s: float):
        # A sample interrupted by the end of the run has a start only.
        starts = np.asarray(self.starts[:len(values)])
        mask = (starts >= start_s) & (starts < end_s)
        return np.asarray(values)[mask]

    def spent_s(self, start_s: float, end_s: float) -> float:
        """Time the probe itself took inside the interval."""
        return float(
            self._between(self.durations, start_s, end_s).sum()
            + self._between(self.chase_durations, start_s, end_s).sum())

    def slowdown(self, start_s: float, end_s: float) -> float:
        """Mean spin time inside the interval over the nominal one
        (1.0 when no sample fell inside it)."""
        inside = self._between(self.durations, start_s, end_s)
        if inside.size == 0:
            return 1.0
        return float(inside.mean()) / self.NOMINAL_SPIN_S

    def slowdown_mixed(self, start_s: float, end_s: float) -> float:
        """Geometric mean of the spin's and the chase's median time
        inside the interval, each over its nominal time (1.0 when no
        sample fell inside it)."""
        spin = self._between(self.durations, start_s, end_s)
        chase = self._between(self.chase_durations, start_s, end_s)
        if spin.size == 0 or chase.size == 0:
            return 1.0
        return float(np.sqrt(
            np.median(spin) / self.NOMINAL_SPIN_S
            * np.median(chase) / self.NOMINAL_CHASE_S))
