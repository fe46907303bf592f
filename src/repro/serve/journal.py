"""Write-ahead request journal for the live serving path.

The gateway is the only component that knows which requests exist; if
it dies, every in-flight job is forgotten and the run's accounting is
silently wrong.  The journal fixes that: every admission, stage hop,
retry and terminal outcome is appended — one JSON object per line — to
an append-only file *before* the corresponding in-memory state becomes
load-bearing.  Recovery (:mod:`repro.serve.recovery`) replays the tail
to rebuild the live-job set with exactly-once accounting.

Durability contract:

* **admit** and terminal records (**complete** / **fail** / **shed**)
  are flushed and fsynced immediately — losing one would lose a job or
  double-count it after a restore.
* **hop** and **retry** records are progress hints: they only affect
  *where* a recovered job resumes, never *whether* it exists, so they
  may batch up to :data:`FSYNC_BATCH` appends before an fsync.

The reader side tolerates a truncated final line (the classic
crash-mid-append artifact) and ignores unknown event types, so the
format can grow without breaking old recoveries.

Single-writer contract: a JSONL WAL is only torn-tail-recoverable if
exactly one process appends to it.  Opening a journal takes an
``O_EXCL`` pid sentinel (``<path>.lock``); a second writer on the same
path raises :class:`JournalLockedError` instead of interleaving.  A
lock whose pid is dead (crashed writer) is stolen — with the stolen
pid:token logged, never silently — because recovery after a crash
reopens the same journal by design.  A lock whose pid is still *live*
is never stolen: a second process racing a merely-slow writer must
refuse.

Conservation invariant (checked by the crash-recovery study): for every
unique job id, ``#admit == #complete + #fail + #shed`` once the run has
drained — journaled admissions equal completions + sheds + dead-letters.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import pathlib
from typing import Dict, List, Optional, Union

from repro.obs.registry import MetricsRegistry

logger = logging.getLogger(__name__)

PathLike = Union[str, pathlib.Path]

#: Journal schema version, stamped on every record.
JOURNAL_SCHEMA_VERSION = 1

#: Journal filename inside the durability directory.
JOURNAL_BASENAME = "journal.jsonl"


#: Liveness-beat filename (atomic JSON, written beside the journal).
HEARTBEAT_BASENAME = "heartbeat-0.json"


# Event types.
EV_ADMIT = "admit"
EV_HOP = "hop"
EV_RETRY = "retry"
EV_COMPLETE = "complete"
EV_FAIL = "fail"
EV_SHED = "shed"

#: Events that end a job's life; exactly one per admitted job.
TERMINAL_EVENTS = frozenset({EV_COMPLETE, EV_FAIL, EV_SHED})

#: Events recovery understands; anything else is skipped on read.
KNOWN_EVENTS = frozenset({EV_ADMIT, EV_HOP, EV_RETRY}) | TERMINAL_EVENTS

#: Hop/retry records buffered between fsyncs.
FSYNC_BATCH = 32


class JournalLockedError(RuntimeError):
    """Another live process already owns this journal path."""


def pid_alive(pid: int) -> bool:
    """Whether *pid* names a running process.  ``kill(0, …)`` and
    ``kill(-1, …)`` address process *groups*, which always "exist": a
    relic naming one is no owner at all."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    except OSError:  # pragma: no cover - conservative default
        return False
    return True


_lock_tokens = itertools.count(1)


class _WriterLock:
    """``O_CREAT|O_EXCL`` pid sentinel guarding one journal path."""

    def __init__(self, journal_path: pathlib.Path) -> None:
        self.path = journal_path.with_name(journal_path.name + ".lock")
        # pid:token — the token distinguishes two locks from the same
        # process (an in-process respawn steals a stale sentinel; the
        # stale lock's release must then not unlink the new one).
        self._content = f"{os.getpid()}:{next(_lock_tokens)}"
        self._held = False
        self._acquire()

    def _acquire(self) -> None:
        while True:
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                owner = self._owner_pid()
                if owner is not None and owner != os.getpid() \
                        and pid_alive(owner):
                    raise JournalLockedError(
                        f"journal {self.path} is already owned by "
                        f"live pid {owner}; a second writer would "
                        f"interleave the WAL"
                    )
                # Stale sentinel (writer crashed) or unreadable relic:
                # steal it and retry the exclusive create.  Reopening
                # after a crash lands here, so the steal is an audited
                # event, never a silent one.
                try:
                    relic = self.path.read_text()
                except OSError:
                    relic = "<unreadable>"
                logger.warning(
                    "stealing stale journal lock %s (owner %s, dead or "
                    "unparseable; our claim %s)",
                    self.path, relic.strip() or "<empty>", self._content,
                )
                try:
                    self.path.unlink()
                except FileNotFoundError:
                    pass
                continue
            with os.fdopen(fd, "w") as handle:
                handle.write(self._content)
            self._held = True
            return

    def _owner_pid(self) -> Optional[int]:
        try:
            return int(self.path.read_text().split(":", 1)[0])
        except (OSError, ValueError):
            return None

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            if self.path.read_text() == self._content:
                self.path.unlink()
        except OSError:  # pragma: no cover - already gone
            pass


def journal_record(ev: str, job_id: int, t_ms: float, **fields) -> Dict:
    """The one journal record constructor (file WAL and memory sink)."""
    record = {
        "v": JOURNAL_SCHEMA_VERSION,
        "ev": ev,
        "job": int(job_id),
        "t": round(float(t_ms), 3),
    }
    record.update(fields)
    return record


def journal_conservation(records: List[Dict]) -> Dict:
    """Exactly-once verdict over a journal's records.

    Per unique job id the journal must hold at least one ``admit`` and
    exactly one terminal record (``complete``/``fail``/``shed``) once
    the run has drained.  Duplicate admits for the same id are fine —
    recovery never re-journals admissions, so any duplicate would be a
    real double-count — but duplicate *terminals* and admitted-without-
    terminal jobs are conservation failures.
    """
    admits: Dict[int, int] = {}
    terminals: Dict[int, int] = {}
    for rec in records:
        job = rec["job"]
        if rec["ev"] == EV_ADMIT:
            admits[job] = admits.get(job, 0) + 1
        elif rec["ev"] in TERMINAL_EVENTS:
            terminals[job] = terminals.get(job, 0) + 1
    lost = sorted(j for j in admits if j not in terminals)
    duplicated = sorted(j for j, n in terminals.items() if n > 1)
    orphaned = sorted(j for j in terminals if j not in admits)
    return {
        "jobs_admitted": len(admits),
        "jobs_terminal": len(terminals),
        "lost_jobs": lost,
        "duplicated_terminals": duplicated,
        "orphaned_terminals": orphaned,
        "conserved": not (lost or duplicated or orphaned),
    }


class JournalWriter:
    """The lifecycle's journal vocabulary over one ``append`` sink."""

    def append(self, ev: str, job_id: int, t_ms: float, **fields) -> None:
        raise NotImplementedError

    def admit(self, job) -> None:
        self.append(EV_ADMIT, job.job_id, job.arrival_ms, app=job.app.name)

    def hop(self, job, stage_index: int, t_ms: float) -> None:
        self.append(EV_HOP, job.job_id, t_ms, stage=int(stage_index))

    def retry(self, task, t_ms: float) -> None:
        self.append(
            EV_RETRY,
            task.job.job_id,
            t_ms,
            stage=int(task.stage_index),
            attempt=int(task.attempts),
        )

    def complete(self, job, t_ms: float) -> None:
        self.append(EV_COMPLETE, job.job_id, t_ms)

    def fail(self, job, t_ms: float, reason: Optional[str] = None) -> None:
        self.append(EV_FAIL, job.job_id, t_ms, reason=reason)

    def shed(self, job, t_ms: float, reason: Optional[str] = None) -> None:
        self.append(EV_SHED, job.job_id, t_ms, reason=reason)


class MemoryJournal(JournalWriter):
    """In-memory sink with the WAL's exact record schema.

    The sharded simulator's fault plane journals through this, so a
    takeover replays :func:`repro.serve.recovery.build_recovery_plan`
    over the same records a live shard's file would hold.
    """

    def __init__(self) -> None:
        self.records: List[Dict] = []

    def append(self, ev: str, job_id: int, t_ms: float, **fields) -> None:
        self.records.append(journal_record(ev, job_id, t_ms, **fields))


class RequestJournal(JournalWriter):
    """Append-only JSONL write-ahead log keyed by job id."""

    def __init__(
        self,
        path: PathLike,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Exactly one live writer per path (see module docstring); the
        # sentinel is released by close().
        self._lock = _WriterLock(self.path)
        # Append mode: a recovered run continues the same journal, so
        # the full admission history survives any number of crashes.
        self._handle = self.path.open("a", encoding="utf-8")
        self._buffer: List[str] = []
        self._closed = False
        registry = registry if registry is not None else MetricsRegistry()
        self._c_appends = registry.counter("journal_appends_total")
        self._c_fsyncs = registry.counter("journal_fsyncs_total")

    # -- write side --------------------------------------------------------

    def append(
        self,
        ev: str,
        job_id: int,
        t_ms: float,
        durable: Optional[bool] = None,
        **fields,
    ) -> None:
        """Append one record; fsync per the durability contract.

        ``durable=None`` applies the default policy: admissions and
        terminal events are forced to disk, progress hints batch.
        """
        if self._closed:
            return
        if durable is None:
            durable = ev == EV_ADMIT or ev in TERMINAL_EVENTS
        self._buffer.append(json.dumps(
            journal_record(ev, job_id, t_ms, **fields), sort_keys=True))
        self._c_appends.inc()
        if durable or len(self._buffer) >= FSYNC_BATCH:
            self.flush()

    def flush(self) -> None:
        """Write the buffer through and fsync the file."""
        if self._closed or not self._buffer:
            return
        self._handle.write("\n".join(self._buffer) + "\n")
        self._buffer.clear()
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._c_fsyncs.inc()

    def drop_unflushed(self) -> int:
        """Crash semantics: buffered-but-unfsynced records are lost.

        Crash injection calls this so recovery only ever sees what a
        real process death would have left on disk.  Returns the number
        of records dropped.
        """
        dropped = len(self._buffer)
        self._buffer.clear()
        return dropped

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._handle.close()
        self._lock.release()
        self._closed = True

    # -- read side ---------------------------------------------------------

    @staticmethod
    def read_records(path: PathLike) -> List[Dict]:
        """Read every well-formed record from *path*, oldest first.

        A truncated or corrupt **final** line is tolerated (the file was
        being appended when the process died); corruption anywhere else
        raises, because silently skipping mid-file records would turn a
        storage fault into wrong exactly-once accounting.
        """
        path = pathlib.Path(path)
        if not path.exists():
            return []
        lines = path.read_text(encoding="utf-8").splitlines()
        records: List[Dict] = []
        for i, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if i == len(lines) - 1:
                    break  # torn tail write: expected crash artifact
                raise ValueError(
                    f"{path}:{i + 1}: corrupt journal record mid-file"
                )
            if record.get("ev") in KNOWN_EVENTS:
                records.append(record)
        return records
