"""Periodic control-plane checkpoints for the live serving path.

The journal (:mod:`repro.serve.journal`) preserves *requests*; this
module preserves the *brain*: pool sizes, the arrival window behind the
proactive forecaster, the spawn governor's cooldown state and the
StateStore's documents.  A checkpoint is one JSON document, written
atomically (tmp + ``os.replace``) so a crash mid-write can never leave
a torn snapshot — recovery either sees the previous complete checkpoint
or the new one, nothing in between.

Checkpoints are driven from the control loop's tick (via
:meth:`CheckpointManager.maybe`), which is deliberate: a crashed
control loop stops checkpointing, so the snapshot age at recovery
reflects exactly how long the brain was dead.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Callable, Dict, Optional, Union

from repro.obs.export import atomic_write_text
from repro.obs.registry import MetricsRegistry

PathLike = Union[str, pathlib.Path]

#: Checkpoint document schema version.
CHECKPOINT_SCHEMA_VERSION = 1

#: Snapshot filename inside the durability directory.
CHECKPOINT_BASENAME = "checkpoint.json"


def checkpoint_basename(shard_id: int = 0, n_shards: int = 1) -> str:
    """Checkpoint filename for one gateway shard (see
    :func:`repro.serve.journal.journal_basename`)."""
    if n_shards <= 1:
        return CHECKPOINT_BASENAME
    return f"checkpoint-{shard_id}.json"

#: Default model-ms between snapshots (the paper's monitor cadence x3).
DEFAULT_CHECKPOINT_INTERVAL_MS = 30_000.0


class CheckpointManager:
    """Atomic write/load of the latest control-plane snapshot."""

    def __init__(
        self,
        directory: PathLike,
        interval_ms: float = DEFAULT_CHECKPOINT_INTERVAL_MS,
        registry: Optional[MetricsRegistry] = None,
        basename: str = CHECKPOINT_BASENAME,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.interval_ms = interval_ms
        self.basename = basename
        self.last_checkpoint_ms = -math.inf
        registry = registry if registry is not None else MetricsRegistry()
        self._c_written = registry.counter("checkpoints_written_total")

    @property
    def path(self) -> pathlib.Path:
        return self.directory / self.basename

    def maybe(
        self, now_ms: float, snapshot_fn: Callable[[float], Dict]
    ) -> bool:
        """Save a snapshot if the interval has elapsed; returns True if
        one was written."""
        if now_ms - self.last_checkpoint_ms < self.interval_ms:
            return False
        self.save(snapshot_fn(now_ms), now_ms)
        return True

    def save(self, state: Dict, now_ms: float) -> pathlib.Path:
        """Atomically persist *state* as the latest checkpoint."""
        state = dict(state)
        state.setdefault("version", CHECKPOINT_SCHEMA_VERSION)
        state.setdefault("t_ms", now_ms)
        path = atomic_write_text(
            self.path, json.dumps(state, indent=2, sort_keys=True) + "\n"
        )
        self.last_checkpoint_ms = now_ms
        self._c_written.inc()
        return path

    def load_latest(self) -> Optional[Dict]:
        """The most recent complete snapshot, or None if none exists.

        Atomic writes guarantee the file, when present, is complete;
        a snapshot from a future schema version is rejected loudly
        rather than half-understood.
        """
        if not self.path.exists():
            return None
        state = json.loads(self.path.read_text(encoding="utf-8"))
        version = int(state.get("version", 0))
        if version > CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(
                f"checkpoint schema v{version} is newer than this "
                f"runtime understands (v{CHECKPOINT_SCHEMA_VERSION})"
            )
        return state
