"""Wall-clock ↔ model-time mapping for the live runtime.

Every brick of the reproduction — slacks, SLOs, cold starts, monitor
intervals — is calibrated in *model milliseconds*.  The live runtime
keeps those numbers untouched and instead scales the passage of wall
time: with ``time_scale = s``, one model second takes ``s`` wall
seconds.  ``time_scale = 1.0`` is real time; smaller values compress a
run (0.05 ⇒ a 60 s model workload completes in 3 s) while preserving
every *relative* timing relationship.

The clock exposes ``now`` (model ms) so the simulator's pools and
scalers — which only ever read ``sim.now`` — run against it unchanged.
It reads the clock its timers fire on, the running event loop's
``time()`` (``time.monotonic`` on a stock loop), so a loop on virtual
time, as in the tests, carries the model clock with it.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional

#: Resolution of the clock asyncio's loop reads (``loop.time()``): the
#: loop fires every timer due within it of now, so a slot's watchdog
#: treats a deadline that close as passed.
LOOP_RESOLUTION_S = time.get_clock_info("monotonic").resolution


class ScaledClock:
    """The event loop's clock, reported in scaled model milliseconds.

    Duck-types the one attribute of :class:`repro.sim.engine.Simulator`
    that :class:`repro.workflow.pool.FunctionPool` reads: ``now``.
    """

    def __init__(self, time_scale: float = 1.0) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.time_scale = time_scale
        self._start_wall: Optional[float] = None

    def start(self) -> None:
        """Anchor model t=0 at the running loop's current instant
        (idempotent); from then on :attr:`now` reads that loop's time."""
        if self._start_wall is None:
            self._time = asyncio.get_running_loop().time
            self._start_wall = self._time()

    @property
    def started(self) -> bool:
        return self._start_wall is not None

    @property
    def now(self) -> float:
        """Model milliseconds elapsed since :meth:`start`."""
        if self._start_wall is None:
            return 0.0
        wall_s = self._time() - self._start_wall
        return wall_s / self.time_scale * 1000.0

    def to_wall_s(self, model_ms: float) -> float:
        """Wall seconds corresponding to a model-ms duration."""
        return model_ms / 1000.0 * self.time_scale

    async def sleep_ms(self, model_ms: float) -> None:
        """Sleep for a model-ms duration (wall-scaled)."""
        if model_ms > 0:
            await asyncio.sleep(self.to_wall_s(model_ms))

    async def sleep_until_ms(self, model_ms: float) -> None:
        """Sleep until the model clock reaches *model_ms* (absolute).

        Sleeping against the absolute deadline (not a chain of relative
        naps) keeps a long replay from accumulating scheduler drift.
        """
        remaining = model_ms - self.now
        if remaining > 0:
            await asyncio.sleep(self.to_wall_s(remaining))
