"""Wall-clock trace replay.

The replayer turns any :class:`~repro.traces.base.ArrivalTrace` into
live requests against a :class:`~repro.serve.gateway.Gateway`.

The *plan* (arrival time and application per request) is computed
eagerly from the trace and a seed, so it is a pure function of its
inputs: two replayers built from the same (trace, mix, seed) produce
identical plans, and a replay admits requests in exactly that order.
The seeded application sequence also matches what the simulator samples
for the same seed, which is what makes scaled-down sim-vs-live parity
tight.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, List, Tuple, Union

import numpy as np

from repro.serve.clock import ScaledClock
from repro.serve.gateway import Gateway
from repro.traces.base import ArrivalTrace
from repro.workloads.applications import Application
from repro.workloads.mixes import WorkloadMix


@dataclass(frozen=True)
class PlannedArrival:
    """One request of the deterministic replay plan."""

    time_ms: float
    app: Application


class TraceReplayer:
    """Deterministic plan + asyncio replay of an arrival trace."""

    def __init__(
        self,
        trace: ArrivalTrace,
        mix: WorkloadMix,
        seed: int = 0,
    ) -> None:
        self.trace = trace
        self.mix = mix
        self.seed = seed
        # Same generator construction and draw order as the simulator's
        # arrival path (ServerlessSystem._on_arrival), so the app
        # sequence is bit-identical to a sim run with the same seed.
        rng = np.random.default_rng(seed)
        plan: List[PlannedArrival] = []
        for t in trace.arrivals_ms:
            app = mix.sample_application(rng)
            plan.append(PlannedArrival(time_ms=float(t), app=app))
        self._plan: Tuple[PlannedArrival, ...] = tuple(plan)
        #: Model-ms timestamps actually replayed (filled by ``replay``).
        self.replayed_ms: List[float] = []

    def plan(self) -> Tuple[PlannedArrival, ...]:
        """The deterministic replay schedule."""
        return self._plan

    def __len__(self) -> int:
        return len(self._plan)

    async def replay(
        self,
        gateway: Union[Gateway, Callable[[], Gateway]],
        clock: ScaledClock,
    ) -> int:
        """Admit every planned arrival at its (scaled) wall time.

        Sleeps against absolute plan timestamps so drift never
        accumulates.  ``gateway`` may be a zero-arg callable resolved
        per arrival — the runtime passes one so arrivals land on the
        *current* gateway even after a crash replaces it mid-replay.
        Returns the number of arrivals offered (admitted plus shed).
        """
        resolve = gateway if callable(gateway) else (lambda: gateway)
        clock.start()
        self.replayed_ms = []
        for planned in self._plan:
            if planned.time_ms > clock.now:
                await clock.sleep_until_ms(planned.time_ms)
            else:
                # Behind the plan, sleep_until_ms would return without
                # yielding: yield once per arrival anyway, or a replay
                # that has fallen behind admits the whole rest of the
                # trace in one step while no completion, tick or fault
                # can run.
                await asyncio.sleep(0)
            # The app comes from the plan (drawn eagerly from the seeded
            # stream), not the gateway's own rng, so a replay is
            # deterministic regardless of wall-clock jitter.
            resolve().admit(app=planned.app)
            self.replayed_ms.append(planned.time_ms)
        return len(self.replayed_ms)
