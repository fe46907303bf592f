"""The control plane: the scalers a config names, one guarded tick.

Every monitoring interval (the paper's 10 s cadence) the same sequence
runs under every driver — the event-loop simulator, the vector engine
and the live ``ControlLoop``: spawn-governor bookkeeping, the tick
scaler the policy's provisioning names (RScale's reactive scaler or the
HPA baseline), proactive (predictor-driven) scaling, idle reaping, then
a metrics/energy sample.  Each step runs through one ``guard``: a
scaler or sampler raising degrades that one step for that one tick —
never the run's whole control plane.

The drivers keep only what is theirs: when a tick is skipped (control
blackout, dead shard) and — live only — supervision before and a
checkpoint after the shared sequence.  What they all hand over is a
dict of :class:`~repro.core.poolsurface.PoolSurface` pools.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict

from repro.core.policies import Provisioning
from repro.core.poolsurface import PoolSurface
from repro.core.scaling import (
    HPAScaler,
    ProactiveScaler,
    ReactiveScaler,
    SpawnGovernor,
    static_pool_sizes,
)

logger = logging.getLogger(__name__)


class ControlPlane:
    """The governor and scalers *config* names over *pools*, and the
    guarded tick sequence over them."""

    def __init__(
        self,
        config,
        pools: Dict[str, PoolSurface],
        registry,
        sample: Callable[[float], None],
        predictor,
        sampler,
        stage_shares: Dict[str, float],
        seed: int,
    ) -> None:
        self.config = config
        self.pools = pools
        self.registry = registry
        self.sample = sample
        # None when every guardrail is at its off-default: the scalers
        # then actuate through the exact ungoverned path.
        governor = self.governor = SpawnGovernor.from_config(
            config, registry=registry, seed=seed)
        #: The tick scaler the provisioning names; None for the ones
        #: that provision at enqueue time or never.
        self.scaler = None
        if config.provisioning is Provisioning.RSCALE:
            self.scaler = ReactiveScaler(pools, governor=governor)
        elif config.provisioning is Provisioning.HPA:
            self.scaler = HPAScaler(pools)
        self.proactive = None
        if predictor is not None:
            self.proactive = ProactiveScaler(
                pools, predictor, sampler, stage_shares,
                utilization_target=config.utilization_target,
                governor=governor, registry=registry)
        #: Tick steps that raised (and were contained) — nonzero means
        #: a control-plane component is broken; surfaced in summaries.
        self.tick_errors = 0

    def guard(self, step: str, fn, *args) -> None:
        """Run one tick step; contain, log and count any exception."""
        try:
            fn(*args)
        except Exception:
            self.tick_errors += 1
            self.registry.counter("scaling_tick_errors_total").inc()
            logger.warning(
                "control-plane tick step %r failed (contained)",
                step, exc_info=True,
            )

    def reap_idle(self, now_ms: float) -> None:
        if self.governor is not None and not self.governor.allow_reap(now_ms):
            # Scale-down cooldown: a recent governed scale-up means the
            # system is still absorbing load — reaping now would churn.
            return
        for pool in self.pools.values():
            pool.reap_idle(self.config.idle_timeout_ms)

    def tick(self, now_ms: float) -> None:
        """One monitoring interval."""
        guard = self.guard
        if self.governor is not None:
            guard("governor", self.governor.begin_tick, now_ms)
        if self.scaler is not None:
            guard(self.config.provisioning.value, self.scaler.tick, now_ms)
        if self.proactive is not None:
            guard("proactive", self.proactive.tick, now_ms)
        if self.config.provisioning is not Provisioning.STATIC:
            guard("reap", self.reap_idle, now_ms)
        guard("sample", self.sample, now_ms)


def reclaim_idle_capacity(pools: Dict[str, PoolSurface]) -> bool:
    """Free one idle container cluster-wide under placement pressure.

    Models the platform reclaiming the longest-idle warm sandbox when a
    spawn cannot be placed (so one hot stage cannot starve the rest of
    the chain forever).  Prefers the pool holding the most idle
    capacity.
    """
    candidates = sorted(
        pools.values(),
        key=lambda p: sum(1 for c in p.containers if c.is_reapable),
        reverse=True,
    )
    for pool in candidates:
        if pool.reap_exempt:
            continue
        if pool.reclaim_one_idle():
            return True
    return False


def prewarm_opening_capacity(
    pools: Dict[str, PoolSurface], trace, config,
    stage_shares: Dict[str, float],
) -> None:
    """Start from steady state: warm capacity for the trace's opening
    rate already exists (for a static pool, its full size).  A cold
    platform would otherwise hand every policy an identical t=0 spawn
    storm that the paper's long-running testbed never sees."""
    if config.provisioning is Provisioning.STATIC:
        rate = trace.mean_rate_rps
    else:
        opening = trace.rate_series(10_000.0)
        rate = float(opening[:6].mean()) if opening.size else 0.0
    sizes = static_pool_sizes(
        pools, rate, stage_shares,
        utilization_target=config.utilization_target,
    )
    for name, n in sizes.items():
        pools[name].prewarm(n)
