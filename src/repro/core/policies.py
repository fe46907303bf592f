"""The five resource-management policies evaluated in the paper.

Each policy is a composition of orthogonal mechanisms (section 5.3):

===========  =========  ==============  =========  ==============  ==========  =========
Policy       max_batch  Slack division  Scheduler  Provisioning    Proactive   Placement
===========  =========  ==============  =========  ==============  ==========  =========
``bline``    1          --              FIFO       ``on-demand``   --          spread
``sbatch``   64         equal (ED)      FIFO       ``static``      --          pack
``rscale``   64         proportional    LSF        ``rscale``      --          pack
``bpred``    1          --              LSF        ``on-demand``   EWMA        spread
``fifer``    64         proportional    LSF        ``rscale``      LSTM        pack
``hpa``      (4)        --              FIFO       ``hpa``         --          spread
``brigade``  1          --              FIFO       ``single-use``  --          spread
===========  =========  ==============  =========  ==============  ==========  =========

* ``bline`` is the AWS-style scheduler: one request per container,
  spawn whenever no warm container is free.
* ``sbatch`` fixes the container count from the trace's average arrival
  rate and never scales (the Azure-style static queueing strawman).
* ``rscale`` is Fifer with only the dynamic reactive policy — "akin to
  the dynamic batching policy employed in GrandSLAm".
* ``bpred`` is "a faithful implementation of scheduling and prediction
  policy as used in Archipelago" — LSF + EWMA prediction, no batching.
* ``fifer`` combines batching, reactive scaling and LSTM-driven
  proactive provisioning.

``B_size = stage_slack / stage_exec`` is clamped to ``[1, max_batch]``,
so ``max_batch=1`` is "no batching"; ``hpa`` batches at its autoscaler's
concurrency target instead, capped by ``max_batch``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.cluster.cluster import NodePlacementPolicy
from repro.core.scheduling import SchedulingPolicy
from repro.core.slack import DEFAULT_MAX_BATCH, SlackDivision

#: The paper's five evaluated resource managers.
POLICY_NAMES: Tuple[str, ...] = ("bline", "sbatch", "rscale", "bpred", "fifer")
#: Extensions implemented beyond the paper's comparison (section 2.2.1
#: mentions the Knative/Fission horizontal pod autoscaler as the
#: execution-time-agnostic approach Fifer improves upon).
EXTENDED_POLICY_NAMES: Tuple[str, ...] = POLICY_NAMES + ("hpa", "brigade")


class Provisioning(enum.Enum):
    """How a policy provisions containers: one choice, not a set of flags."""

    #: A container spawned whenever backlog exceeds free capacity at
    #: enqueue time (AWS-style).
    ON_DEMAND = "on-demand"
    #: On demand, and each container serves one task, then terminates
    #: (Brigade's default: no warm reuse, the Figure 4 baseline).
    SINGLE_USE = "single-use"
    #: A fixed pool from the average arrival rate at t=0, never scaled
    #: or reaped (SBatch).
    STATIC = "static"
    #: The per-stage queuing-delay scaler (Algorithm 1a).
    RSCALE = "rscale"
    #: The Knative-style horizontal-pod-autoscaler loop.
    HPA = "hpa"


@dataclass(frozen=True)
class RMConfig:
    """Configuration of one resource manager.

    Attributes:
        name: policy identifier.
        slack_division: how application slack is split across stages.
        scheduling: global-queue service order.
        provisioning: how containers are provisioned (the module table).
        proactive_predictor: name of the forecaster driving proactive
            provisioning (``"ewma"``, ``"lstm"``, or any model name the
            experiment runner knows), or None.
        placement: node-selection policy.
        utilization_target: Little's-law headroom for static/proactive
            sizing.
        idle_timeout_ms: idle-container reaping threshold (paper: 10
            minutes).
        max_batch: clamp on per-container queue length (1: no batching).
        monitor_interval_ms: load monitor / scaler period (paper: 10 s).
    """

    name: str
    slack_division: SlackDivision
    scheduling: SchedulingPolicy
    provisioning: Provisioning
    proactive_predictor: Optional[str]
    placement: NodePlacementPolicy
    utilization_target: float = 0.8
    idle_timeout_ms: float = 600_000.0
    max_batch: int = DEFAULT_MAX_BATCH
    monitor_interval_ms: float = 10_000.0
    #: Guardrails (all off by default — defaults must be behaviourally
    #: identical to the pre-guardrail control plane).
    #: Per-tick ceiling on containers spawned by the monitored scalers;
    #: 0 disables the clamp.
    max_surge: int = 0
    #: Minimum quiet period after any scale-up before idle containers
    #: may be reaped; 0 disables the cooldown.
    scale_down_cooldown_ms: float = 0.0
    #: Retries for spawn decisions that could not be fully actuated
    #: (no node capacity); 0 drops the shortfall immediately (counted).
    spawn_retry_attempts: int = 0
    #: Forecast-health guard: window-MAPE threshold past which the
    #: proactive scaler degrades to reactive-only.  None disables the
    #: guard entirely (the predictor is used unwrapped).
    mape_threshold: Optional[float] = None
    #: Consecutive unhealthy (healthy) evaluations required to trip
    #: (re-arm) the fallback.
    fallback_hysteresis: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.utilization_target <= 1.0:
            raise ValueError("utilization_target must be in (0, 1]")
        if self.idle_timeout_ms <= 0 or self.monitor_interval_ms <= 0:
            raise ValueError("timeouts and intervals must be positive")
        if self.max_surge < 0:
            raise ValueError("max_surge must be >= 0 (0 disables)")
        if self.scale_down_cooldown_ms < 0:
            raise ValueError("scale_down_cooldown_ms must be >= 0")
        if self.spawn_retry_attempts < 0:
            raise ValueError("spawn_retry_attempts must be >= 0")
        if self.mape_threshold is not None and self.mape_threshold <= 0:
            raise ValueError("mape_threshold must be positive (or None)")
        if self.fallback_hysteresis < 1:
            raise ValueError("fallback_hysteresis must be >= 1")


_BASES = {
    "bline": RMConfig(
        name="bline",
        slack_division=SlackDivision.PROPORTIONAL,
        scheduling=SchedulingPolicy.FIFO,
        provisioning=Provisioning.ON_DEMAND,
        proactive_predictor=None,
        placement=NodePlacementPolicy.SPREAD,
        max_batch=1,
    ),
    "sbatch": RMConfig(
        name="sbatch",
        slack_division=SlackDivision.EQUAL,
        scheduling=SchedulingPolicy.FIFO,
        provisioning=Provisioning.STATIC,
        proactive_predictor=None,
        placement=NodePlacementPolicy.PACK,
        utilization_target=0.8,
    ),
    "rscale": RMConfig(
        name="rscale",
        slack_division=SlackDivision.PROPORTIONAL,
        scheduling=SchedulingPolicy.LSF,
        provisioning=Provisioning.RSCALE,
        proactive_predictor=None,
        placement=NodePlacementPolicy.PACK,
    ),
    "bpred": RMConfig(
        name="bpred",
        slack_division=SlackDivision.PROPORTIONAL,
        scheduling=SchedulingPolicy.LSF,
        provisioning=Provisioning.ON_DEMAND,
        proactive_predictor="ewma",
        placement=NodePlacementPolicy.SPREAD,
        utilization_target=0.6,
        max_batch=1,
    ),
    "brigade": RMConfig(
        name="brigade",
        slack_division=SlackDivision.PROPORTIONAL,
        scheduling=SchedulingPolicy.FIFO,
        provisioning=Provisioning.SINGLE_USE,
        proactive_predictor=None,
        placement=NodePlacementPolicy.SPREAD,
        max_batch=1,
    ),
    "hpa": RMConfig(
        name="hpa",
        slack_division=SlackDivision.PROPORTIONAL,
        scheduling=SchedulingPolicy.FIFO,
        provisioning=Provisioning.HPA,
        proactive_predictor=None,
        placement=NodePlacementPolicy.SPREAD,
    ),
    "fifer": RMConfig(
        name="fifer",
        slack_division=SlackDivision.PROPORTIONAL,
        scheduling=SchedulingPolicy.LSF,
        provisioning=Provisioning.RSCALE,
        proactive_predictor="lstm",
        placement=NodePlacementPolicy.PACK,
        utilization_target=0.7,
    ),
}


def make_policy_config(name: str, **overrides) -> RMConfig:
    """Build a named policy config, optionally overriding fields.

    Overrides enable the paper's ablations — e.g. Fifer with equal
    slack division, or RScale with a FIFO queue.
    """
    key = name.lower()
    if key not in _BASES:
        raise KeyError(f"unknown policy {name!r}; known: {POLICY_NAMES}")
    base = _BASES[key]
    return replace(base, **overrides) if overrides else base
