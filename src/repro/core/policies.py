"""The five resource-management policies evaluated in the paper.

Each policy is a composition of orthogonal mechanisms (section 5.3):

==========  ========  ==============  =========  ========  ==========  =========
Policy      Batching  Slack division  Scheduler  Reactive  Proactive   Placement
==========  ========  ==============  =========  ========  ==========  =========
``bline``   no        --              FIFO       on-demand --          spread
``sbatch``  yes       equal (ED)      FIFO       static    --          pack
``rscale``  yes       proportional    LSF        RScale    --          pack
``bpred``   no        --              LSF        on-demand EWMA        spread
``fifer``   yes       proportional    LSF        RScale    LSTM        pack
==========  ========  ==============  =========  ========  ==========  =========

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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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


@dataclass(frozen=True)
class RMConfig:
    """Configuration of one resource manager.

    Attributes:
        name: policy identifier.
        batching: slack-derived batch sizes vs. one request/container.
        slack_division: how application slack is split across stages.
        scheduling: global-queue service order.
        spawn_on_demand: spawn a container whenever backlog exceeds free
            capacity at enqueue time (AWS-style reactive provisioning).
        reactive: run the per-stage queuing-delay scaler (Algorithm 1a).
        proactive_predictor: name of the forecaster driving proactive
            provisioning (``"ewma"``, ``"lstm"``, or any model name the
            experiment runner knows), or None.
        static_pool: provision a fixed pool from the average arrival
            rate at t=0 and never scale (SBatch).
        placement: node-selection policy.
        utilization_target: Little's-law headroom for static/proactive
            sizing.
        idle_timeout_ms: idle-container reaping threshold (paper: 10
            minutes).
        max_batch: clamp on per-container queue length.
        monitor_interval_ms: load monitor / scaler period (paper: 10 s).
    """

    name: str
    batching: bool
    slack_division: SlackDivision
    scheduling: SchedulingPolicy
    spawn_on_demand: bool
    reactive: bool
    proactive_predictor: Optional[str]
    static_pool: bool
    placement: NodePlacementPolicy
    utilization_target: float = 0.8
    idle_timeout_ms: float = 600_000.0
    max_batch: int = DEFAULT_MAX_BATCH
    monitor_interval_ms: float = 10_000.0
    #: When set, every pool uses this app-agnostic batch size instead of
    #: slack-derived sizing (the HPA baseline's fixed containerConcurrency).
    fixed_batch_size: Optional[int] = None
    #: Run the Knative-style horizontal-pod-autoscaler loop.
    hpa: bool = False
    #: Brigade's default mode: one container per task, destroyed after
    #: completion (the literal Figure 4 baseline, no warm reuse).
    single_use: bool = False
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
        if self.static_pool and (self.reactive or self.spawn_on_demand):
            raise ValueError("a static pool cannot also scale")
        if self.fixed_batch_size is not None and self.fixed_batch_size < 1:
            raise ValueError("fixed_batch_size must be >= 1")
        if self.hpa and (self.reactive or self.spawn_on_demand or self.static_pool):
            raise ValueError("the HPA loop replaces the other scalers")
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
        batching=False,
        slack_division=SlackDivision.PROPORTIONAL,
        scheduling=SchedulingPolicy.FIFO,
        spawn_on_demand=True,
        reactive=False,
        proactive_predictor=None,
        static_pool=False,
        placement=NodePlacementPolicy.SPREAD,
    ),
    "sbatch": RMConfig(
        name="sbatch",
        batching=True,
        slack_division=SlackDivision.EQUAL,
        scheduling=SchedulingPolicy.FIFO,
        spawn_on_demand=False,
        reactive=False,
        proactive_predictor=None,
        static_pool=True,
        placement=NodePlacementPolicy.PACK,
        utilization_target=0.8,
    ),
    "rscale": RMConfig(
        name="rscale",
        batching=True,
        slack_division=SlackDivision.PROPORTIONAL,
        scheduling=SchedulingPolicy.LSF,
        spawn_on_demand=False,
        reactive=True,
        proactive_predictor=None,
        static_pool=False,
        placement=NodePlacementPolicy.PACK,
    ),
    "bpred": RMConfig(
        name="bpred",
        batching=False,
        slack_division=SlackDivision.PROPORTIONAL,
        scheduling=SchedulingPolicy.LSF,
        spawn_on_demand=True,
        reactive=False,
        proactive_predictor="ewma",
        static_pool=False,
        placement=NodePlacementPolicy.SPREAD,
        utilization_target=0.6,
    ),
    "brigade": RMConfig(
        name="brigade",
        batching=False,
        slack_division=SlackDivision.PROPORTIONAL,
        scheduling=SchedulingPolicy.FIFO,
        spawn_on_demand=True,
        reactive=False,
        proactive_predictor=None,
        static_pool=False,
        placement=NodePlacementPolicy.SPREAD,
        single_use=True,
    ),
    "hpa": RMConfig(
        name="hpa",
        batching=True,
        slack_division=SlackDivision.PROPORTIONAL,
        scheduling=SchedulingPolicy.FIFO,
        spawn_on_demand=False,
        reactive=False,
        proactive_predictor=None,
        static_pool=False,
        placement=NodePlacementPolicy.SPREAD,
        fixed_batch_size=4,
        hpa=True,
    ),
    "fifer": RMConfig(
        name="fifer",
        batching=True,
        slack_division=SlackDivision.PROPORTIONAL,
        scheduling=SchedulingPolicy.LSF,
        spawn_on_demand=False,
        reactive=True,
        proactive_predictor="lstm",
        static_pool=False,
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
