"""Cluster energy model (Figure 15).

The paper samples per-socket energy with Intel Power Gadget every 10 s
and attributes Fifer's ~31% cluster-wide savings to consolidation:
"the unused cores will only be consuming idle power, and also the
servers with all cores being idle can be turned off after some duration
of inactivity" (section 4.4.2).

We model node power as the standard linear-utilisation form::

    P(node) = P_idle + (P_peak - P_idle) * cpu_utilisation      (node on)
    P(node) = 0                                                 (gated off)

A node is gated off once it has held zero containers for
``gate_after_ms``.  The meter integrates power over fixed sampling
intervals, exactly like the paper's 10 s measurement loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

#: Representative dual-socket Xeon figures (watts).
DEFAULT_IDLE_W = 100.0
DEFAULT_PEAK_W = 320.0
#: The paper's savings come from "non-active nodes only consuming idle
#: power" — nodes are NOT powered off during the measured runs (turning
#: empty servers off is mentioned as an additional opportunity).  Power
#: gating is therefore disabled by default and available as an ablation.
DEFAULT_GATE_AFTER_MS = float("inf")


@dataclass(frozen=True)
class NodePowerModel:
    """Linear power model with idle power gating."""

    idle_w: float = DEFAULT_IDLE_W
    peak_w: float = DEFAULT_PEAK_W
    gate_after_ms: float = DEFAULT_GATE_AFTER_MS

    def __post_init__(self) -> None:
        if self.idle_w < 0 or self.peak_w < self.idle_w:
            raise ValueError("need 0 <= idle_w <= peak_w")
        if self.gate_after_ms < 0:
            raise ValueError("gate_after_ms must be non-negative")

    def node_power_w(self, node: "Node", now_ms: float) -> float:
        """Instantaneous power draw of *node* at *now_ms*."""
        if node.empty and (now_ms - node.idle_since_ms) >= self.gate_after_ms:
            return 0.0
        return self.idle_w + (self.peak_w - self.idle_w) * node.cpu_utilization


@dataclass
class EnergyMeter:
    """Integrates cluster power over sampling intervals.

    Call :meth:`sample` every ``interval_ms`` (the system wires it to a
    periodic process); energy is accumulated as power x interval.
    """

    model: NodePowerModel = field(default_factory=NodePowerModel)
    interval_ms: float = 10_000.0
    total_joules: float = 0.0
    samples_w: List[float] = field(default_factory=list)
    active_node_samples: List[int] = field(default_factory=list)

    def sample(self, nodes: List["Node"], now_ms: float) -> float:
        """Record one sampling point; returns cluster power in watts."""
        # Added left to right: builtin sum() over floats is compensated
        # since Python 3.12, and the energy totals are exported state.
        power = 0.0
        active = 0
        for node in nodes:
            watts = self.model.node_power_w(node, now_ms)
            power += watts
            if watts > 0:
                active += 1
        self.samples_w.append(power)
        self.active_node_samples.append(active)
        self.total_joules += power * (self.interval_ms / 1000.0)
        return power

    @property
    def mean_power_w(self) -> float:
        if not self.samples_w:
            return 0.0
        total = 0.0
        for watts in self.samples_w:
            total += watts
        return total / len(self.samples_w)

    @property
    def total_kwh(self) -> float:
        return self.total_joules / 3.6e6

    @property
    def mean_active_nodes(self) -> float:
        if not self.active_node_samples:
            return 0.0
        # Integers: exact however they are added, so sum() is safe here.
        return sum(self.active_node_samples) / len(self.active_node_samples)
