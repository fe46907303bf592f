"""Table 6: feature comparison against related frameworks.

A static matrix, reproduced so the bench suite covers every table, and
— for our own implementation — *checked against the code*: each of
Fifer's claimed features maps to a concrete mechanism that must be
enabled in the policy configuration.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cluster.cluster import NodePlacementPolicy
from repro.core.policies import Provisioning, make_policy_config
from repro.core.scheduling import SchedulingPolicy

FEATURES = (
    "Server consolidation",
    "SLO Guarantees",
    "Function Chains",
    "Slack based scheduling",
    "Slack aware batching",
    "Energy Efficient",
    "Autoscaling Containers",
    "Request Arrival prediction",
)

#: Table 6 verbatim (True = check mark).
TABLE6_FEATURES: Dict[str, Dict[str, bool]] = {
    "GrandSLAm": {
        "Server consolidation": True, "SLO Guarantees": True,
        "Function Chains": True, "Slack based scheduling": True,
        "Slack aware batching": True, "Energy Efficient": False,
        "Autoscaling Containers": False, "Request Arrival prediction": False,
    },
    "PowerChief": {
        "Server consolidation": True, "SLO Guarantees": False,
        "Function Chains": True, "Slack based scheduling": True,
        "Slack aware batching": False, "Energy Efficient": True,
        "Autoscaling Containers": True, "Request Arrival prediction": False,
    },
    "TimeTrader": {
        "Server consolidation": True, "SLO Guarantees": True,
        "Function Chains": False, "Slack based scheduling": True,
        "Slack aware batching": False, "Energy Efficient": True,
        "Autoscaling Containers": False, "Request Arrival prediction": False,
    },
    "Parties": {
        "Server consolidation": False, "SLO Guarantees": True,
        "Function Chains": False, "Slack based scheduling": True,
        "Slack aware batching": False, "Energy Efficient": False,
        "Autoscaling Containers": False, "Request Arrival prediction": False,
    },
    "MArk": {
        "Server consolidation": True, "SLO Guarantees": True,
        "Function Chains": False, "Slack based scheduling": False,
        "Slack aware batching": False, "Energy Efficient": False,
        "Autoscaling Containers": True, "Request Arrival prediction": True,
    },
    "Archipelago": {
        "Server consolidation": False, "SLO Guarantees": True,
        "Function Chains": True, "Slack based scheduling": True,
        "Slack aware batching": False, "Energy Efficient": False,
        "Autoscaling Containers": True, "Request Arrival prediction": True,
    },
    "Swayam": {
        "Server consolidation": True, "SLO Guarantees": True,
        "Function Chains": False, "Slack based scheduling": False,
        "Slack aware batching": False, "Energy Efficient": True,
        "Autoscaling Containers": True, "Request Arrival prediction": True,
    },
    "Fifer": {feature: True for feature in FEATURES},
}


def fifer_features_from_code() -> Dict[str, bool]:
    """Derive Fifer's feature row from the actual policy configuration."""
    config = make_policy_config("fifer")
    return {
        "Server consolidation": config.placement == NodePlacementPolicy.PACK,
        "SLO Guarantees": True,  # slack accounting against the 1000 ms SLO
        "Function Chains": True,  # jobs are multi-stage chains
        "Slack based scheduling": config.scheduling == SchedulingPolicy.LSF,
        "Slack aware batching": config.max_batch > 1,
        "Energy Efficient": config.placement == NodePlacementPolicy.PACK,
        "Autoscaling Containers": config.provisioning is not Provisioning.STATIC,
        "Request Arrival prediction": config.proactive_predictor is not None,
    }


def table6_rows() -> List[Tuple]:
    """Rows ``(framework, *checkmarks)`` in the paper's column order."""
    rows = []
    for framework, feats in TABLE6_FEATURES.items():
        rows.append(
            (framework, *("yes" if feats[f] else "no" for f in FEATURES))
        )
    return rows
