"""Table 5 — the heavy / medium / light workload mixes.

Each mix combines two applications; requests are split between them.
The categories follow the *increasing order of total available slack*
(section 5.3): the heavy mix pairs the two chains with the least slack,
the light mix the two with the most.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.workloads.applications import APPLICATIONS, Application


@dataclass(frozen=True)
class WorkloadMix:
    """A named mix of applications with sampling weights.

    Attributes:
        name: mix identifier (``heavy`` / ``medium`` / ``light``).
        applications: participating chains.
        weights: probability of each chain per request (sums to 1).
    """

    name: str
    applications: Tuple[Application, ...]
    weights: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.applications) != len(self.weights):
            raise ValueError("one weight per application required")
        if not self.applications:
            raise ValueError("mix must contain at least one application")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        total = 0.0
        for w in self.weights:  # left to right: sum() compensates on 3.12+
            total += w
        if abs(total - 1.0) > 1e-9:
            object.__setattr__(
                self, "weights", tuple(w / total for w in self.weights)
            )

    @property
    def avg_slack_ms(self) -> float:
        """Average of the member applications' slack (Table 5 ordering)."""
        return float(
            np.average([a.slack_ms for a in self.applications], weights=self.weights)
        )

    @property
    def _weight_cdf(self) -> np.ndarray:
        """Cached cumulative weights for O(log n) sampling."""
        cdf = getattr(self, "_cdf_cache", None)
        if cdf is None:
            cdf = np.cumsum(np.asarray(self.weights, dtype=float))
            cdf /= cdf[-1]
            object.__setattr__(self, "_cdf_cache", cdf)
        return cdf

    def sample_application(self, rng: np.random.Generator) -> Application:
        """Draw one application according to the mix weights.

        Consumes exactly one uniform double — the same stream position
        ``rng.choice(n, p=weights)`` would use, but without rebuilding
        the probability CDF on every arrival (this sits on the per-job
        hot path).
        """
        idx = np.searchsorted(self._weight_cdf, rng.random(), side="right")
        return self.applications[int(idx)]

    def function_names(self) -> Tuple[str, ...]:
        """All distinct microservices used by the mix (pool keys)."""
        seen = []
        for app in self.applications:
            for svc in app.stages:
                if svc.name not in seen:
                    seen.append(svc.name)
        return tuple(seen)


def _mix(name: str, app_names: Tuple[str, str]) -> WorkloadMix:
    apps = tuple(APPLICATIONS[a] for a in app_names)
    return WorkloadMix(name=name, applications=apps, weights=(0.5, 0.5))


#: Table 5 of the paper.
WORKLOAD_MIXES: Dict[str, WorkloadMix] = {
    m.name: m
    for m in [
        _mix("heavy", ("ipa", "detect-fatigue")),
        _mix("medium", ("ipa", "img")),
        _mix("light", ("img", "face-security")),
    ]
}


def get_mix(name: str) -> WorkloadMix:
    """Look up a Table 5 workload mix by name (case-insensitive)."""
    key = name.lower()
    if key not in WORKLOAD_MIXES:
        raise KeyError(f"unknown mix {name!r}; known: {sorted(WORKLOAD_MIXES)}")
    return WORKLOAD_MIXES[key]
