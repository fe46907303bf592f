"""repro — reproduction of *Fifer: Tackling Resource Underutilization in
the Serverless Era* (Gunasekaran et al., Middleware 2020).

Quickstart::

    from repro import Scenario, run_policy, get_mix, poisson_trace

    result = run_policy("rscale", get_mix("heavy"), poisson_trace(50, 120))
    print(result.summary())

    # As a value (what every entry point builds):
    print(Scenario("fifer", duration_s=120.0).run().summary())

Public surface:

* workloads  — Tables 3/4/5: microservices, chains, mixes.
* traces     — Poisson / Wiki-like / WITS-like arrival generators.
* prediction — the eight Figure 6 forecasters (numpy, from scratch).
* core       — slack distribution, batching, scheduling, the five RMs.
* runtime    — :func:`run_policy` / :class:`ServerlessSystem`.
* scenario   — :class:`Scenario`, the one description of a run.
"""

from repro.core.policies import POLICY_NAMES, RMConfig, make_policy_config
from repro.core.slack import SlackDivision, batch_size_for, build_stage_plan
from repro.metrics.collector import RunResult
from repro.runtime.system import ClusterSpec, ServerlessSystem, run_policy
from repro.scenario import Scenario
from repro.traces import poisson_trace, wiki_trace, wits_trace
from repro.workloads import (
    APPLICATIONS,
    MICROSERVICES,
    WORKLOAD_MIXES,
    get_application,
    get_microservice,
    get_mix,
)

__version__ = "1.0.0"

__all__ = [
    "POLICY_NAMES",
    "RMConfig",
    "make_policy_config",
    "SlackDivision",
    "batch_size_for",
    "build_stage_plan",
    "RunResult",
    "ClusterSpec",
    "ServerlessSystem",
    "run_policy",
    "Scenario",
    "poisson_trace",
    "wiki_trace",
    "wits_trace",
    "APPLICATIONS",
    "MICROSERVICES",
    "WORKLOAD_MIXES",
    "get_application",
    "get_microservice",
    "get_mix",
    "__version__",
]
