"""Workload substrate: the paper's applications and their latency models.

* :mod:`repro.workloads.microservices` — Table 3: the nine Djinn&Tonic
  ML microservices with their mean execution times.
* :mod:`repro.workloads.applications` — Table 4: the four microservice
  chains (Face Security, IMG, IPA, Detect-Fatigue) with calibrated
  per-stage transition overheads so average slack matches the paper.
* :mod:`repro.workloads.mixes` — Table 5: the heavy / medium / light
  workload mixes.
* :mod:`repro.workloads.lambda_model` — the AWS Lambda cold/warm start
  characterisation behind Figure 2.
"""

from repro.workloads.microservices import (
    MICROSERVICES,
    Microservice,
    get_microservice,
)
from repro.workloads.applications import (
    APPLICATIONS,
    Application,
    DEFAULT_SLO_MS,
    get_application,
)
from repro.workloads.mixes import WORKLOAD_MIXES, WorkloadMix, get_mix
from repro.workloads.lambda_model import (
    LAMBDA_MODELS,
    LambdaModelProfile,
    measure_cold_start,
    measure_warm_start,
)

__all__ = [
    "MICROSERVICES",
    "Microservice",
    "get_microservice",
    "APPLICATIONS",
    "Application",
    "DEFAULT_SLO_MS",
    "get_application",
    "WORKLOAD_MIXES",
    "WorkloadMix",
    "get_mix",
    "LAMBDA_MODELS",
    "LambdaModelProfile",
    "measure_cold_start",
    "measure_warm_start",
]
