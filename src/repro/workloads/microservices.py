"""Table 3 — the Djinn&Tonic microservices (functions) used by Fifer.

Each microservice is the smallest schedulable unit ("function"): one
container pool per microservice, shared across all applications of a
tenant.  Mean execution times are the paper's Table 3 values, profiled
at one reference input size; run-to-run variation is small (Figure 3b:
std-dev within 20 ms over 100 runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np


@dataclass(frozen=True)
class Microservice:
    """One serverless function.

    Attributes:
        name: short identifier (e.g. ``"ASR"``).
        description: human-readable service name from Table 3.
        model: underlying ML model (informational).
        domain: Table 3 domain grouping.
        mean_exec_ms: mean execution time (Table 3).
        exec_std_ms: run-to-run standard deviation (paper: well under
            20 ms; scaled with the service's magnitude here).
        cpu_cores: CPU request per container (paper: 0.5 core).
        memory_mb: memory request per container (paper: within 1 GB).
    """

    name: str
    description: str
    model: str
    domain: str
    mean_exec_ms: float
    exec_std_ms: float = 0.0
    cpu_cores: float = 0.5
    memory_mb: int = 512

    def __post_init__(self) -> None:
        if self.mean_exec_ms <= 0:
            raise ValueError(f"{self.name}: mean_exec_ms must be positive")
        if self.exec_std_ms < 0:
            raise ValueError(f"{self.name}: exec_std_ms must be non-negative")

    def exec_time_ms(self, rng: Optional[np.random.Generator] = None) -> float:
        """Sample one execution time: the mean with a small
        truncated-Gaussian jitter."""
        mean = self.mean_exec_ms
        if rng is None or self.exec_std_ms == 0.0:
            return mean
        sample = rng.normal(mean, self.exec_std_ms)
        # Truncate at 10% of the mean: execution never goes near zero.
        return max(sample, 0.1 * mean)


def _svc(
    name: str,
    description: str,
    model: str,
    domain: str,
    mean_exec_ms: float,
) -> Microservice:
    # Per Figure 3b the std-dev stays under 20 ms even for the slowest
    # service; we use 8% of the mean capped at 15 ms.
    std = min(0.08 * mean_exec_ms, 15.0)
    return Microservice(
        name=name,
        description=description,
        model=model,
        domain=domain,
        mean_exec_ms=mean_exec_ms,
        exec_std_ms=std,
    )


#: Table 3 of the paper, verbatim.
MICROSERVICES: Dict[str, Microservice] = {
    svc.name: svc
    for svc in [
        _svc("IMC", "Image Classification", "Alexnet", "image", 43.5),
        _svc("AP", "Human Activity Pose", "DeepPose", "image", 30.3),
        _svc("HS", "Human Segmentation", "VGG16", "image", 151.2),
        _svc("FACER", "Facial Recognition", "VGGNET", "image", 5.5),
        _svc("FACED", "Face Detection", "Xception", "image", 6.1),
        _svc("ASR", "Auto Speech Recognition", "NNet3", "speech", 46.1),
        _svc("POS", "Parts of Speech Tagging", "SENNA", "nlp", 0.100),
        _svc("NER", "Name Entity Recognition", "SENNA", "nlp", 0.09),
        _svc("QA", "Question Answering", "seq2seq", "nlp", 56.1),
    ]
}

#: The paper's chains use a combined "NLP" stage (POS + NER via SENNA).
MICROSERVICES["NLP"] = Microservice(
    name="NLP",
    description="Natural Language Processing (POS + NER)",
    model="SENNA",
    domain="nlp",
    mean_exec_ms=MICROSERVICES["POS"].mean_exec_ms + MICROSERVICES["NER"].mean_exec_ms,
    exec_std_ms=0.05,
)


def get_microservice(name: str) -> Microservice:
    """Look up a Table 3 microservice by name (case-insensitive)."""
    key = name.upper()
    if key not in MICROSERVICES:
        raise KeyError(
            f"unknown microservice {name!r}; known: {sorted(MICROSERVICES)}"
        )
    return MICROSERVICES[key]
