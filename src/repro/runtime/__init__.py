"""Runtime: the serverless platform simulation assembled end to end."""

from repro.runtime.system import ClusterSpec, ServerlessSystem, run_policy

__all__ = [
    "ClusterSpec",
    "ServerlessSystem",
    "run_policy",
]
