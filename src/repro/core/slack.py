"""Slack estimation, distribution and batch sizing (sections 3 and 4.1).

*Slack* is the difference between the response-latency SLO and the
end-to-end execution time (plus fixed transition overheads).  Fifer
distributes an application's slack to its stages **proportionally to
stage execution time**, which — as the paper observes — yields similar
batch sizes at every stage even when stage runtimes are wildly
asymmetric; the alternative **equal division (ED)** policy is what the
static SBatch baseline uses.

The batch size of a stage's containers is::

    B_size = stage_slack / stage_exec_time        (section 3)

clamped to ``[1, max_batch]`` — the queue wait of a full local queue,
``B_size * exec``, then never exceeds the stage's slack.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.core.sizing import batch_size_for
from repro.workloads.applications import Application

#: Practical cap on a container's local-queue length; relevant only for
#: sub-millisecond stages where slack/exec would explode.
DEFAULT_MAX_BATCH = 64


class SlackDivision(enum.Enum):
    PROPORTIONAL = "proportional"
    EQUAL = "equal"


def distribute_slack(
    app: Application, division: SlackDivision = SlackDivision.PROPORTIONAL
) -> List[float]:
    """Split *app*'s total slack across its stages.

    Proportional allocation weights each stage by its share of the total
    execution time; equal division (ED) gives every stage the same cut.
    """
    total_slack = app.slack_ms
    if division == SlackDivision.EQUAL:
        return [total_slack / app.n_stages] * app.n_stages
    total_exec = app.total_exec_ms
    return [
        total_slack * (svc.mean_exec_ms / total_exec) for svc in app.stages
    ]


@dataclass(frozen=True)
class StagePlan:
    """Per-application offline plan: the values the paper stores in its
    MongoDB before execution (section 5.1).

    Attributes:
        app: the application.
        stage_slack_ms: allocated slack per stage.
        stage_batch: batch size per stage.
        stage_response_ms: per-stage response latency ``S_r`` — "the sum
            of its allocated slack and execution time" (section 4.2).
    """

    app: Application
    stage_slack_ms: Tuple[float, ...]
    stage_batch: Tuple[int, ...]
    stage_response_ms: Tuple[float, ...]

    def stage_index_of(self, function: str) -> int:
        for idx, svc in enumerate(self.app.stages):
            if svc.name == function:
                return idx
        raise KeyError(f"{self.app.name} has no stage {function!r}")


def build_stage_plan(
    app: Application,
    division: SlackDivision = SlackDivision.PROPORTIONAL,
    max_batch: int = DEFAULT_MAX_BATCH,
) -> StagePlan:
    """Compute the offline per-stage plan for *app*.

    ``max_batch=1`` pins every batch size to 1 (the baseline's
    one-request-per-container mapping) while slack accounting stays
    intact for LSF scheduling.
    """
    slacks = distribute_slack(app, division)
    batches = tuple(
        batch_size_for(slack, svc.mean_exec_ms, max_batch)
        for slack, svc in zip(slacks, app.stages)
    )
    responses = tuple(
        slack + svc.mean_exec_ms for slack, svc in zip(slacks, app.stages)
    )
    return StagePlan(
        app=app,
        stage_slack_ms=tuple(slacks),
        stage_batch=batches,
        stage_response_ms=responses,
    )


def function_batch_sizes(plans: Iterable[StagePlan]) -> Dict[str, int]:
    """Batch size per *function* across applications sharing it.

    A shared function's containers use the most conservative (minimum)
    batch size over all chains that include the stage, so no chain's
    slack is overrun by a full local queue.
    """
    sizes: Dict[str, int] = {}
    for plan in plans:
        for svc, batch in zip(plan.app.stages, plan.stage_batch):
            current = sizes.get(svc.name)
            sizes[svc.name] = batch if current is None else min(current, batch)
    return sizes


def function_slack_ms(plans: Iterable[StagePlan]) -> Dict[str, float]:
    """Minimum allocated stage slack per function across applications."""
    slacks: Dict[str, float] = {}
    for plan in plans:
        for svc, slack in zip(plan.app.stages, plan.stage_slack_ms):
            current = slacks.get(svc.name)
            slacks[svc.name] = slack if current is None else min(current, slack)
    return slacks


def function_response_ms(plans: Iterable[StagePlan]) -> Dict[str, float]:
    """Minimum per-stage response latency ``S_r`` per function."""
    responses: Dict[str, float] = {}
    for plan in plans:
        for svc, resp in zip(plan.app.stages, plan.stage_response_ms):
            current = responses.get(svc.name)
            responses[svc.name] = resp if current is None else min(current, resp)
    return responses
