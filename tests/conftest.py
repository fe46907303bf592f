"""Shared pytest plumbing: the golden-snapshot update flag and virtual
time for every ``asyncio`` loop.

``pytest --update-golden`` rewrites the snapshots under ``tests/golden/``
from the current run instead of diffing against them.  Tests consume the
decision through the ``update_golden`` fixture.

Every ``asyncio.run`` — the one inside ``ServingRuntime.run`` included —
gets a :class:`~tests.virtual_time.VirtualTimeLoop`: the policy is set
by a session fixture, before any module fixture runs.
"""

import asyncio

import pytest

import repro.serve.runtime
from tests.virtual_time import InlineLane, VirtualTimePolicy


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite golden snapshots from the current run",
    )


@pytest.fixture
def update_golden(request):
    return request.config.getoption("--update-golden")


@pytest.fixture(scope="session", autouse=True)
def virtual_time():
    previous = asyncio.get_event_loop_policy()
    asyncio.set_event_loop_policy(VirtualTimePolicy())
    yield
    asyncio.set_event_loop_policy(previous)


@pytest.fixture
def real_loop():
    """For a test whose subject is real threads racing the loop."""
    policy = asyncio.get_event_loop_policy()
    asyncio.set_event_loop_policy(asyncio.DefaultEventLoopPolicy())
    yield
    asyncio.set_event_loop_policy(policy)


@pytest.fixture
def inline_lane(monkeypatch):
    """A served run's work functions run on the loop, not on threads."""
    monkeypatch.setattr(repro.serve.runtime, "WorkLane", InlineLane)
