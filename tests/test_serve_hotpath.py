"""The live plane's hot path: what one execution costs the loop.

A stage execution with a work function used to pay for a
``concurrent.futures.Future``, ``ThreadPoolExecutor.submit``, a done
callback, one ``call_soon_threadsafe`` and one timeout timer that was
cancelled microseconds later.  The serving plane now hands work to a
``WorkLane`` whose threads post outcomes to one inbox, and guards each
slot's execution budget with one lazily re-armed watchdog.  Over one
served run with a no-op work function (the ledger's ``live-admit``
shape: rscale, heavy mix, 8 nodes, one lane thread) this file counts,
with no wall-clock bound:

* no ``Future`` is created at all;
* watchdog timers are bounded by slots x run length / the smallest
  execution budget, plus two per slot — not one per execution;
* every loop wake-up from the lane drains the inbox once, and there are
  fewer of them than executions.

Deliberately numpy + pytest only, so the ``perf-smoke`` CI job can run
this file.  It runs on its own real loop, not virtual time: its subject
is real lane threads waking the loop.
"""

import asyncio
import collections
import concurrent.futures
import time
from contextlib import closing

import pytest

from repro.core.policies import make_policy_config
from repro.runtime.system import ClusterSpec
from repro.serve import ServeOptions, ServingRuntime, WorkLane
from repro.serve import pool as serve_pool
from repro.traces import poisson_trace
from repro.workloads import get_mix


class CountingLoop(asyncio.SelectorEventLoop):
    """A selector loop that counts its timers and thread wake-ups by the
    name of the callback (a slot callback by the one it guards)."""

    def __init__(self):
        super().__init__()
        self.timers = collections.Counter()
        self.wakeups = collections.Counter()

    def call_at(self, when, callback, *args, context=None):
        name = callback.__name__
        if name == "_guarded":
            name = args[0].__name__
        self.timers[name] += 1
        return super().call_at(when, callback, *args, context=context)

    def call_soon_threadsafe(self, callback, *args, context=None):
        self.wakeups[callback.__name__] += 1
        return super().call_soon_threadsafe(callback, *args, context=context)


def _on_counting_loop(main):
    """Run coroutine *main* to the end on a fresh :class:`CountingLoop`;
    returns the (closed) loop and *main*'s result."""
    loop = CountingLoop()
    asyncio.set_event_loop(loop)
    try:
        return loop, loop.run_until_complete(main)
    finally:
        asyncio.set_event_loop(None)
        loop.close()


def _noop_work(task, wall_s):
    """The ledger's no-op: the lane hop is paid, the sleep is not."""


@pytest.fixture(scope="module")
def served():
    """One served run under a counting loop; returns its tallies."""
    tally = collections.Counter()
    real_future_init = concurrent.futures.Future.__init__
    real_drain = serve_pool.WorkLane._drain

    def future_init(self, *args, **kwargs):
        tally["futures"] += 1
        real_future_init(self, *args, **kwargs)

    def _drain(self):
        tally["drains"] += 1
        real_drain(self)

    patch = pytest.MonkeyPatch()
    patch.setattr(concurrent.futures.Future, "__init__", future_init)
    patch.setattr(serve_pool.WorkLane, "_drain", _drain)
    runtime = ServingRuntime(
        config=make_policy_config("rscale"), mix=get_mix("heavy"),
        cluster_spec=ClusterSpec(n_nodes=8), seed=5,
        options=ServeOptions(time_scale=0.5, executor_workers=1),
        work=_noop_work)

    async def timed():
        loop = asyncio.get_running_loop()
        start = loop.time()
        result = await runtime.serve(poisson_trace(300.0, 3.0, seed=5))
        return result, loop.time() - start

    try:
        loop, (result, wall_s) = _on_counting_loop(timed())
    finally:
        patch.undo()
    return dict(
        futures=tally["futures"], drains=tally["drains"],
        timers=loop.timers, wakeups=loop.wakeups, wall_s=wall_s,
        result=result,
        executions=sum(p.tasks_completed for p in runtime.pools.values()))


def test_the_run_is_whole(served):
    result = served["result"]
    assert result.n_jobs > 500
    assert result.n_completed == result.n_jobs
    assert served["executions"] > 3 * result.n_jobs


def test_no_future_is_created(served):
    assert served["futures"] == 0


def test_watchdog_arms_are_bounded_by_slots_not_executions(served):
    # Every slot arms its cold-start timer once, prewarmed ones too.
    slots = served["timers"]["_become_ready"]
    arms = served["timers"]["_on_watchdog"]
    bound = slots * (served["wall_s"] / serve_pool.TIMEOUT_FLOOR_WALL_S + 2)
    assert 0 < arms <= bound
    assert bound < served["executions"] / 4


def test_one_wakeup_per_inbox_edge_and_fewer_than_executions(served):
    wakeups = served["wakeups"]
    assert set(wakeups) == {"_drain"}
    assert wakeups["_drain"] == served["drains"]
    assert wakeups["_drain"] < served["executions"]


def test_one_wakeup_drains_a_burst():
    """The loop is held while the lane's one thread finishes eight
    executions: they reach the inbox under a single wake-up."""
    ran = []

    class Slot:
        _ticket = 0

        def _work(self, task, wall_s):
            ran.append(task)

        def _guarded(self, fn, *args):
            fn(*args)

        def _settle(self, task, failure):
            settled.append((task, failure))

    settled = []
    threads = []

    async def scenario():
        loop = asyncio.get_running_loop()
        with closing(WorkLane(1, loop)) as lane:
            slot = Slot()
            for k in range(8):
                lane.submit(slot, k, 0.0)
            deadline = time.monotonic() + 10.0
            while len(lane._inbox) < 8 and time.monotonic() < deadline:
                time.sleep(0.001)   # hold the loop; the thread runs
            assert loop.wakeups["_drain"] == 1
            await asyncio.sleep(0.01)
            assert settled == [(k, None) for k in range(8)]
            threads.extend(lane._threads)

    loop, _ = _on_counting_loop(scenario())
    assert loop.wakeups["_drain"] == 1
    assert ran == list(range(8))
    assert len(threads) == 1 and not threads[0].is_alive()
