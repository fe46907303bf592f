"""Virtual time for ``repro.serve`` tests.

:class:`VirtualTimeLoop` is an ``asyncio.SelectorEventLoop`` whose
``time()`` only moves when the loop would wait: its selector polls real
I/O with a zero timeout and, when nothing is ready, advances ``time()``
by the timeout it was given — the delay to the next timer.  With no
timer pending (a ``None`` timeout) it blocks on the real selector, so a
thread's ``call_soon_threadsafe`` still wakes it.  ``ScaledClock`` reads
the loop's ``time()``, so a live run takes almost no wall time and is a
pure function of its inputs.  ``conftest.py`` installs
:class:`VirtualTimePolicy` for the whole session.
"""

import asyncio
import functools
import selectors

from repro.serve.pool import WorkLane


class _VirtualSelector(selectors.DefaultSelector):
    def __init__(self, loop):
        super().__init__()
        self._loop = loop

    def select(self, timeout=None):
        ready = super().select(0)
        if ready or timeout == 0:
            return ready
        if timeout is None:
            return super().select(None)
        self._loop.now += timeout
        return []


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    def __init__(self):
        self.now = 0.0
        super().__init__(_VirtualSelector(self))

    def time(self):
        return self.now


class VirtualTimePolicy(asyncio.DefaultEventLoopPolicy):
    def new_event_loop(self):
        return VirtualTimeLoop()


class InlineLane(WorkLane):
    """A lane whose one "thread" is the event loop: a submission runs
    the lane's own thread body (ticket check, work, inbox, wake-up) as
    the loop's next callback, over the submission and a stop sentinel.
    The work takes no loop time unless the work function advances it."""

    def submit(self, slot, task, wall_s):
        self._queue.put((slot._ticket, slot, task, wall_s))
        self._queue.put(None)
        self._loop.call_later(0.0, self._run)


def loop_test(test):
    """Run an ``async def`` test with ``asyncio.run``: on virtual time,
    unless the test asks for the ``real_loop`` fixture."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        return asyncio.run(test(*args, **kwargs))

    return run
