"""Deterministic serving queues without a timer.

The front end's worker answers one request at a time, in admission
order. :func:`plugged` makes a burst queue up before the worker reaches
any of it: it takes the system's state lock, submits a *plug* request
and waits until the worker, having marked the plug's future running,
blocks on that lock inside ``PS3.query``. Requests submitted while the
plug holds queue up behind it; releasing the plug lets the worker answer
the plug and then the queued requests, one per loop iteration.

The plug is answered like any request: a ``COUNT(*)`` at a full budget,
a pick that takes every passing partition at weight 1 and so draws
nothing from the picker's rng (the requests behind it pick as they would
without it). It moves every per-request counter once before the test's
own requests: ``serving.queries`` and ``serving.batches``, one
``serving.answer`` span, one pick (a ``FaultyPicker`` index, so
``fail_at_pick`` / ``crash_at_pick`` indices move by one) and one future
completion (a ``ServingFaults.on_scatter`` call, so ``crash_at_scatter``
indices move by one).

Import it as ``from serving_plug import plugged``: ``tests/`` is on the
path through its root ``conftest.py``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.engine.aggregates import count_star
from repro.engine.query import Query


@contextmanager
def plugged(front):
    """Hold ``front``'s worker on a plug; yields the idempotent release.

    Leaving the block releases the plug if the body did not. Release
    from the thread that entered the block (the state lock is an
    ``RLock``), e.g. inside an ``asyncio.run`` on that thread.
    """
    system = front.system
    lock = system._state_lock
    blocked = threading.Event()

    class _Gate:
        # ``PS3.query``'s ``with self._state_lock`` signals, then blocks.
        def __enter__(self):
            blocked.set()
            return lock.__enter__()

        def __exit__(self, *exc_info):
            return lock.__exit__(*exc_info)

    lock.acquire()
    held = True

    def release() -> None:
        nonlocal held
        if held:
            held = False
            lock.release()

    try:
        system._state_lock = _Gate()
        try:
            plug = front.submit(Query([count_star()]), budget_fraction=1.0)
            assert blocked.wait(timeout=30), "the worker never took the plug"
        finally:
            system._state_lock = lock
        assert plug.running()  # marked before the worker blocked
        yield release
    finally:
        release()
