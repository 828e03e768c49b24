"""Deterministic serving batches without a timer.

The front end's worker batches what is already queued when it dequeues a
request and never waits for more. :func:`plugged` makes a burst land in
one batch: it takes the system's state lock, submits a *plug* request
and waits until the worker blocks on that lock in ``_process`` with the
plug as its whole batch. Requests submitted while the plug holds queue
up behind it; releasing the plug lets the worker finish the plug's
batch and then take the burst as one batch (up to ``max_batch_size``).

The plug is cancelled before it is released, so it picks, sweeps and
scatters nothing: picker-, sweep- and scatter-indexed faults count only
the test's own requests. It does count one batch (``on_batch`` runs, so
``crash_at_batch`` indices move by one), one query and one
``cancelled_skips``.

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
        # The worker's ``with system._state_lock`` signals, then blocks.
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
            plug = front.submit(Query([count_star()]), budget_partitions=1)
            assert blocked.wait(timeout=30), "the worker never took the plug"
        finally:
            system._state_lock = lock
        assert plug.cancel()
        yield release
    finally:
        release()
