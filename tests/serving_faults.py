"""Deterministic fault injection for the serving plane.

The storage plane proves its crash-safety claims by enumeration
(:mod:`repro.storage.faults`: kill every filesystem op once, check the
recovered state). This module is the same discipline applied to the
*query path*: every serving-side failure mode — a poisoned pick, a
worker crash at a pick or at a future completion, a wedged worker — is
injectable at a deterministic point, so tests can enumerate fault points
and assert the front end's isolation invariants (a poisoned request
fails only its own future; a crash never strands a queued request;
recovery restores bit-identical answers) instead of sampling them.

Two injection vehicles:

* :class:`FaultyPicker` wraps any picker object and faults the *pick*
  step: raise at the Nth ``select`` call (``fail_at_pick``, an ordinary
  per-request failure), crash the worker at the Nth pick
  (``crash_at_pick``), or slow every pick (``slow_pick_seconds``, for
  deadline and overload tests: a slow pick wedges the worker, and the
  requests queued behind it expire or pile up). Attribute access passes
  through, so it drops in for ``PS3Picker`` anywhere.
* :class:`ServingFaults` is handed to
  :class:`~repro.engine.serving.ServingFrontEnd` and hooks the worker's
  future completion (its duck-typed ``on_scatter`` call): crash before
  the Nth completion (``crash_at_scatter`` — the worker dies holding an
  answered request, which must fail, while the requests queued behind
  it are answered by the restarted worker).

:class:`SimulatedWorkerCrash` derives from ``BaseException`` exactly
like :class:`repro.storage.faults.SimulatedCrash`: no per-request
``except Exception`` guard may swallow it — it must escape to the
worker's supervisor, as a real crash would.

:func:`poisoned_picker` installs a :class:`FaultyPicker` on a fitted
system for the length of a ``with`` block.

Import it as ``from serving_faults import ServingFaults``: ``tests/`` is
on the path through its root ``conftest.py``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.errors import ExecutionError


class SimulatedWorkerCrash(BaseException):
    """The injected serving-worker death.

    Derives from ``BaseException`` so the per-request pick and
    execution ``except Exception`` guards cannot swallow it: it
    propagates out of the worker loop into the supervisor, which must
    fail the in-flight futures and restart the worker.
    """


class FaultyPicker:
    """Wraps a picker; deterministic pick-path faults.

    ``fail_at_pick=k`` raises an ordinary :class:`ExecutionError` (or
    the supplied ``error``) at the k-th ``select`` call (0-indexed,
    counted across the picker's lifetime) — the "poisoned request"
    case, which must fail only that request's future.
    ``crash_at_pick=k`` raises :class:`SimulatedWorkerCrash` instead —
    worker death while holding the system state lock.
    ``slow_pick_seconds`` sleeps before every pick.
    """

    def __init__(
        self,
        inner,
        *,
        fail_at_pick: int | None = None,
        error: Exception | None = None,
        crash_at_pick: int | None = None,
        slow_pick_seconds: float = 0.0,
    ) -> None:
        self.inner = inner
        self.fail_at_pick = fail_at_pick
        self.error = error
        self.crash_at_pick = crash_at_pick
        self.slow_pick_seconds = slow_pick_seconds
        self.picks = 0

    def select(self, query, budget):
        pick = self.picks
        self.picks += 1
        if self.slow_pick_seconds:
            time.sleep(self.slow_pick_seconds)
        if self.crash_at_pick is not None and pick == self.crash_at_pick:
            raise SimulatedWorkerCrash(f"injected crash at pick {pick}")
        if self.fail_at_pick is not None and pick == self.fail_at_pick:
            raise self.error or ExecutionError(
                f"injected pick failure at pick {pick}"
            )
        return self.inner.select(query, budget)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@contextmanager
def poisoned_picker(system, **faults):
    """Wrap ``system``'s fitted picker in a :class:`FaultyPicker` for the
    block; yields the wrapper."""
    original = system._picker
    system._picker = FaultyPicker(original, **faults)
    try:
        yield system._picker
    finally:
        system._picker = original


class ServingFaults:
    """Deterministic fault hook for the serving worker's completions.

    ``scatters`` records how many times the hook fired, so a test can
    learn the op count of a clean run and then sweep the crash index
    over the whole range — the same run-once-then-enumerate pattern as
    :func:`repro.storage.faults.sweep_kill_points`.
    """

    def __init__(self, *, crash_at_scatter: int | None = None) -> None:
        self.crash_at_scatter = crash_at_scatter
        self.scatters = 0

    def on_scatter(self) -> None:
        """Before each future completion (called by the serving worker)."""
        scatter = self.scatters
        self.scatters += 1
        if (
            self.crash_at_scatter is not None
            and scatter == self.crash_at_scatter
        ):
            raise SimulatedWorkerCrash(f"injected crash at scatter {scatter}")
