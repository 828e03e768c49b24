"""Serving front end: bounded admission and a one-thread executor over ``PS3.query``.

:func:`answer_selections` is the one online way to turn ``(query,
weighted selection)`` pairs into answers — ``PS3.query``,
``PS3.query_many``, ``answer_with_selection`` and the CLI all reach it,
so their answers are bit-identical by construction.

The front end hands each admitted request to the standard library's
one-thread :class:`~concurrent.futures.ThreadPoolExecutor`, which
answers them one at a time in admission order, as the paper picks and
combines partitions for each query on its own (section 2.4):

1. **admission** — ``submit`` checks the budget's shape in the caller's
   thread and submits the request to the executor; admission is
   *bounded* (``max_queue_depth`` requests admitted and not yet taken)
   — at capacity new requests are shed with
   :class:`ServingOverloadError` instead of growing an unbounded backlog;
2. **answer** — the executor's thread marks the request's future running
   (a future the client cancelled is skipped) and calls
   ``system.query(query, budget_partitions, budget_fraction)``: the pick
   runs under the system's state lock, execution on the table
   generation that pick saw;
3. **complete** — the answer, or whatever the answer raised, goes to the
   request's own future.

A served answer therefore *is* the ``PS3.query`` answer for the same
request, picked in admission order. There is no micro-batch: under the
repo benchmark's open-loop traffic, batches held 1.2 requests on average
and serving one request at a time answered at the same rate (measured in
CHANGES.md).

**Overload resilience.** Admission sheds what it cannot hold with
:class:`ServingOverloadError`; every admitted request runs at its own
resolved budget. A request may carry a **deadline**
(``deadline_seconds``); one already expired when the worker takes it
fails fast with :class:`ServingTimeoutError` instead of being answered.
Anything an answer raises — an unknown column, a division by zero, a
``BaseException`` such as the test tree's injected worker crash — fails
that request's future as raised, and the worker takes the next request.
:meth:`ServingFrontEnd.health` snapshots liveness and queue depth. The
worker calls a duck-typed ``faults.on_scatter`` hook before each future
completion when given a fault set, so the test tree can inject a crash
at any completion.

The executor's thread is not a daemon: a front end that is never
stopped keeps the interpreter alive until its queue drains.

The front end exposes three client shapes: blocking
(:meth:`ServingFrontEnd.query`), future-based
(:meth:`ServingFrontEnd.submit`, for thread-pool clients), and
asyncio-friendly (:meth:`ServingFrontEnd.submit_async`). ``PS3.serve()``
constructs and starts one.
"""

from __future__ import annotations

import asyncio
import math
import numbers
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field

from repro.obs import MetricsRegistry, trace_span

from repro.engine.batch_executor import BatchExecutor
from repro.engine.combiner import FinalAnswer, combine_answers, finalize_answer
from repro.engine.query import Query
from repro.engine.table import PartitionedTable
from repro.errors import (
    ConfigError,
    ServingOverloadError,
    ServingStoppedError,
    ServingTimeoutError,
)


@dataclass(frozen=True)
class ServingConfig:
    """The front end's capacity setting.

    ``max_queue_depth`` bounds the admission queue (``None`` =
    unbounded). At capacity, ``submit`` sheds the request with
    :class:`ServingOverloadError`. It is a non-bool integer ``>= 1`` or
    ``None``; anything else is a :class:`ConfigError`.
    """

    max_queue_depth: int | None = 1024

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None:
            _check_number("max_queue_depth", self.max_queue_depth, integer=True)
            if self.max_queue_depth < 1:
                raise ConfigError("max_queue_depth must be >= 1 (or None)")


class ServingStats:
    """A front end's counters and gauges (monotonic, not reset).

    Each attribute is a ``serving.``-prefixed instrument of
    :attr:`registry`, read as ``.value`` (``front.stats.shed.value``), so
    ``registry.snapshot()`` (and ``PS3.metrics()``) report the same
    counts. Each front end gets its *own* registry by default, so
    concurrent front ends never mix their counts; pass ``registry=`` to
    aggregate.

    ``queries`` counts requests the worker took and ``batches`` its
    answer calls: one of each per request. ``queue_depth`` is the one
    live gauge: requests currently admitted but not yet taken by the
    worker, cancelled ones included until the worker skips them
    (``queue_peak`` is its high-water mark). ``shed``
    counts requests rejected at admission by the bound;
    ``deadline_misses`` counts requests that expired before an answer
    (at admission, when the worker took them, or in a blocking ``query``
    wait); ``cancelled_skips`` counts futures the client cancelled
    before the worker took them; ``failures`` counts requests whose
    answer raised.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        counter, gauge = self.registry.counter, self.registry.gauge
        self.queries = counter("serving.queries")
        self.batches = counter("serving.batches")
        self.failures = counter("serving.failures")
        self.shed = counter("serving.shed")
        self.deadline_misses = counter("serving.deadline_misses")
        self.cancelled_skips = counter("serving.cancelled_skips")
        self.queue_depth = gauge("serving.queue_depth")
        self.queue_peak = gauge("serving.queue_peak")

    def note_enqueue(self) -> None:
        self.queue_peak.set_max(self.queue_depth.add(1))

    def note_dequeue(self) -> None:
        self.queue_depth.add(-1)


@dataclass(frozen=True)
class ServingHealth:
    """One consistent snapshot of a front end's liveness.

    ``running`` — started and not stopped, so ``submit`` admits;
    ``queue_depth`` — requests admitted and not yet taken.
    """

    running: bool
    queue_depth: int


@dataclass
class _Request:
    """One admitted query."""

    query: Query
    budget_partitions: int | None
    budget_fraction: float | None
    deadline: float | None = None  # absolute time.monotonic(), None = never
    submitted: float = field(default_factory=time.monotonic)
    future: Future = field(default_factory=Future)

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline


def _check_number(name: str, value, *, integer: bool = False) -> None:
    """A non-bool integer if ``integer``, else a finite non-bool real."""
    if integer:
        ok = isinstance(value, numbers.Integral)
    else:
        ok = isinstance(value, numbers.Real) and math.isfinite(value)
    if isinstance(value, bool) or not ok:
        kind = "an integer" if integer else "a finite real number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")


def check_budget_shape(
    budget_partitions: int | None, budget_fraction: float | None
) -> None:
    """A request's budget arguments, validated without the table.

    Exactly one of ``budget_partitions`` (an absolute integer count
    ``>= 1``, numpy integers included) and ``budget_fraction`` (a real
    share of the table in ``(0, 1]``) must be given; anything else —
    ``nan``, a float or bool count, a bool or string fraction included —
    is a :class:`ConfigError`.
    """
    if (budget_partitions is None) == (budget_fraction is None):
        raise ConfigError(
            "pass exactly one of budget_partitions / budget_fraction"
        )
    if budget_fraction is not None:
        _check_number("budget_fraction", budget_fraction)
        if not 0.0 < budget_fraction <= 1.0:
            raise ConfigError("budget_fraction must be in (0, 1]")
    else:
        _check_number("budget_partitions", budget_partitions, integer=True)
        if budget_partitions < 1:
            raise ConfigError("budget_partitions must be >= 1")


def answer_selections(
    ptable: PartitionedTable, pairs: list[tuple[Query, list]]
) -> list[FinalAnswer]:
    """Answer ``(query, weighted selection)`` pairs on one table object.

    For each pair: execute the selected partitions with one
    :meth:`BatchExecutor.partition_answers` subset pass, combine under
    the selection's weights (:func:`combine_answers`), finalize. No
    pair shares anything with another, so an answer does not depend on
    the pairs beside it. A partition outside ``ptable`` is the
    executor's :class:`ConfigError` (a caller bug).
    """
    executor = BatchExecutor.for_table(ptable)
    finals: list[FinalAnswer] = []
    with trace_span("engine.sweep", queries=len(pairs)) as span:
        for query, selection in pairs:
            partitions = tuple(choice.partition for choice in selection)
            block = executor.partition_answers(query, partitions=partitions)
            finals.append(finalize_answer(query, combine_answers(block, selection)))
        if span is not None:  # None on the disabled-registry fast path
            span.tags["partitions"] = sum(len(selection) for __, selection in pairs)
    return finals


class ServingFrontEnd:
    """Query server over one fitted ``PS3`` system.

    Requests may arrive from any number of threads (or asyncio tasks via
    :meth:`submit_async`); a one-thread executor answers them one at a
    time through ``PS3.query``, in admission order. Use as a context
    manager, or pair :meth:`start` with :meth:`stop`::

        with ServingFrontEnd(ps3) as front:
            future = front.submit(query, budget_fraction=0.1)
            answer = future.result()

    Whatever an answer raises (an unknown column, an invalid budget at
    pick time, a division by zero, a ``BaseException``) fails only that
    request's future; the worker keeps going, so no future is ever
    stranded. ``faults`` takes any object with an ``on_scatter()`` hook,
    called before each future completion, for deterministic
    fault-injection tests.
    """

    def __init__(
        self,
        system,
        config: ServingConfig | None = None,
        *,
        faults=None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.system = system
        self.config = config or ServingConfig()
        self.stats = ServingStats(registry)
        self.registry = self.stats.registry
        self._faults = faults
        self._executor: ThreadPoolExecutor | None = None
        self._lifecycle = threading.Lock()
        # Held by ``stop`` until the executor has drained, so a ``start``
        # or a second ``stop`` waits for the admitted requests' answers.
        self._draining = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> ServingFrontEnd:
        with self._draining, self._lifecycle:
            if self._executor is not None:
                raise ConfigError("serving front end already started")
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="ps3-serving"
            )
        return self

    def stop(self) -> None:
        """Stop accepting requests, answer what was admitted, join.

        A ``start`` or a second ``stop`` meanwhile waits for the drain.
        """
        with self._draining:
            with self._lifecycle:
                executor, self._executor = self._executor, None
            if executor is not None:
                executor.shutdown(wait=True)

    def __enter__(self) -> ServingFrontEnd:
        # ``PS3.serve()`` returns an already-started front end; entering
        # it as a context manager must not double-start the worker.
        with self._lifecycle:
            running = self._executor is not None
        if not running:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def health(self) -> ServingHealth:
        """A consistent liveness snapshot (see :class:`ServingHealth`)."""
        with self._lifecycle:
            return ServingHealth(
                running=self._executor is not None,
                queue_depth=self.stats.queue_depth.value,
            )

    # -- client API ----------------------------------------------------------

    def submit(
        self,
        query: Query,
        budget_partitions: int | None = None,
        budget_fraction: float | None = None,
        deadline_seconds: float | None = None,
    ) -> Future:
        """Admit a query; returns a ``Future[ApproximateAnswer]``.

        Budget-shape errors (neither or both budgets, out-of-range
        fraction) raise immediately in the caller; the partition count
        itself is resolved at pick time against the table the pick
        sees, so appends between submit and answer are honoured.
        ``deadline_seconds`` bounds how long the request may wait for an
        answer; at ``max_queue_depth`` admitted requests the request is
        shed with :class:`ServingOverloadError`.
        """
        check_budget_shape(budget_partitions, budget_fraction)
        deadline = None
        if deadline_seconds is not None:
            _check_number("deadline_seconds", deadline_seconds)
            if deadline_seconds <= 0:
                # Fail fast: the client's remaining time is already gone.
                raise ServingTimeoutError(
                    f"deadline_seconds={deadline_seconds} already expired at submit"
                )
            deadline = time.monotonic() + deadline_seconds
        with self._lifecycle:
            if self._executor is None:
                raise ServingStoppedError(
                    "serving front end is not running (call start())"
                )
            limit = self.config.max_queue_depth
            if limit is not None and self.stats.queue_depth.value >= limit:
                self.stats.shed.inc()
                raise ServingOverloadError(
                    f"admission queue full ({limit} requests); "
                    "request shed"
                )
            request = _Request(
                query, budget_partitions, budget_fraction, deadline
            )
            self.stats.note_enqueue()
            self._executor.submit(self._answer, request)
        return request.future

    def query(
        self,
        query: Query,
        budget_partitions: int | None = None,
        budget_fraction: float | None = None,
        deadline_seconds: float | None = None,
    ):
        """Blocking submit: the ``ApproximateAnswer`` (or the failure).

        Honors ``deadline_seconds`` on the *wait* as well: if the worker
        is wedged past the deadline, the call raises
        :class:`ServingTimeoutError` instead of blocking forever (the
        future is cancelled so the worker skips it). With no deadline,
        the wait ends with the answer or with whatever the answer
        raised.
        """
        start = time.monotonic()
        future = self.submit(
            query,
            budget_partitions,
            budget_fraction,
            deadline_seconds=deadline_seconds,
        )
        if deadline_seconds is None:
            return future.result()
        try:
            return future.result(
                timeout=max(0.0, start + deadline_seconds - time.monotonic())
            )
        except FutureTimeoutError:
            future.cancel()
            self.stats.deadline_misses.inc()
            raise ServingTimeoutError(
                f"request missed its {deadline_seconds}s deadline"
            ) from None

    async def submit_async(
        self,
        query: Query,
        budget_partitions: int | None = None,
        budget_fraction: float | None = None,
        deadline_seconds: float | None = None,
    ):
        """Awaitable submit for asyncio servers (no executor thread hop)."""
        future = self.submit(
            query,
            budget_partitions,
            budget_fraction,
            deadline_seconds=deadline_seconds,
        )
        return await asyncio.wrap_future(future)

    # -- worker --------------------------------------------------------------

    def _answer(self, request: _Request) -> None:
        """Complete the request's own future; skip it if cancelled.

        The executor runs this for every admitted request, a cancelled
        one included, so a request holds its ``queue_depth`` slot until
        the worker takes it and the admission bound stays exact.
        """
        stats, future = self.stats, request.future
        # Under _lifecycle so admission's depth check + increment stays
        # mutually exclusive with the decrement.
        with self._lifecycle:
            stats.note_dequeue()
        self.registry.histogram("serving.admission_wait_seconds").observe(
            time.monotonic() - request.submitted
        )
        stats.queries.inc()
        stats.batches.inc()
        # Marking the future RUNNING wins the race against client-side
        # cancellation: from here on only this worker completes it.
        if not future.set_running_or_notify_cancel():
            stats.cancelled_skips.inc()
            return
        if request.expired():
            stats.deadline_misses.inc()
            future.set_exception(
                ServingTimeoutError(
                    "request expired before it was answered; failing fast"
                )
            )
            return
        try:
            with trace_span("serving.answer", registry=self.registry):
                answer = self.system.query(
                    request.query,
                    request.budget_partitions,
                    request.budget_fraction,
                )
            if self._faults is not None:
                self._faults.on_scatter()
        except BaseException as exc:  # noqa: BLE001 - fails its own future
            stats.failures.inc()
            future.set_exception(exc)
            return
        future.set_result(answer)
