"""Serving front end: a bounded queue and one worker in front of ``PS3.query``.

:func:`answer_selections` is the one online way to turn ``(query,
weighted selection)`` pairs into answers — ``PS3.query``,
``PS3.query_many``, ``answer_with_selection`` and the CLI all reach it,
so their answers are bit-identical by construction.

The front end answers one request per worker loop iteration, as the
paper picks and combines partitions for each query on its own (section
2.4):

1. **admission** — ``submit`` checks the budget's shape in the caller's
   thread and enqueues the request; the queue is *bounded*
   (``max_queue_depth``) — at capacity new requests are shed with
   :class:`ServingOverloadError` instead of growing an unbounded backlog;
2. **answer** — the worker takes the next request, marks its future
   running (or skips it if the client cancelled it) and calls
   ``system.query(query, budget_partitions, budget_fraction)``: the pick
   runs under the system's state lock, execution on the table
   generation that pick saw. An ``Exception`` (an unknown column, a bad
   budget, a division by zero) fails only that request's future;
3. **complete** — the answer goes to the request's future.

A served answer therefore *is* the ``PS3.query`` answer for the same
request, picked in admission order. There is no micro-batch: under the
repo benchmark's open-loop traffic, batches held 1.2 requests on average
and serving one request at a time answered at the same rate (measured in
CHANGES.md).

**Overload resilience.** The bounded queue sheds what it cannot hold
with :class:`ServingOverloadError`; every admitted request runs at its
own resolved budget. A request may carry a **deadline**
(``deadline_seconds``); one already expired when the worker takes it
fails fast with :class:`ServingTimeoutError` instead of being answered.
The loop runs under a **supervisor**: a worker crash (a
``BaseException`` escaping an answer) fails the in-flight request and
restarts the loop, up to :data:`MAX_WORKER_RESTARTS` times.
:meth:`ServingFrontEnd.health` snapshots the whole picture. The worker
calls a duck-typed ``faults.on_scatter`` hook before each future
completion when given a fault set, so the test tree can inject a crash
at any completion.

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
import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field

from repro.obs import MetricsRegistry, trace_span

from repro.engine.batch_executor import BatchExecutor
from repro.engine.combiner import FinalAnswer, combine_answers, finalize_answer
from repro.engine.query import Query
from repro.engine.table import PartitionedTable
from repro.errors import (
    ConfigError,
    ServingError,
    ServingOverloadError,
    ServingStoppedError,
    ServingTimeoutError,
)


#: Worker restarts after a crash per :meth:`ServingFrontEnd.start`;
#: past this the front end fails permanently.
MAX_WORKER_RESTARTS = 2


@dataclass(frozen=True)
class ServingConfig:
    """The front end's capacity setting.

    ``max_queue_depth`` bounds the admission queue (``None`` =
    unbounded). At capacity, ``submit`` sheds the request with
    :class:`ServingOverloadError`. It is a non-bool integer ``>= 1`` or
    ``None``; anything else is a :class:`ConfigError`. A crashed worker
    restarts up to :data:`MAX_WORKER_RESTARTS` times per
    :meth:`~ServingFrontEnd.start`, then the front end fails permanently
    (pending futures are failed, new submits raise
    :class:`ServingStoppedError`).
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

    ``queries`` counts requests the worker took off the queue and
    ``batches`` its loop iterations: one of each per request.
    ``queue_depth`` is the one live gauge: requests currently admitted
    but not yet taken by the worker (``queue_peak`` is its high-water
    mark). ``shed`` counts requests rejected at admission by the bounded
    queue; ``deadline_misses`` counts requests that expired before an
    answer (at admission, when the worker took them, or in a blocking
    ``query`` wait); ``cancelled_skips`` counts futures the client
    cancelled before the worker could complete them; ``worker_restarts``
    counts supervisor restarts after a worker crash; ``failures`` counts
    requests whose answer raised, plus one in flight at a crash.
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
        self.worker_restarts = counter("serving.worker_restarts")
        self.queue_depth = gauge("serving.queue_depth")
        self.queue_peak = gauge("serving.queue_peak")

    def note_enqueue(self) -> None:
        self.queue_peak.set_max(self.queue_depth.add(1))

    def note_dequeue(self) -> None:
        self.queue_depth.add(-1)


@dataclass(frozen=True)
class ServingHealth:
    """One consistent snapshot of a front end's liveness.

    ``running`` — started, not stopping, not permanently failed;
    ``worker_alive`` — the worker thread exists and is alive;
    ``healthy`` — running with a live worker and restart headroom.
    ``last_error`` carries the most recent worker crash (``repr``), if
    any.
    """

    running: bool
    worker_alive: bool
    healthy: bool
    queue_depth: int
    worker_restarts: int
    restarts_remaining: int
    last_error: str | None


@dataclass
class _Request:
    """One admitted query plus its completion future."""

    query: Query
    budget_partitions: int | None
    budget_fraction: float | None
    deadline: float | None = None  # absolute time.monotonic(), None = never
    future: Future = field(default_factory=Future)
    submitted: float = field(default_factory=time.monotonic)

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline


#: Queue sentinel: the worker exits when it reaches it, having answered
#: everything queued before it.
_SHUTDOWN = object()


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
    :meth:`submit_async`); a single worker thread answers them one at a
    time through ``PS3.query``, in admission order. Use as a context
    manager, or pair :meth:`start` with :meth:`stop`::

        with ServingFrontEnd(ps3) as front:
            future = front.submit(query, budget_fraction=0.1)
            answer = future.result()

    Per-request failures (unknown columns, invalid budgets at pick time,
    an execution error such as a division by zero) fail only that
    request's future; the worker keeps going. A worker *crash* fails the
    in-flight request and restarts the loop (capped; see :meth:`health`)
    — no future is ever stranded. ``faults`` takes any object with an
    ``on_scatter()`` hook, called before each future completion, for
    deterministic fault-injection tests.
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
        self._queue: queue.Queue = queue.Queue()
        self._worker: threading.Thread | None = None
        self._stopping = False
        self._failed = False
        self._crashes = 0  # worker crashes since start() (not monotonic)
        self._last_error: BaseException | None = None
        self._inflight: _Request | None = None  # worker-thread only
        self._lifecycle = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> ServingFrontEnd:
        with self._lifecycle:
            if self._worker is not None:
                raise ConfigError("serving front end already started")
            self._stopping = False
            self._failed = False
            self._crashes = 0
            self._last_error = None
            self._inflight = None
            self._worker = threading.Thread(
                target=self._supervise, name="ps3-serving", daemon=True
            )
            self._worker.start()
        return self

    def stop(self) -> None:
        """Stop accepting requests, finish what was admitted, join."""
        with self._lifecycle:
            worker = self._worker
            if worker is None:
                return
            self._stopping = True
            self._queue.put(_SHUTDOWN)
        worker.join()
        with self._lifecycle:
            self._worker = None
        # Anything admitted after the sentinel was enqueued (or left
        # behind by a permanently-failed worker) would strand its
        # future; fail it loudly instead.
        self._drain_queue(
            ServingStoppedError("front end stopped before answering")
        )

    def _drain_queue(self, error: ServingError) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is _SHUTDOWN:
                continue
            self._note_dequeue(item)
            self._fail_request(item, error)

    def __enter__(self) -> ServingFrontEnd:
        # ``PS3.serve()`` returns an already-started front end; entering
        # it as a context manager must not double-start the worker.
        with self._lifecycle:
            running = self._worker is not None and not self._stopping
        if not running:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def health(self) -> ServingHealth:
        """A consistent liveness snapshot (see :class:`ServingHealth`)."""
        with self._lifecycle:
            worker_alive = self._worker is not None and self._worker.is_alive()
            running = (
                self._worker is not None
                and not self._stopping
                and not self._failed
            )
            remaining = max(0, MAX_WORKER_RESTARTS - self._crashes)
            return ServingHealth(
                running=running,
                worker_alive=worker_alive,
                healthy=running and worker_alive,
                queue_depth=self.stats.queue_depth.value,
                worker_restarts=self.stats.worker_restarts.value,
                restarts_remaining=remaining,
                last_error=(
                    repr(self._last_error)
                    if self._last_error is not None
                    else None
                ),
            )

    # -- client API ----------------------------------------------------------

    def submit(
        self,
        query: Query,
        budget_partitions: int | None = None,
        budget_fraction: float | None = None,
        deadline_seconds: float | None = None,
    ) -> Future:
        """Enqueue a query; returns a ``Future[ApproximateAnswer]``.

        Budget-shape errors (neither or both budgets, out-of-range
        fraction) raise immediately in the caller; the partition count
        itself is resolved at pick time against the table the pick
        sees, so appends between submit and answer are honoured.
        ``deadline_seconds`` bounds how long the request may wait for an
        answer; a full admission queue sheds the request with
        :class:`ServingOverloadError`.
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
            if self._failed:
                raise ServingStoppedError(
                    "serving worker failed permanently "
                    f"(last error: {self._last_error!r})"
                )
            if self._worker is None or self._stopping:
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
            self._queue.put(request)
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
        future is cancelled so the worker skips it). With
        no deadline, a worker crash still fails the future via the
        supervisor, so the wait can never hang on a dead worker.
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

    def _supervise(self) -> None:
        """Run the worker loop; fail the in-flight request and restart on crash.

        A worker crash (anything escaping :meth:`_run`, including the
        ``BaseException``-derived injected crashes) must never strand a
        future: the request being answered is failed with a
        :class:`ServingError` carrying the crash, then the loop
        restarts — up to :data:`MAX_WORKER_RESTARTS` times, after which the
        front end fails permanently and drains its queue.
        """
        while True:
            try:
                self._run()
                return  # clean shutdown via sentinel
            except BaseException as exc:  # noqa: BLE001 - supervisor
                crash = ServingError(f"serving worker crashed: {exc!r}")
                crash.__cause__ = exc
                request, self._inflight = self._inflight, None
                if request is not None:
                    if not request.future.done():
                        self.stats.failures.inc()
                    self._fail_request(request, crash)
                with self._lifecycle:
                    self._last_error = exc
                    self._crashes += 1
                    give_up = self._crashes > MAX_WORKER_RESTARTS
                    if not give_up:
                        self.stats.worker_restarts.inc()
                    else:
                        self._failed = True
                if give_up:
                    self._drain_queue(
                        ServingStoppedError(
                            "serving worker failed permanently after "
                            f"{self.stats.worker_restarts.value} restarts "
                            f"(last error: {exc!r})"
                        )
                    )
                    return

    def _run(self) -> None:
        while True:
            request = self._queue.get()
            if request is _SHUTDOWN:
                return
            self._note_dequeue(request)
            self._inflight = request
            self._answer(request)
            self._inflight = None

    def _note_dequeue(self, request: _Request) -> None:
        # Under _lifecycle so admission's depth check + increment stays
        # mutually exclusive with the decrement (exact bounded-queue
        # semantics).
        with self._lifecycle:
            self.stats.note_dequeue()
        self.registry.histogram("serving.admission_wait_seconds").observe(
            time.monotonic() - request.submitted
        )

    def _answer(self, request: _Request) -> None:
        stats, future = self.stats, request.future
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
        except Exception as exc:  # noqa: BLE001 - forwarded
            # Ordinary per-request failures (bad column, bad budget, a
            # division by zero, injected pick poison) fail only this
            # future. BaseException-grade crashes escape to the
            # supervisor: that is a worker death, not a request bug.
            stats.failures.inc()
            future.set_exception(exc)
            return
        if self._faults is not None:
            self._faults.on_scatter()
        future.set_result(answer)

    def _fail_request(self, request: _Request, exc: BaseException) -> None:
        """Fail a future unless the client already cancelled/resolved it."""
        future = request.future
        if future.cancelled():
            self.stats.cancelled_skips.inc()
            return
        if future.done():
            return
        try:
            future.set_exception(exc)
        except InvalidStateError:
            # Lost the race with a client-side cancel; never kill the
            # worker over a request nobody is waiting for.
            self.stats.cancelled_skips.inc()
