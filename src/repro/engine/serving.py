"""Micro-batch serving front end: group commit for approximate analytics.

:func:`answer_selections` is the one online way to turn ``(query,
weighted selection)`` pairs into answers — ``PS3.query``,
``PS3.query_many``, ``answer_with_selection``, the CLI and the front end
below all call it, so their answers are bit-identical by construction.
The front end adds the database's classic group-commit move on top:

1. **admission** — the worker takes the request it dequeued plus
   whatever is already queued, up to ``max_batch_size``, and never waits
   for company: a lone request is swept on arrival, and under load
   batches form from the backlog that builds up during a sweep (group
   commit without a timer); the queue is *bounded*
   (``max_queue_depth``) — at capacity new requests are shed with
   :class:`ServingOverloadError` instead of growing an unbounded backlog;
2. **pick** — each request's partitions are selected sequentially in
   admission order under one hold of the system's state lock (the
   picker's rng, pick memo and feature caches are shared mutable
   state), one ``picker.select`` per request, exactly as back-to-back
   ``PS3.query`` calls would pick; a pure pick repeated within or
   across batches is a picker memo hit until the next append;
3. **sweep** — :func:`answer_selections`, outside the lock, on the
   table object captured under it (so every answer sees exactly one
   table generation): per request, one
   :meth:`BatchExecutor.partition_answers` subset pass over its own
   selection, the paper's section 2.4 sum under its own weights over
   that block's arrays (:func:`repro.engine.combiner.combine_answers`,
   one ``np.bincount`` per component), and :func:`finalize_answer` over
   the (groups x aggregates) plane; a request whose execution raises
   (say, a division by zero) fails only its own future;
4. **scatter** — each request's future is completed with its
   ``ApproximateAnswer``.

A micro-batch therefore buys one lock hold, and no answer depends on
its batch-mates: a batch answers exactly as ``PS3.query_many`` over its
requests in admission order. Distinct queries are *not* fused into one
sweep: at serving batch sizes that shared nothing and cost more than
the per-query pass (measured in CHANGES.md, PR 15).

**Overload resilience.** The bounded queue sheds what it cannot hold
with :class:`ServingOverloadError`; every admitted request runs at its
own resolved budget. A request may carry a **deadline**
(``deadline_seconds``); one already expired at admission or pick time
fails fast with :class:`ServingTimeoutError` instead of being swept.
The batch loop runs under a **supervisor**: a worker crash fails the
in-flight futures (never stranding batch-mates) and restarts the loop,
up to :data:`MAX_WORKER_RESTARTS` times. :meth:`ServingFrontEnd.health`
snapshots the whole picture. The worker calls duck-typed
``faults.on_batch`` / ``faults.on_scatter`` hooks when given a fault
set, so the test tree can inject a crash at every batch and scatter
point and prove isolation by enumeration.

The front end exposes three client shapes: blocking
(:meth:`ServingFrontEnd.query`), future-based
(:meth:`ServingFrontEnd.submit`, for thread-pool clients), and
asyncio-friendly (:meth:`ServingFrontEnd.submit_async`). ``PS3.serve()``
constructs and starts one; ``PS3.query_many`` is steps 2-4 synchronously
without threads.
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
    """The front end's two capacity settings.

    **Batching.** A batch is the request the worker dequeued plus
    whatever else is already queued when it does, capped at
    ``max_batch_size``; nothing waits for batch-mates, so batches are
    as large as the backlog that builds up during a sweep.

    **Admission control.** ``max_queue_depth`` bounds the admission
    queue (``None`` = unbounded). At capacity, ``submit`` sheds the
    request with :class:`ServingOverloadError`.

    Both are non-bool integers ``>= 1``; anything else is a
    :class:`ConfigError`. A crashed worker restarts up to
    :data:`MAX_WORKER_RESTARTS` times per :meth:`~ServingFrontEnd.start`,
    then the front end fails permanently (pending futures are failed,
    new submits raise :class:`ServingStoppedError`).
    """

    max_batch_size: int = 32
    max_queue_depth: int | None = 1024

    def __post_init__(self) -> None:
        _check_number("max_batch_size", self.max_batch_size, integer=True)
        if self.max_queue_depth is not None:
            _check_number("max_queue_depth", self.max_queue_depth, integer=True)
        if self.max_batch_size < 1:
            raise ConfigError("max_batch_size must be >= 1")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ConfigError("max_queue_depth must be >= 1 (or None)")


class ServingStats:
    """Observable counters for one front end (monotonic, not reset).

    Since the obs plane landed, this is a *view* over a
    :class:`~repro.obs.MetricsRegistry` rather than a bag of ints: every
    count lives in a ``serving.``-prefixed registry instrument, and the
    historical attributes (``front.stats.shed`` and friends) read
    straight through to it — existing callers and tests see the same
    integers they always did, while ``registry.snapshot()`` (and
    ``PS3.metrics()``) see the same counts as structured metrics.
    Each front end gets its *own* registry by default, so concurrent
    front ends never mix their counts; pass ``registry=`` to aggregate.

    ``queue_depth`` is the one live gauge: requests currently admitted
    but not yet dequeued by the worker (``queue_peak`` is its high-water
    mark). ``batched_queries`` counts queries admitted in a batch of two
    or more (nothing is shared between them). ``shed`` counts requests
    rejected at admission by the bounded queue; ``deadline_misses``
    counts requests that expired before an answer (at admission, at pick
    time, or in a blocking ``query`` wait); ``cancelled_skips`` counts
    futures the client cancelled before the worker could complete them;
    ``worker_restarts`` counts supervisor restarts after a worker crash;
    ``failures`` counts requests whose pick or execution raised, plus
    those in flight at a crash.
    """

    _COUNTER_NAMES = (
        "queries",
        "batches",
        "batched_queries",  # queries admitted in a batch of >= 2
        "failures",
        "shed",
        "deadline_misses",
        "cancelled_skips",
        "worker_restarts",
    )
    _GAUGE_NAMES = ("queue_depth", "queue_peak", "largest_batch")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: self.registry.counter(f"serving.{name}")
            for name in self._COUNTER_NAMES
        }
        self._gauges = {
            name: self.registry.gauge(f"serving.{name}")
            for name in self._GAUGE_NAMES
        }

    def __getattr__(self, name):
        # Legacy integer views: front.stats.shed et al. read the
        # registry instruments. (Only consulted for names not set in
        # __init__, so the hot mutation path never lands here.)
        instruments = self.__dict__.get("_counters")
        if instruments is not None and name in instruments:
            return instruments[name].value
        instruments = self.__dict__.get("_gauges")
        if instruments is not None and name in instruments:
            return instruments[name].value
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {name!r}"
        )

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)}"
            for name in self._COUNTER_NAMES + self._GAUGE_NAMES
        )
        return f"ServingStats({fields})"

    # -- mutation helpers (used by ServingFrontEnd only) ---------------------

    def count(self, name: str, n: int = 1) -> None:
        self._counters[name].inc(n)

    def note_enqueue(self) -> None:
        depth = self._gauges["queue_depth"].add(1)
        self._gauges["queue_peak"].set_max(depth)

    def note_dequeue(self) -> None:
        self._gauges["queue_depth"].add(-1)

    def note_batch(self, size: int) -> None:
        self._counters["batches"].inc()
        self._counters["queries"].inc(size)
        self._gauges["largest_batch"].set_max(size)
        if size > 1:
            self._counters["batched_queries"].inc(size)


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


#: Queue sentinel: the worker drains, answers what it holds, and exits.
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
    """Admission-batching query server over one fitted ``PS3`` system.

    Requests may arrive from any number of threads (or asyncio tasks via
    :meth:`submit_async`); a single worker thread forms micro-batches
    and answers each request in them on its own. Use as a context
    manager, or pair :meth:`start` with :meth:`stop`::

        with ServingFrontEnd(ps3) as front:
            future = front.submit(query, budget_fraction=0.1)
            answer = future.result()

    Per-request failures (unknown columns, invalid budgets at pick time,
    an execution error such as a division by zero) fail only that
    request's future; the worker and the rest of the batch keep going.
    A worker *crash* fails the in-flight futures and restarts the loop
    (capped; see :meth:`health`) — no future is ever stranded.
    ``faults`` takes any object with ``on_batch()`` and ``on_scatter()``
    hooks, called before each batch and each future completion, for
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
        self._inflight: list[_Request] = []  # worker-thread only
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
            self._inflight = []
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
                queue_depth=self.stats.queue_depth,
                worker_restarts=self.stats.worker_restarts,
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
        itself is resolved at pick time against the table the batch
        snapshots, so appends between submit and answer are honoured.
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
            if limit is not None and self.stats.queue_depth >= limit:
                self.stats.count("shed")
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
            self.stats.count("deadline_misses")
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
        """Run the batch loop; fail in-flight futures and restart on crash.

        A worker crash (anything escaping :meth:`_run`, including the
        ``BaseException``-derived injected crashes) must never strand a
        future: every request of the batch being processed is failed
        with a :class:`ServingError` carrying the crash, then the loop
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
                inflight, self._inflight = self._inflight, []
                for request in inflight:
                    if not request.future.done():
                        self.stats.count("failures")
                    self._fail_request(request, crash)
                with self._lifecycle:
                    self._last_error = exc
                    self._crashes += 1
                    give_up = self._crashes > MAX_WORKER_RESTARTS
                    if not give_up:
                        self.stats.count("worker_restarts")
                    else:
                        self._failed = True
                if give_up:
                    self._drain_queue(
                        ServingStoppedError(
                            "serving worker failed permanently after "
                            f"{self.stats.worker_restarts} restarts "
                            f"(last error: {exc!r})"
                        )
                    )
                    return

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            self._note_dequeue(item)
            self._inflight = [item]
            batch, saw_shutdown = self._admit(item)
            self._process(batch)
            self._inflight = []
            if saw_shutdown:
                return

    def _note_dequeue(self, request: _Request) -> None:
        # Under _lifecycle so admission's depth check + increment stays
        # mutually exclusive with the decrement (exact bounded-queue
        # semantics, as before the registry migration).
        with self._lifecycle:
            self.stats.note_dequeue()
        self.registry.histogram("serving.admission_wait_seconds").observe(
            time.monotonic() - request.submitted
        )

    def _admit(self, first: _Request) -> tuple[list[_Request], bool]:
        """One micro-batch: ``first`` plus whatever is already queued.

        Takes queued requests with ``get_nowait`` until the queue is
        empty or ``max_batch_size`` is reached, and never waits.
        """
        batch = [first]
        while len(batch) < self.config.max_batch_size:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                return batch, True
            self._note_dequeue(item)
            batch.append(item)
            self._inflight.append(item)
        return batch, False

    # -- future completion (cancellation-safe) -------------------------------

    def _fail_request(self, request: _Request, exc: BaseException) -> None:
        """Fail a future unless the client already cancelled/resolved it."""
        future = request.future
        if future.cancelled():
            self.stats.count("cancelled_skips")
            return
        if future.done():
            return
        try:
            future.set_exception(exc)
        except InvalidStateError:
            # Lost the race with a client-side cancel; never kill the
            # worker over a request nobody is waiting for.
            self.stats.count("cancelled_skips")

    def _complete_request(self, request: _Request, answer) -> None:
        future = request.future
        if future.cancelled():
            self.stats.count("cancelled_skips")
            return
        try:
            future.set_result(answer)
        except InvalidStateError:
            self.stats.count("cancelled_skips")

    # -- batch processing ----------------------------------------------------

    def _process(self, batch: list[_Request]) -> None:
        # Imported lazily: api sits above engine in the layering; only
        # the answer container is needed here.
        from repro.api import ApproximateAnswer

        faults = self._faults
        if faults is not None:
            faults.on_batch()
        system = self.system
        # Pick under the system's state lock: the picker's rng and pick
        # memo are shared, selections see a consistent (table,
        # statistics, picker) generation, and the snapshot table keeps
        # this batch's execution consistent even if an append lands
        # mid-sweep (appends build a *new* table object; the snapshot's
        # fused view is never mutated).
        with trace_span(
            "serving.pick", registry=self.registry, batch=len(batch)
        ), system._state_lock:
            ptable = system.ptable
            num_partitions = ptable.num_partitions
            picked: list[tuple[_Request, int, object]] = []
            for request in batch:
                # Marking the future RUNNING wins the race against
                # client-side cancellation: from here on, set_result/
                # set_exception cannot hit a cancelled future.
                if not request.future.set_running_or_notify_cancel():
                    self.stats.count("cancelled_skips")
                    continue
                if request.expired():
                    self.stats.count("deadline_misses")
                    self._fail_request(
                        request,
                        ServingTimeoutError(
                            "request expired before pick; failing fast "
                            "instead of sweeping"
                        ),
                    )
                    continue
                try:
                    budget = system._resolve_budget(
                        request.budget_partitions, request.budget_fraction
                    )
                    selection = system.picker.select(request.query, budget)
                except Exception as exc:  # noqa: BLE001 - forwarded
                    # Ordinary per-request failures (bad column, bad
                    # budget, injected pick poison) fail only this
                    # future. BaseException-grade crashes escape to the
                    # supervisor: that is a worker death, not a request
                    # bug.
                    self.stats.count("failures")
                    self._fail_request(request, exc)
                else:
                    picked.append((request, budget, selection))
        self.stats.note_batch(len(batch))
        if not picked:
            return
        answered = []
        with trace_span("serving.sweep", registry=self.registry, requests=len(picked)):
            for request, budget, selection in picked:
                try:
                    (groups,) = answer_selections(
                        ptable, [(request.query, selection.selection)]
                    )
                except Exception as exc:  # noqa: BLE001 - forwarded
                    # Same isolation as the pick: an execution error
                    # (say, a division by zero) fails only this future.
                    self.stats.count("failures")
                    self._fail_request(request, exc)
                else:
                    answered.append((request, budget, selection, groups))
        with trace_span(
            "serving.scatter", registry=self.registry, requests=len(answered)
        ):
            for request, budget, selection, groups in answered:
                if faults is not None:
                    faults.on_scatter()
                self._complete_request(
                    request,
                    ApproximateAnswer(
                        query=request.query,
                        groups=groups,
                        selection=selection,
                        budget=budget,
                        num_partitions=num_partitions,
                    ),
                )
