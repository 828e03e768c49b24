"""Load generation for ``served_open``: an open-loop step and a probe.

Independent users do not wait for each other, so the step is an open
loop: one generator (the calling thread) sends requests at seeded
Poisson due times through ``front.submit`` whatever the backlog, and
futures' done-callbacks record completions, so many requests are in
flight with no thread beyond the generator and the serving worker.
Latency is counted from the moment a request was *due*, which charges a
stall to every request queued behind it; how late the generator itself
ran is reported beside it.

The probe is the closed-loop counterpart: a fixed number of requests
kept in flight, which measures the rate the front end saturates at.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


#: The speed probe takes about 1.5 ms; it runs only in gaps this long.
PROBE_SLACK_S = 0.004


@dataclass
class Request:
    """One request's life, times in seconds on ``time.perf_counter``."""

    query_index: int
    due: float
    sent: float = 0.0
    done: float | None = None  # None: never completed (cancelled late)
    answer: object = None
    error: BaseException | None = None

    @property
    def latency(self) -> float | None:
        return None if self.done is None else self.done - self.due


@dataclass
class StepResult:
    rate_qps: float
    requests: list = field(default_factory=list)
    late_cancelled: int = 0

    @property
    def lateness(self) -> list:
        return [r.sent - r.due for r in self.requests]


def _sleep_until(deadline: float) -> None:
    """Sleep to ``deadline``; the last half millisecond is spun.

    ``time.sleep`` overshoots by a scheduler quantum, which at a few
    hundred requests a second is a visible share of the gap.
    """
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0.0:
            return
        if remaining > 0.0005:
            time.sleep(remaining - 0.0005)


def open_loop_step(
    front,
    pool,
    budget_fraction,
    rate_qps,
    due_offsets,
    picks,
    drain_seconds,
    after_submit=lambda: None,
) -> StepResult:
    """Send one step's schedule, then wait ``drain_seconds`` and cancel.

    ``after_submit`` (the speed probe) runs on the generator after a
    send, but only when the next request is not due within
    ``PROBE_SLACK_S`` — it must not make the generator late.

    A request still outstanding after the drain is cancelled and counted
    late (``done`` stays ``None``): it missed any latency limit, but the
    system did not fail it.
    """
    result = StepResult(rate_qps)
    futures = []
    settled = threading.Semaphore(0)  # one release per finished callback
    start = time.perf_counter() + 0.01

    def completed(request, future):
        now = time.perf_counter()
        try:
            if future.cancelled():
                return
            request.error = future.exception()
            if request.error is None:
                request.answer = future.result()
            request.done = now
        finally:
            settled.release()

    for number, (offset, pick) in enumerate(zip(due_offsets, picks)):
        request = Request(int(pick), start + float(offset))
        result.requests.append(request)
        _sleep_until(request.due)
        request.sent = time.perf_counter()
        try:
            future = front.submit(
                pool[request.query_index], budget_fraction=budget_fraction
            )
        except Exception as exc:  # noqa: BLE001 - a refusal is a result
            request.error = exc
            request.done = time.perf_counter()
            continue
        future.add_done_callback(
            lambda f, request=request: completed(request, f)
        )
        futures.append(future)
        last = number + 1 == len(due_offsets)
        if last or start + due_offsets[number + 1] - request.sent > PROBE_SLACK_S:
            after_submit()

    deadline = result.requests[-1].due + drain_seconds
    waited = 0
    while waited < len(futures):
        remaining = deadline - time.perf_counter()
        if remaining <= 0.0 or not settled.acquire(timeout=remaining):
            break
        waited += 1
    result.late_cancelled = sum(1 for future in futures if future.cancel())
    # The worker drops a cancelled request in microseconds and finishes
    # one it had already started; every callback has run before the
    # next step starts.
    while waited < len(futures):
        settled.acquire()
        waited += 1
    return result


def saturation_probe(
    front, pool, budget_fraction, picks, inflight, seconds, after_submit=lambda: None
):
    """Closed loop with ``inflight`` requests outstanding for ``seconds``.

    Returns ``(requests, wall seconds)``; completed requests over wall
    time is the saturation rate.
    """
    slots = threading.Semaphore(inflight)
    requests: list[Request] = []

    def completed(request, future):
        request.error = future.exception()
        if request.error is None:
            request.answer = future.result()
        request.done = time.perf_counter()
        slots.release()

    start = time.perf_counter()
    deadline = start + seconds
    for pick in picks:
        slots.acquire()
        now = time.perf_counter()
        if now >= deadline:
            slots.release()
            break
        request = Request(int(pick), now, sent=now)
        requests.append(request)
        try:
            future = front.submit(
                pool[request.query_index], budget_fraction=budget_fraction
            )
        except Exception as exc:  # noqa: BLE001 - a refusal is a result
            request.error = exc
            request.done = time.perf_counter()
            slots.release()
            continue
        future.add_done_callback(
            lambda f, request=request: completed(request, f)
        )
        after_submit()
    for __ in range(inflight):  # every callback has released its slot
        slots.acquire()
    return requests, time.perf_counter() - start
