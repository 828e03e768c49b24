"""Serving-path fault injection: enumerate every fault point.

The storage plane proves its crash-safety by killing every filesystem
op once (`tests/storage/test_killpoints.py`); this suite is the same
discipline on the serving plane. For every injectable fault point —
poisoned pick, worker crash at pick, an execution error in one
request, a crash at a future completion (every index of a queue), a
client-cancelled queued future — it asserts the three isolation
invariants of the front end:

1. a poisoned request (its pick or its execution) fails only its *own*
   future;
2. a crash (a ``BaseException`` escaping an answer) fails only the
   request in flight, as raised, and strands nothing — every queued
   future completes (answered or failed), none hangs;
3. after the fault, answers are bit-identical to the sequential
   ``PS3.query`` combine walk for the same selections.

Requests are queued behind :func:`serving_plug.plugged`, whose plug is
the first request picked and completed, so pick and completion fault
indices count it. The fast subset runs as a named tier-1 CI step; the
exhaustive queue-length × fault-index enumeration rides the ``slow`` job.
"""

from __future__ import annotations

import threading
import time

import pytest

from dict_walk import combine_answers, finalize_answer
from scalar_oracle import execute_on_partition
from serving_faults import ServingFaults, SimulatedWorkerCrash, poisoned_picker
from serving_plug import plugged

from repro.api import PS3
from repro.datasets.registry import get_dataset
from repro.engine.aggregates import sum_of
from repro.engine.expressions import col
from repro.engine.query import Query
from repro.engine.serving import ServingConfig, ServingFrontEnd
from repro.errors import (
    ConfigError,
    ExecutionError,
    ServingOverloadError,
    ServingTimeoutError,
)
from repro.workload import QueryGenerator


@pytest.fixture(scope="module")
def served_system():
    """A small fitted system shared by the fault sweeps (module-scoped)."""
    spec = get_dataset("kdd")
    ptable = spec.build(2400, 10, seed=11)
    workload = spec.workload()
    train, test = QueryGenerator(
        workload, ptable.table, seed=9
    ).train_test_split(10, 4)
    return PS3(ptable, workload).fit(train), test


def _assert_matches_sequential(system, answer):
    """Recompute the answer from its own selection via the sequential
    plane; the served answer must match it bit for bit."""
    selection = answer.selection.selection
    answers = [
        execute_on_partition(system.ptable[c.partition], answer.query)
        for c in selection
    ]
    sequential = finalize_answer(
        answer.query, combine_answers(answers, selection)
    )
    assert list(answer.groups.keys()) == list(sequential.keys())
    for key in sequential:
        assert answer.groups[key].tobytes() == sequential[key].tobytes()


def _assert_same_answer(answer, expected):
    """``answer`` has ``expected``'s selection and answer bytes."""
    assert answer.selection.selection == expected.selection.selection
    assert list(answer.groups) == list(expected.groups)
    for key, value in expected.groups.items():
        assert answer.groups[key].tobytes() == value.tobytes()


#: The plug (:func:`plugged`) is picked and completed first.
PLUG = 1


class TestPoisonedPick:
    """Fault point: picker.select raises for one request."""

    def _run_point(self, served_system, size, poison):
        system, test = served_system
        with poisoned_picker(system, fail_at_pick=PLUG + poison):
            with ServingFrontEnd(system) as front:
                with plugged(front):
                    futures = [
                        front.submit(test[i % len(test)], budget_partitions=3)
                        for i in range(size)
                    ]
                for i, future in enumerate(futures):
                    if i == poison:
                        with pytest.raises(ExecutionError):
                            future.result(timeout=30)
                    else:
                        _assert_matches_sequential(
                            system, future.result(timeout=30)
                        )
        assert front.stats.failures.value == 1, (size, poison)

    @pytest.mark.parametrize("poison", [0, 1, 3])
    def test_fails_only_its_own_future(self, served_system, poison):
        self._run_point(served_system, 4, poison)

    @pytest.mark.slow
    def test_exhaustive_over_every_pick_index(self, served_system):
        for size in (1, 2, 3, 4):
            for poison in range(size):
                self._run_point(served_system, size, poison)


class TestExecutionFailure:
    """Fault point: one request's execution raises (a division by zero)."""

    def test_fails_only_its_own_future(self, served_system):
        system, test = served_system
        dividing = Query([sum_of(col("src_bytes") / col("urgent"))])
        expected = system.query_many([test[0]], budget_partitions=3)[0]
        with ServingFrontEnd(system) as front:
            with plugged(front):
                bad = front.submit(dividing, budget_partitions=3)
                good = front.submit(test[0], budget_partitions=3)
            with pytest.raises(ExecutionError):
                bad.result(timeout=30)
            _assert_same_answer(good.result(timeout=30), expected)
            # The worker survived the failure and keeps answering.
            _assert_matches_sequential(
                system, front.query(test[1], budget_partitions=3)
            )
        assert front.stats.failures.value == 1

    def test_failing_request_between_queued_requests(self, served_system):
        system, test = served_system
        dividing = Query([sum_of(col("src_bytes") / col("urgent"))])
        expected = system.query_many(test[:2], budget_partitions=3)
        with ServingFrontEnd(system) as front:
            with plugged(front):
                first = front.submit(test[0], budget_partitions=3)
                bad = front.submit(dividing, budget_partitions=3)
                last = front.submit(test[1], budget_partitions=3)
            with pytest.raises(ExecutionError):
                bad.result(timeout=30)
            for future, want in zip((first, last), expected):
                _assert_same_answer(future.result(timeout=30), want)
        assert front.stats.failures.value == 1

    def test_each_failing_request_fails_on_its_own(self, served_system):
        system, test = served_system
        dividing = [
            Query([sum_of(col("src_bytes") / col("urgent"))]),
            Query([sum_of(col("dst_bytes") / col("urgent"))]),
        ]
        expected = system.query_many([test[0]], budget_partitions=3)[0]
        with ServingFrontEnd(system) as front:
            with plugged(front):
                bad = [
                    front.submit(query, budget_partitions=3)
                    for query in dividing
                ]
                good = front.submit(test[0], budget_partitions=3)
            errors = []
            for future in bad:
                with pytest.raises(ExecutionError) as info:
                    future.result(timeout=30)
                errors.append(info.value)
            _assert_same_answer(good.result(timeout=30), expected)
        # Each future carries the error its own execution raised.
        assert errors[0] is not errors[1]
        assert front.stats.failures.value == 2

    def test_each_request_executes_once(self, served_system, monkeypatch):
        """No retry: a failing execution runs once, like the requests
        queued beside it, and each execution holds one request alone."""
        import repro.api as api

        system, test = served_system
        dividing = Query([sum_of(col("src_bytes") / col("urgent"))])
        calls = []
        answer_selections = api.answer_selections

        def counting(ptable, pairs):
            calls.append([query for query, __ in pairs])
            return answer_selections(ptable, pairs)

        monkeypatch.setattr(api, "answer_selections", counting)
        with ServingFrontEnd(system) as front:
            with plugged(front):
                bad = front.submit(dividing, budget_partitions=3)
                good = [
                    front.submit(test[i], budget_partitions=3)
                    for i in range(2)
                ]
            with pytest.raises(ExecutionError):
                bad.result(timeout=30)
            for future in good:
                _assert_matches_sequential(system, future.result(timeout=30))
        # The first execution is the plug's.
        assert calls[PLUG:] == [[dividing], [test[0]], [test[1]]]
        snap = front.registry.snapshot()
        assert snap["counters"]["serving.answer.calls"] == PLUG + 3
        assert snap["counters"]["serving.failures"] == 1

    def test_crash_during_execution_fails_its_own_future(
        self, served_system, monkeypatch
    ):
        """A BaseException-grade crash inside execution fails the
        request in flight as raised; the worker keeps serving, and later
        answers are exact."""
        import repro.api as api

        system, test = served_system
        answer_selections = api.answer_selections
        executions = []

        def crash_once(ptable, pairs):
            executions.append(pairs)
            if len(executions) == PLUG + 1:
                raise SimulatedWorkerCrash("injected crash in execution")
            return answer_selections(ptable, pairs)

        monkeypatch.setattr(api, "answer_selections", crash_once)
        with ServingFrontEnd(system) as front:
            with plugged(front):
                futures = [
                    front.submit(test[i], budget_partitions=3)
                    for i in range(2)
                ]
            with pytest.raises(SimulatedWorkerCrash):
                futures[0].result(timeout=30)
            _assert_matches_sequential(system, futures[1].result(timeout=30))
            assert front.health().running
            _assert_matches_sequential(
                system, front.query(test[0], budget_partitions=3)
            )
        assert front.stats.failures.value == 1


class TestCrashMidScatter:
    """Fault point: a crash before completing one future."""

    def _run_point(self, served_system, size, crash_at):
        system, test = served_system
        faults = ServingFaults(crash_at_scatter=PLUG + crash_at)
        with ServingFrontEnd(system, faults=faults) as front:
            with plugged(front):
                futures = [
                    front.submit(test[i % len(test)], budget_partitions=3)
                    for i in range(size)
                ]
            for i, future in enumerate(futures):
                if i == crash_at:
                    # In flight at the crash: failed as raised, never
                    # stranded.
                    with pytest.raises(SimulatedWorkerCrash):
                        future.result(timeout=30)
                else:
                    # Answered before the crash or after it:
                    # bit-identical either way.
                    _assert_matches_sequential(
                        system, future.result(timeout=30)
                    )
        assert front.stats.failures.value == 1, (size, crash_at)

    @pytest.mark.parametrize("crash_at", [0, 2, 3])
    def test_fast_points(self, served_system, crash_at):
        self._run_point(served_system, 4, crash_at)

    @pytest.mark.slow
    def test_exhaustive_every_scatter_index(self, served_system):
        for size in (1, 2, 3, 5):
            for crash_at in range(size):
                self._run_point(served_system, size, crash_at)


class TestWorkerDeath:
    """Fault point: a crash (a ``BaseException``) escapes an answer, once
    or at every answer, or a slow pick wedges the worker."""

    class _AlwaysCrash(ServingFaults):
        def on_scatter(self) -> None:
            self.scatters += 1
            raise SimulatedWorkerCrash("injected: a crash at every answer")

    def test_crash_at_pick_fails_its_future_and_the_queue_is_answered(
        self, served_system
    ):
        system, test = served_system
        with (
            poisoned_picker(system, crash_at_pick=PLUG + 1),
            ServingFrontEnd(system) as front,
        ):
            with plugged(front):
                futures = [
                    front.submit(test[i], budget_partitions=3)
                    for i in range(3)
                ]
            # The crash fails the request in flight as raised; the
            # requests on either side of it are answered, bit-identically,
            # and the worker keeps serving.
            with pytest.raises(SimulatedWorkerCrash):
                futures[1].result(timeout=30)
            for future in (futures[0], futures[2]):
                _assert_matches_sequential(system, future.result(timeout=30))
            assert front.health().running
            _assert_matches_sequential(
                system, front.query(test[0], budget_partitions=3)
            )
        assert front.stats.failures.value == 1

    def test_blocking_query_never_hangs_on_worker_death(self, served_system):
        """Regression: `query` used to block forever on a dead worker. A
        crash at every answer fails each blocking query as raised, and
        the front end keeps running: there is no restart cap to reach."""
        system, test = served_system
        front = ServingFrontEnd(system, faults=self._AlwaysCrash()).start()
        try:
            for __ in range(3):
                started = time.monotonic()
                with pytest.raises(SimulatedWorkerCrash):
                    front.query(test[0], budget_partitions=3)
                assert time.monotonic() - started < 10
            assert front.health().running
        finally:
            front.stop()

    def test_blocking_query_deadline_on_wedged_worker(self, served_system):
        """A wedged (not dead) worker: the wait honors the deadline."""
        system, test = served_system
        with (
            poisoned_picker(system, slow_pick_seconds=0.5),
            ServingFrontEnd(system) as front,
        ):
            started = time.monotonic()
            with pytest.raises(ServingTimeoutError):
                front.query(test[0], budget_partitions=3, deadline_seconds=0.05)
            assert time.monotonic() - started < 0.4
        assert front.stats.deadline_misses.value >= 1


class TestDeadlines:
    def test_expired_at_pick_time_fails_fast(self, served_system):
        system, test = served_system
        with poisoned_picker(system, slow_pick_seconds=0.1) as picker:
            with ServingFrontEnd(system) as front:
                # Queued behind a slow pick, the deadlined request
                # expires before the worker takes it.
                ahead = front.submit(test[1], budget_partitions=3)
                future = front.submit(
                    test[0], budget_partitions=3, deadline_seconds=0.03
                )
                with pytest.raises(ServingTimeoutError):
                    future.result(timeout=30)
                ahead.result(timeout=30)
        assert picker.picks == 1  # no pick spent on the expired request
        assert front.stats.deadline_misses.value == 1

    def test_submit_rejects_already_expired_deadline(self, served_system):
        system, test = served_system
        with ServingFrontEnd(system) as front:
            with pytest.raises(ServingTimeoutError):
                front.submit(test[0], budget_partitions=3, deadline_seconds=0.0)
            with pytest.raises(ServingTimeoutError):
                front.submit(
                    test[0], budget_partitions=3, deadline_seconds=-1.0
                )

    def test_nan_deadline_is_a_config_error(self, served_system):
        # NaN never expired a submitted request, and a blocking query
        # waited max(0.0, nan) = 0 seconds, so it always timed out.
        system, test = served_system
        nan = float("nan")
        with ServingFrontEnd(system) as front:
            with pytest.raises(ConfigError, match="deadline_seconds"):
                front.submit(test[0], budget_partitions=3, deadline_seconds=nan)
            with pytest.raises(ConfigError, match="deadline_seconds"):
                front.query(test[0], budget_partitions=3, deadline_seconds=nan)
        assert front.stats.queue_peak.value == 0

    @pytest.mark.parametrize(
        "deadline", [float("inf"), True, "1"], ids=["inf", "bool", "str"]
    )
    def test_non_real_deadline_is_a_config_error(self, served_system, deadline):
        # A deadline is a finite non-bool real: inf never expires and a
        # bool or string is a caller's slip, so each fails at submit.
        system, test = served_system
        with ServingFrontEnd(system) as front:
            with pytest.raises(ConfigError, match="deadline_seconds"):
                front.submit(
                    test[0], budget_partitions=3, deadline_seconds=deadline
                )
            with pytest.raises(ConfigError, match="deadline_seconds"):
                front.query(
                    test[0], budget_partitions=3, deadline_seconds=deadline
                )
        assert front.stats.queue_peak.value == 0

    def test_generous_deadline_answers_normally(self, served_system):
        system, test = served_system
        with ServingFrontEnd(system) as front:
            answer = front.query(
                test[0], budget_partitions=3, deadline_seconds=30.0
            )
        _assert_matches_sequential(system, answer)
        assert answer.effective_budget == answer.budget


class TestCancelledFutures:
    """Regression: a client-cancelled future used to make the worker's
    set_result raise InvalidStateError, killing the worker and stranding
    every request queued behind it."""

    def test_cancel_while_queued_skips_without_killing_worker(
        self, served_system
    ):
        system, test = served_system
        with ServingFrontEnd(system) as front:
            with plugged(front):
                f0 = front.submit(test[0], budget_partitions=3)
                f1 = front.submit(test[1], budget_partitions=3)
                f2 = front.submit(test[2], budget_partitions=3)
                assert f1.cancel()  # still queued behind the plug
                f3 = front.submit(test[3], budget_partitions=3)
            for future in (f0, f2, f3):
                _assert_matches_sequential(system, future.result(timeout=30))
            assert f1.cancelled()
            assert front.health().running
        assert front.stats.cancelled_skips.value == 1  # f1's
        assert front.stats.failures.value == 0

    def test_asyncio_cancellation_while_queued(self, served_system):
        import asyncio

        system, test = served_system

        async def go(front, release):
            victim = asyncio.ensure_future(
                front.submit_async(test[0], budget_partitions=3)
            )
            survivor = asyncio.ensure_future(
                front.submit_async(test[1], budget_partitions=3)
            )
            await asyncio.sleep(0)  # let both submits land
            victim.cancel()
            closer = asyncio.ensure_future(
                front.submit_async(test[2], budget_partitions=3)
            )
            await asyncio.sleep(0)  # let the closer's submit land
            release()  # all three were queued behind the plug
            answers = await asyncio.gather(survivor, closer)
            with pytest.raises(asyncio.CancelledError):
                await victim
            return answers

        with ServingFrontEnd(system) as front:
            with plugged(front) as release:
                answers = asyncio.run(go(front, release))
            assert front.health().running
        for answer in answers:
            _assert_matches_sequential(system, answer)
        assert front.stats.cancelled_skips.value == 1  # the victim's
        assert front.stats.failures.value == 0

    def test_a_cancelled_request_holds_its_slot_until_skipped(
        self, served_system
    ):
        """A blocking query that misses its deadline behind a wedged
        worker cancels its future, but the request stays admitted until
        the worker skips it: the bound sheds the next submit instead of
        letting the executor's backlog grow."""
        system, test = served_system
        config = ServingConfig(max_queue_depth=1)
        with ServingFrontEnd(system, config) as front:
            with plugged(front):
                with pytest.raises(ServingTimeoutError):
                    front.query(
                        test[0], budget_partitions=3, deadline_seconds=0.05
                    )
                with pytest.raises(ServingOverloadError):
                    front.submit(test[1], budget_partitions=3)
                assert front.stats.queue_depth.value == 1
        assert front.stats.cancelled_skips.value == 1
        assert front.stats.shed.value == 1
        assert front.stats.queue_depth.value == 0


class TestStopDrains:
    """``stop`` answers what was admitted before anything else may use
    the front end: a ``start`` or a second ``stop`` waits for the drain,
    so two executors never answer at once."""

    @pytest.mark.parametrize("second", ["start", "stop"])
    def test_a_second_call_waits_for_the_drain(self, served_system, second):
        system, test = served_system
        front = ServingFrontEnd(system).start()
        done_on_return = []
        try:
            with plugged(front):
                admitted = front.submit(test[0], budget_partitions=3)
                stopper = threading.Thread(target=front.stop)
                stopper.start()
                deadline = time.monotonic() + 10
                while front.health().running and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert not front.health().running

                def call() -> None:
                    getattr(front, second)()
                    done_on_return.append(admitted.done())

                caller = threading.Thread(target=call)
                caller.start()
                caller.join(timeout=0.2)
                assert caller.is_alive()  # held while the plug holds
            stopper.join(timeout=30)
            caller.join(timeout=30)
            assert done_on_return == [True]
            _assert_matches_sequential(system, admitted.result(timeout=0))
            assert front.health().running == (second == "start")
        finally:
            front.stop()
