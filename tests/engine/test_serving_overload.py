"""Closed-loop overload hammer: offered load ≫ capacity.

Floods the front end from several submitter threads while the worker is
throttled (an injected slow pick per request, ``SLOW_PICK``), and
asserts the resilience contract end to end:

* the admission queue stays *bounded* (`queue_peak <= max_queue_depth`)
  and sheds are accounted (`stats.shed` == client-observed rejections);
* every admitted request runs at its own resolved budget, and its
  answer stays bit-identical to the sequential combine walk for its own
  selection;
* a deadlined request trapped behind the backlog fails fast with
  ``ServingTimeoutError`` instead of waiting out the queue;
* after ``stop()`` under load, zero futures are stranded — every one is
  done (answered, failed, shed at submit, or failed by the drain).
"""

from __future__ import annotations

import threading

import pytest

from dict_walk import combine_answers, finalize_answer
from scalar_oracle import execute_on_partition
from serving_faults import poisoned_picker

from repro.api import PS3
from repro.datasets.registry import get_dataset
from repro.engine.serving import ServingConfig, ServingFrontEnd
from repro.errors import (
    ServingError,
    ServingOverloadError,
    ServingTimeoutError,
)
from repro.workload import QueryGenerator


@pytest.fixture(scope="module")
def served_system():
    spec = get_dataset("kdd")
    ptable = spec.build(2000, 8, seed=23)
    workload = spec.workload()
    train, test = QueryGenerator(
        workload, ptable.table, seed=29
    ).train_test_split(10, 4)
    return PS3(ptable, workload).fit(train), test


def _assert_matches_sequential(system, answer):
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


def _flood(front, test, *, clients, per_client, budget_fraction=0.75):
    """Open-loop flood from several threads; returns (futures, sheds)."""
    futures: list = []
    sheds = [0]
    errors: list[BaseException] = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients)

    def client(seed: int) -> None:
        barrier.wait()
        for i in range(per_client):
            try:
                future = front.submit(
                    test[(seed + i) % len(test)],
                    budget_fraction=budget_fraction,
                )
            except ServingOverloadError:
                with lock:
                    sheds[0] += 1
            except BaseException as exc:  # noqa: BLE001 - collected
                with lock:
                    errors.append(exc)
            else:
                with lock:
                    futures.append(future)

    threads = [
        threading.Thread(target=client, args=(s,)) for s in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    return futures, sheds[0]


#: Per-pick sleep that makes the flood outpace the worker by construction.
SLOW_PICK = 0.005


class TestBoundedQueue:
    def test_depth_bounded_and_sheds_accounted(self, served_system):
        system, test = served_system
        config = ServingConfig(max_queue_depth=6)
        with poisoned_picker(system, slow_pick_seconds=SLOW_PICK):
            front = ServingFrontEnd(system, config).start()
            try:
                futures, sheds = _flood(front, test, clients=4, per_client=20)
                answers = [f.result(timeout=60) for f in futures]
            finally:
                front.stop()
        # Offered 80 ≫ capacity: the bound must have bitten.
        assert sheds > 0
        assert front.stats.shed.value == sheds
        assert front.stats.queue_peak.value <= 6
        assert len(answers) + sheds == 80
        budget = system.query(test[0], budget_fraction=0.75).budget
        for answer in answers:
            _assert_matches_sequential(system, answer)
            assert answer.budget == budget  # load never shrinks a budget

    def test_unbounded_queue_never_sheds(self, served_system):
        system, test = served_system
        config = ServingConfig(max_queue_depth=None)
        with poisoned_picker(system, slow_pick_seconds=SLOW_PICK):
            front = ServingFrontEnd(system, config).start()
            try:
                futures, sheds = _flood(front, test, clients=4, per_client=10)
                for future in futures:
                    future.result(timeout=60)
            finally:
                front.stop()
        assert sheds == 0
        assert len(futures) == 40


class TestDeadlinesUnderLoad:
    def test_deadline_miss_fails_fast_behind_backlog(self, served_system):
        system, test = served_system
        config = ServingConfig(max_queue_depth=64)
        with (
            poisoned_picker(system, slow_pick_seconds=0.02),
            ServingFrontEnd(system, config) as front,
        ):
            # Trap a tightly-deadlined request in the middle of a
            # backlog: it must fail fast when the worker reaches it
            # (expired at pick time, no sweep spent on it), not wait
            # for an answer behind the whole queue.
            head = [
                front.submit(test[i % len(test)], budget_partitions=2)
                for i in range(10)
            ]
            doomed = front.submit(
                test[0], budget_partitions=2, deadline_seconds=0.05
            )
            tail = [
                front.submit(test[i % len(test)], budget_partitions=2)
                for i in range(10)
            ]
            with pytest.raises(ServingTimeoutError):
                doomed.result(timeout=60)
            # Failed ahead of the tail: the ~0.2s of queued work behind
            # it had not been served when the miss surfaced.
            assert not all(f.done() for f in tail)
            for future in head + tail:
                future.result(timeout=60)
        assert front.stats.deadline_misses.value >= 1


class TestStopUnderLoad:
    def test_zero_stranded_futures_after_stop(self, served_system):
        system, test = served_system
        config = ServingConfig(max_queue_depth=64)
        with poisoned_picker(system, slow_pick_seconds=0.01):
            front = ServingFrontEnd(system, config).start()
            futures, __ = _flood(front, test, clients=4, per_client=10)
            front.stop()  # mid-flood: much of the queue is still pending
        assert all(f.done() for f in futures)
        outcomes = {"answered": 0, "stopped": 0}
        for future in futures:
            exc = future.exception(timeout=0)
            if exc is None:
                _assert_matches_sequential(system, future.result())
                outcomes["answered"] += 1
            else:
                assert isinstance(exc, ServingError)
                outcomes["stopped"] += 1
        assert sum(outcomes.values()) == len(futures)
        assert front.stats.queue_depth.value == 0
