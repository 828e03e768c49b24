"""Serving plane: ``query_many`` and the front end.

:class:`ServingFrontEnd` — one worker answering queued requests through
``PS3.query`` — and ``PS3.query_many`` must return answers bit-identical
to the scalar
composition (``execute_on_partition`` per chosen partition →
``combine_answers`` → ``finalize_answer``) for the same selections,
isolate per-request failures, and stop cleanly. The differential suite
for :func:`answer_selections` itself lives in
``test_answer_selections.py``.

Plus the concurrency hammers for the races PR 8 fixed: the
``for_table``/``fused_view`` check-then-set memoizations and
query-vs-append interleavings.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from dict_walk import combine_answers, finalize_answer
from scalar_oracle import execute_on_partition
from serving_plug import plugged

from repro.api import PS3
from repro.datasets.registry import get_dataset
from repro.engine.aggregates import count_star
from repro.engine.batch_executor import BatchExecutor, fused_view
from repro.engine.layout import partition_evenly
from repro.engine.predicates import Comparison
from repro.engine.query import Query
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.serving import (
    MAX_WORKER_RESTARTS,
    ServingConfig,
    ServingFrontEnd,
)
from repro.engine.table import Table
from repro.errors import ConfigError, ServingStoppedError
from repro.workload import QueryGenerator

SCHEMA = Schema.of(
    Column("x", ColumnKind.NUMERIC, positive=True),
    Column("y", ColumnKind.NUMERIC),
    Column("d", ColumnKind.DATE),
    Column("cat", ColumnKind.CATEGORICAL, low_cardinality=True),
)


def build_table(num_rows: int, seed: int = 5) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        SCHEMA,
        {
            "x": rng.exponential(10.0, num_rows) + 1.0,
            "y": rng.normal(0.0, 5.0, num_rows).round(3),
            "d": rng.integers(0, 40, num_rows),
            "cat": rng.choice(["a", "b", "c", "dd"], num_rows),
        },
    )


class TestServingConfig:
    def test_defaults_valid(self):
        config = ServingConfig()
        # The resilience defaults: bounded queue, restart headroom.
        assert config.max_queue_depth is not None
        assert MAX_WORKER_RESTARTS >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue_depth": 0},
            # The depth is a non-bool integer.
            {"max_queue_depth": 2.5},
            {"max_queue_depth": True},
            {"max_queue_depth": -1},
            {"max_queue_depth": "4"},
            {"max_queue_depth": float("nan")},
            {"max_queue_depth": float("inf")},
            {"max_queue_depth": np.float64(4.0)},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigError):
            ServingConfig(**kwargs)

    def test_removed_batch_knob_is_rejected(self):
        # Serving answers one request per loop: no batch size to set.
        with pytest.raises(TypeError):
            ServingConfig(max_batch_size=4)

    def test_accepts_numpy_counts_and_unbounded_queue(self):
        assert ServingConfig(max_queue_depth=np.int64(4)).max_queue_depth == 4
        assert ServingConfig(max_queue_depth=None).max_queue_depth is None


@pytest.fixture(scope="module")
def served_system():
    """A small fitted system for front-end tests (module-scoped)."""
    spec = get_dataset("kdd")
    ptable = spec.build(3000, 12, seed=4)
    workload = spec.workload()
    train, test = QueryGenerator(workload, ptable.table, seed=6).train_test_split(
        10, 4
    )
    return PS3(ptable, workload).fit(train), test


def _assert_answer_matches_sequential(system, answer):
    """Recompute the answer from its own selection via the scalar
    composition; served answers must match it bit for bit."""
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


class TestQueryMany:
    def test_bit_identical_to_sequential_for_same_selections(
        self, served_system
    ):
        system, test = served_system
        queries = [test[0], test[1], test[0], test[2], test[3]]
        answers = system.query_many(queries, budget_fraction=0.4)
        assert [a.query for a in answers] == queries
        for answer in answers:
            assert len(answer.selection.selection) <= answer.budget
            _assert_answer_matches_sequential(system, answer)

    def test_budget_validation(self, served_system):
        system, test = served_system
        with pytest.raises(ConfigError):
            system.query_many([test[0]])
        with pytest.raises(ConfigError):
            system.query_many(
                [test[0]], budget_partitions=2, budget_fraction=0.5
            )

    def test_empty_batch(self, served_system):
        system, __ = served_system
        assert system.query_many([], budget_partitions=2) == []


class TestServingFrontEnd:
    def test_queued_answers_bit_identical(self, served_system):
        system, test = served_system
        with system.serve() as front:
            with plugged(front):
                futures = [
                    front.submit(test[i % len(test)], budget_fraction=0.4)
                    for i in range(16)
                ]
            answers = [f.result(timeout=30) for f in futures]
        for answer in answers:
            _assert_answer_matches_sequential(system, answer)
        assert front.stats.queries.value == 16 + 1  # and the plug
        # One loop iteration per request.
        assert front.stats.batches.value == front.stats.queries.value

    def test_each_request_is_answered_before_the_next_is_picked(
        self, served_system
    ):
        """Requests queued together are answered one at a time: by the
        time the second one is picked, the first one's future is done."""
        system, test = served_system
        done_at_pick = []
        picker = system._picker

        class _Spy:
            def __getattr__(self, name):
                return getattr(picker, name)

            def select(self, query, budget):
                if query is test[1]:
                    done_at_pick.append(first.done())
                return picker.select(query, budget)

        with system.serve() as front:
            with plugged(front):
                first = front.submit(test[0], budget_partitions=3)
                second = front.submit(test[1], budget_partitions=3)
                system._picker = _Spy()
            try:
                for future in (first, second):
                    _assert_answer_matches_sequential(
                        system, future.result(timeout=30)
                    )
            finally:
                system._picker = picker
        assert done_at_pick == [True]

    def test_blocking_query_helper(self, served_system):
        system, test = served_system
        with system.serve() as front:
            answer = front.query(test[0], budget_partitions=3)
        _assert_answer_matches_sequential(system, answer)
        assert len(answer.selection.selection) <= 3

    def test_async_submit(self, served_system):
        import asyncio

        system, test = served_system

        async def go(front):
            return await asyncio.gather(
                front.submit_async(test[0], budget_fraction=0.3),
                front.submit_async(test[1], budget_fraction=0.3),
            )

        with system.serve() as front:
            answers = asyncio.run(go(front))
        for answer in answers:
            _assert_answer_matches_sequential(system, answer)

    def test_lone_request_is_swept_without_a_timed_wait(self, served_system):
        system, test = served_system
        front = ServingFrontEnd(system)
        timeouts = []
        get = front._queue.get

        def spy(block=True, timeout=None):
            timeouts.append(timeout)
            return get(block, timeout)

        front._queue.get = spy  # get_nowait calls it too, with block=False
        with front:
            answer = front.query(test[0], budget_partitions=3)
        _assert_answer_matches_sequential(system, answer)
        assert front.stats.batches.value == 1
        assert len(timeouts) >= 2  # the request and the shutdown sentinel
        assert [t for t in timeouts if t is not None and t > 0] == []

    def test_burst_behind_a_busy_worker_picks_as_query_many(
        self, served_system
    ):
        system, test = served_system
        burst = [test[0], test[1]] * 4
        with system.serve() as front:
            with plugged(front):
                futures = [front.submit(q, budget_partitions=3) for q in burst]
            answers = [f.result(timeout=30) for f in futures]
        assert front.stats.batches.value == len(burst) + 1  # and the plug
        sequential = system.query_many(burst, budget_partitions=3)
        for answer, expected in zip(answers, sequential, strict=True):
            assert answer.selection.selection == expected.selection.selection
            _assert_answer_matches_sequential(system, answer)

    def test_per_request_failure_isolated(self, served_system):
        system, test = served_system
        bad = Query([count_star()], Comparison("no_such_column", ">", 1.0))
        with system.serve() as front:
            with plugged(front):
                good_future = front.submit(test[0], budget_partitions=3)
                bad_future = front.submit(bad, budget_partitions=3)
            answer = good_future.result(timeout=30)
            with pytest.raises(Exception):
                bad_future.result(timeout=30)
        _assert_answer_matches_sequential(system, answer)
        assert front.stats.failures.value == 1

    def test_submit_validates_budget_shape_immediately(self, served_system):
        system, test = served_system
        with system.serve() as front:
            with pytest.raises(ConfigError):
                front.submit(test[0])
            with pytest.raises(ConfigError):
                front.submit(test[0], budget_partitions=2, budget_fraction=0.5)
            with pytest.raises(ConfigError):
                front.submit(test[0], budget_fraction=1.5)
            with pytest.raises(ConfigError):
                front.submit(test[0], budget_fraction=float("nan"))
            with pytest.raises(ConfigError):
                front.submit(test[0], budget_partitions=0)
            # Raised in the caller's thread, before anything is enqueued.
            assert front.stats.queue_peak.value == 0

    def test_stopped_front_end_rejects_submissions(self, served_system):
        system, test = served_system
        front = system.serve()
        front.stop()
        with pytest.raises(ServingStoppedError):
            front.submit(test[0], budget_partitions=2)

    def test_double_start_rejected(self, served_system):
        system, __ = served_system
        front = system.serve()
        try:
            with pytest.raises(ConfigError):
                front.start()
        finally:
            front.stop()

    def test_stop_idempotent_and_context_reentrant(self, served_system):
        system, test = served_system
        front = ServingFrontEnd(system)
        with front:
            front.query(test[0], budget_partitions=2)
        front.stop()  # second stop is a no-op
        with front:  # restartable after stop
            front.query(test[1], budget_partitions=2)

    def test_requires_fitted_system(self):
        spec = get_dataset("kdd")
        ptable = spec.build(1000, 4, seed=5)
        from repro.errors import NotFittedError

        with pytest.raises(NotFittedError):
            PS3(ptable, spec.workload()).serve()

    def test_answers_report_the_budget_they_ran_with(self, served_system):
        """The resolved budget is what ran, and the answer says so."""
        system, test = served_system
        with system.serve() as front:
            served = front.query(test[0], budget_partitions=3)
        direct = system.query(test[0], budget_partitions=3)
        for answer in (served, direct):
            assert answer.effective_budget == answer.budget == 3

    def test_health_snapshot_lifecycle(self, served_system):
        system, test = served_system
        front = system.serve()
        try:
            health = front.health()
            assert health.running and health.worker_alive and health.healthy
            assert health.queue_depth == 0
            assert health.worker_restarts == 0
            assert health.restarts_remaining == MAX_WORKER_RESTARTS
            assert health.last_error is None
            front.query(test[0], budget_partitions=2)
        finally:
            front.stop()
        health = front.health()
        assert not health.running
        assert not health.healthy

    def test_queue_gauge_returns_to_zero(self, served_system):
        system, test = served_system
        with system.serve() as front:
            with plugged(front):
                futures = [
                    front.submit(test[i % len(test)], budget_fraction=0.4)
                    for i in range(6)
                ]
            for future in futures:
                future.result(timeout=30)
        assert front.stats.queue_depth.value == 0
        assert front.stats.queue_peak.value >= 1
        assert front.stats.shed.value == 0
        assert front.stats.deadline_misses.value == 0


class TestCacheMemoizationRaces:
    """Regression: `for_table`/`fused_view` check-then-set on the table
    object was unlocked — two threads could each build an executor (and
    its fused view) and race the attribute write."""

    def _hammer(self, build, check_identity=True):
        results: list[object] = []
        errors: list[BaseException] = []
        barrier = threading.Barrier(8)

        def run() -> None:
            barrier.wait()
            try:
                results.append(build())
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=run) for __ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        if check_identity:
            assert all(r is results[0] for r in results)

    def test_batch_executor_memoized_once(self):
        ptable = partition_evenly(build_table(600, seed=21), 6)
        self._hammer(lambda: BatchExecutor.for_table(ptable))

    def test_fused_view_memoized_once(self):
        ptable = partition_evenly(build_table(600, seed=23), 6)
        self._hammer(lambda: fused_view(ptable))


class TestConcurrentAppendVsQueries:
    """In-flight queries racing appends see exactly one table
    generation: every answer is internally consistent (selection within
    its generation's partition count) and recomputes bit-identically —
    old partitions are immutable across appends, so the final table is
    a valid oracle for every generation's selections."""

    @pytest.mark.parametrize("use_serving", [False, True])
    def test_hammer(self, use_serving):
        spec = get_dataset("kdd")
        ptable = spec.build(2400, 8, seed=13)
        workload = spec.workload()
        train, test = QueryGenerator(
            workload, ptable.table, seed=3
        ).train_test_split(8, 3)
        system = PS3(ptable, workload).fit(train)
        generations = {system.ptable.num_partitions}

        answers: list = []
        errors: list[BaseException] = []
        stop = threading.Event()

        def appender() -> None:
            try:
                for seed in range(4):
                    rows = dict(spec.generate(200, 500 + seed).columns)
                    generations.add(system.append(rows) + 1)
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)
            finally:
                stop.set()

        front = system.serve() if use_serving else None
        try:

            def client(seed: int) -> None:
                try:
                    i = 0
                    while not stop.is_set() or i < 4:
                        query = test[(seed + i) % len(test)]
                        if front is not None:
                            answer = front.query(query, budget_fraction=0.5)
                        else:
                            answer = system.query(query, budget_fraction=0.5)
                        answers.append(answer)
                        i += 1
                except BaseException as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(s,)) for s in range(4)
            ]
            appends = threading.Thread(target=appender)
            for t in threads:
                t.start()
            appends.start()
            appends.join()
            for t in threads:
                t.join()
        finally:
            if front is not None:
                front.stop()

        assert errors == []
        assert len(generations) == 5  # all four appends landed
        assert answers
        for answer in answers:
            # One consistent generation, never a torn view.
            assert answer.num_partitions in generations
            assert all(
                c.partition < answer.num_partitions
                for c in answer.selection.selection
            )
            _assert_answer_matches_sequential(system, answer)
