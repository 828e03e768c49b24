"""Differential suite for the one online route, ``answer_selections``.

Every ``(query, weighted selection)`` pair must come out byte-equal, in
the same key order, to the scalar composition built here from the
reference pieces: ``execute_on_partition`` per chosen partition →
``combine_answers`` → ``finalize_answer``. ``PS3.query``,
``PS3.query_many``, ``PS3.serve``, ``answer_with_selection`` and the CLI
all call ``answer_selections``, so the same selection must give the
same bytes through each of them.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from dict_walk import combine_answers, finalize_answer
from scalar_oracle import execute_on_partition

from repro.api import PS3, answer_with_selection
from repro.datasets.registry import get_dataset
from repro.engine.aggregates import avg_of, count_star, sum_of
from repro.engine.combiner import WeightedChoice
from repro.engine.expressions import col
from repro.engine.layout import partition_evenly
from repro.engine.predicates import Comparison, InSet
from repro.engine.query import Query
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.serving import answer_selections
from repro.engine.table import Table
from repro.errors import ConfigError
from repro.obs import get_registry, snapshot_delta
from repro.workload import QueryGenerator

SCHEMA = Schema.of(
    Column("x", ColumnKind.NUMERIC, positive=True),
    Column("y", ColumnKind.NUMERIC),
    Column("d", ColumnKind.DATE),
    Column("cat", ColumnKind.CATEGORICAL, low_cardinality=True),
)

HOT = Comparison("x", ">", 5.0)
QUERIES = {
    "grouped": Query([sum_of(col("x")), count_star()], HOT, ("cat",)),
    "avg": Query([avg_of(col("y")), sum_of(col("x") + col("y"))], HOT, ("cat",)),
    "two_columns": Query([count_star()], InSet("cat", {"a", "c"}), ("cat", "d")),
    "ungrouped": Query([sum_of(col("x") + col("y")), avg_of(col("x"))], None, ()),
    "empty_result": Query([sum_of(col("x"))], Comparison("y", ">", 1e9), ("cat",)),
    "empty_ungrouped": Query([count_star()], Comparison("y", ">", 1e9)),
}


@pytest.fixture(scope="module")
def ptable():
    rng = np.random.default_rng(8)
    n = 3000
    table = Table(
        SCHEMA,
        {
            "x": rng.exponential(10.0, n) + 1.0,
            "y": rng.normal(0.0, 5.0, n).round(3),
            "d": rng.integers(0, 40, n),
            "cat": rng.choice(["a", "b", "c", "dd"], n),
        },
    )
    return partition_evenly(table, 12)


def scalar_answer(ptable, query, selection):
    """The reference: one scalar execution per chosen partition."""
    answers = [execute_on_partition(ptable[c.partition], query) for c in selection]
    return finalize_answer(query, combine_answers(answers, selection))


def assert_same_answer(actual, expected, context=""):
    assert list(actual.keys()) == list(expected.keys()), context
    for key in expected:
        assert actual[key].tobytes() == expected[key].tobytes(), (context, key)


def choices(*pairs):
    return [WeightedChoice(p, w) for p, w in pairs]


class TestAgainstScalarComposition:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_random_selections(self, ptable, name):
        rng = np.random.default_rng(17)
        pairs = []
        for __ in range(6):
            k = int(rng.integers(1, 7))
            parts = rng.choice(ptable.num_partitions, size=k, replace=False)
            weights = rng.uniform(0.5, 3.0, size=k).round(3)
            pairs.append(
                (QUERIES[name], choices(*zip(map(int, parts), map(float, weights))))
            )
        finals = answer_selections(ptable, pairs)
        assert len(finals) == len(pairs)
        for (query, selection), final in zip(pairs, finals):
            assert_same_answer(final, scalar_answer(ptable, query, selection), name)

    def test_empty_results_are_empty(self, ptable):
        selection = choices((0, 1.0), (5, 2.0))
        for name in ("empty_result", "empty_ungrouped"):
            assert answer_selections(ptable, [(QUERIES[name], selection)]) == [{}]

    def test_no_pairs(self, ptable):
        assert answer_selections(ptable, []) == []

    def test_empty_selection_beside_a_full_one(self, ptable):
        query = QUERIES["ungrouped"]
        selection = choices((3, 1.5))
        finals = answer_selections(ptable, [(query, []), (query, selection)])
        assert finals[0] == {}
        assert_same_answer(finals[1], scalar_answer(ptable, query, selection))

    @pytest.mark.parametrize("name", ["grouped", "ungrouped"])
    def test_partition_repeated_inside_one_selection(self, ptable, name):
        query = QUERIES[name]
        selection = choices((4, 1.0), (9, 0.5), (4, 2.25))
        (final,) = answer_selections(ptable, [(query, selection)])
        assert_same_answer(final, scalar_answer(ptable, query, selection))

    @pytest.mark.parametrize("name", ["avg", "ungrouped"])
    def test_permuted_selection_order(self, ptable, name):
        """Each order is its own float chain and its own key insertion
        order; both must follow the scalar walk of *that* order."""
        query = QUERIES[name]
        forward = choices((11, 0.7), (2, 1.9), (6, 1.1), (0, 2.3))
        backward = forward[::-1]
        finals = answer_selections(ptable, [(query, forward), (query, backward)])
        assert_same_answer(finals[0], scalar_answer(ptable, query, forward))
        assert_same_answer(finals[1], scalar_answer(ptable, query, backward))

    def test_equal_pairs_share_nothing_the_caller_can_see(self, ptable):
        query = QUERIES["grouped"]
        selection = choices((1, 1.5), (7, 0.5))
        first, second = answer_selections(
            ptable, [(query, selection), (query, list(selection))]
        )
        expected = scalar_answer(ptable, query, selection)
        assert_same_answer(first, expected)
        assert_same_answer(second, expected)
        assert first is not second
        for key in first:
            assert not np.shares_memory(first[key], second[key])
            first[key] += 1.0
        assert_same_answer(second, expected, "mutating one answer leaked")

    def test_same_partitions_different_weights(self, ptable):
        """Equal (query, partition tuple): one execution, two combines."""
        query = QUERIES["avg"]
        light = choices((1, 1.0), (7, 1.0))
        heavy = choices((1, 3.0), (7, 0.25))
        finals = answer_selections(ptable, [(query, light), (query, heavy)])
        assert_same_answer(finals[0], scalar_answer(ptable, query, light))
        assert_same_answer(finals[1], scalar_answer(ptable, query, heavy))


class TestHostileSelections:
    """Regressions: each of these misbehaved silently or untyped."""

    def test_negative_partition_is_rejected(self):
        # Was: ``ValueError: negative dimensions`` on the batched path,
        # a silent answer from the *last* partition on the scalar one.
        with pytest.raises(ConfigError, match="negative partition"):
            WeightedChoice(-1, 1.0)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -0.5])
    def test_non_finite_or_negative_weight_is_rejected(self, weight):
        # Was: nan passed (``nan < 0`` is false) and gave an all-NaN answer.
        with pytest.raises(ConfigError, match="weight"):
            WeightedChoice(0, weight)

    def test_partition_past_the_table_is_rejected(self, ptable):
        # Was: a bare IndexError out of the gather.
        bad = choices((ptable.num_partitions, 1.0))
        with pytest.raises(ConfigError, match="outside"):
            answer_selections(ptable, [(QUERIES["grouped"], bad)])
        with pytest.raises(ConfigError, match="outside"):
            answer_with_selection(ptable, QUERIES["grouped"], bad)


class _CannedPicker:
    """Hands every request the same selection, so routes are comparable."""

    def __init__(self, selection) -> None:
        self.selection = selection

    def select(self, query, budget):
        return self.selection


@pytest.fixture(scope="module")
def fitted():
    spec = get_dataset("kdd")
    ptable = spec.build(3000, 12, seed=4)
    workload = spec.workload()
    train, test = QueryGenerator(workload, ptable.table, seed=6).train_test_split(
        10, 4
    )
    return PS3(ptable, workload).fit(train), spec, test


class TestEveryRouteIsTheSameRoute:
    def test_query_query_many_serve_and_helper_agree(self, fitted):
        system, __, test = fitted
        query = test[0]
        picked = system.picker.select(query, 4)
        original, system._picker = system._picker, _CannedPicker(picked)
        try:
            direct = system.query(query, budget_partitions=4)
            many = system.query_many([query, query], budget_partitions=4)
            with system.serve() as front:
                served = front.query(query, budget_partitions=4)
        finally:
            system._picker = original
        helper = answer_with_selection(system.ptable, query, picked.selection)
        expected = scalar_answer(system.ptable, query, picked.selection)
        assert expected  # a non-trivial answer, not six empty dicts
        for route in (direct, many[0], many[1], served):
            assert route.selection is picked
            assert_same_answer(route.groups, expected)
        assert_same_answer(helper, expected)

    def test_selection_picked_before_append_executes_on_its_table(
        self, fitted, monkeypatch
    ):
        """The pick and the table are captured under one lock hold and
        execution runs outside it: an append that lands in between (here
        from another thread, which would deadlock if execution still
        held the lock) does not change the table the answer is read
        from."""
        import repro.api as api

        __, spec, test = fitted
        ptable = spec.build(2400, 8, seed=13)
        workload = spec.workload()
        train = QueryGenerator(workload, ptable.table, seed=3).sample_queries(8)
        system = PS3(ptable, workload).fit(train)
        rows = dict(spec.generate(200, 500).columns)
        executed_on = []

        def append_then_answer(table, pairs):
            appender = threading.Thread(target=system.append, args=(rows,))
            appender.start()
            appender.join(timeout=30)
            assert not appender.is_alive(), "execution ran under the state lock"
            executed_on.append(table)
            return answer_selections(table, pairs)

        monkeypatch.setattr(api, "answer_selections", append_then_answer)
        answer = system.query(test[1], budget_fraction=0.5)
        assert executed_on == [ptable]
        assert system.ptable is not ptable
        assert system.ptable.num_partitions == ptable.num_partitions + 1
        assert answer.num_partitions == ptable.num_partitions
        assert_same_answer(
            answer.groups,
            scalar_answer(ptable, answer.query, answer.selection.selection),
        )
        # The appended partition exists only in the newer generation.
        newest = choices((ptable.num_partitions, 1.0))
        with pytest.raises(ConfigError):
            answer_selections(ptable, [(test[1], newest)])
        assert answer_selections(system.ptable, [(test[1], newest)])


class TestSweepSpan:
    def test_tags_count_queries_and_partitions(self, ptable):
        seen = []

        class Recorder:
            def on_span_start(self, span):
                pass

            def on_span_end(self, span):
                seen.append((span.stage, dict(span.tags)))

        query, other = QUERIES["grouped"], QUERIES["ungrouped"]
        shared = choices((1, 1.0), (7, 2.0))
        pairs = [(query, shared), (query, list(shared)), (other, choices((3, 1.0)))]
        registry = get_registry()
        recorder = Recorder()
        registry.add_profiler(recorder)
        before = registry.snapshot()
        try:
            answer_selections(ptable, pairs)
        finally:
            registry.remove_profiler(recorder)
        delta = snapshot_delta(before, registry.snapshot())
        assert delta["counters"]["engine.sweep.calls"] == 1
        assert seen == [
            ("engine.sweep", {"queries": 3, "partitions": 5})
        ]
