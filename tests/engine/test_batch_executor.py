"""Unit tests for the fused-view batch executor."""

import numpy as np
import pytest
from scalar_oracle import execute_on_partition

from repro.engine.aggregates import avg_of, count_star, sum_of
from repro.engine.batch_executor import BatchExecutor, FusedTableView, fused_view
from repro.engine.expressions import col
from repro.engine.layout import append_rows, partition_evenly
from repro.engine.predicates import And, Comparison, Contains, InSet, Not, Or
from repro.engine.query import Query
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table

SCHEMA = Schema.of(
    Column("x", ColumnKind.NUMERIC, positive=True),
    Column("y", ColumnKind.NUMERIC),
    Column("d", ColumnKind.DATE),
    Column("cat", ColumnKind.CATEGORICAL, low_cardinality=True),
    Column("tag", ColumnKind.CATEGORICAL),
)


def _make_ptable(num_rows=977, num_partitions=13, seed=5):
    rng = np.random.default_rng(seed)
    table = Table(
        SCHEMA,
        {
            "x": rng.exponential(10.0, num_rows) + 1.0,
            "y": rng.normal(0.0, 5.0, num_rows),
            "d": rng.integers(0, 90, num_rows),
            "cat": rng.choice(["a", "b", "c", "dd"], num_rows),
            "tag": rng.choice([f"t{i:02d}" for i in range(40)], num_rows),
        },
    )
    return partition_evenly(table, num_partitions)


QUERIES = [
    Query([count_star()]),
    Query([sum_of(col("x")), avg_of(col("y")), count_star()]),
    Query([sum_of(col("x"))], Comparison("x", ">", 8.0)),
    Query([count_star()], InSet("cat", {"a", "c"}), ("cat",)),
    Query(
        [sum_of(col("x") + col("y")), count_star()],
        And([Comparison("d", "<=", 60.0), Not(InSet("cat", {"dd"}))]),
        ("cat", "d"),
    ),
    Query([avg_of(col("y"))], Or([Contains("tag", "t1"), Comparison("y", ">", 4.0)])),
    Query([count_star()], Comparison("x", ">", 1e12)),  # filters everything
    Query([sum_of(col("y"))], None, ("tag",)),
]


def _assert_bitwise_equal(batch, scalar):
    assert len(batch) == len(scalar)
    for b, s in zip(batch, scalar):
        assert list(b.keys()) == list(s.keys())
        for key in s:
            assert b[key].tobytes() == s[key].tobytes(), (key, b[key], s[key])


class TestFusedView:
    def test_layout(self):
        ptable = _make_ptable()
        view = fused_view(ptable)
        np.testing.assert_array_equal(view.offsets, np.asarray(ptable.boundaries))
        assert view.num_partitions == ptable.num_partitions
        assert view.num_rows == ptable.num_rows
        for p in ptable:
            assert (view.partition_ids[p.start : p.stop] == p.index).all()

    def test_columns_are_zero_copy(self):
        ptable = _make_ptable()
        view = fused_view(ptable)
        for name, arr in view.columns.items():
            assert arr is ptable.table.columns[name]

    def test_cached_on_the_table(self):
        ptable = _make_ptable()
        assert fused_view(ptable) is fused_view(ptable)
        assert BatchExecutor.for_table(ptable) is BatchExecutor.for_table(ptable)

    def test_incremental_extension_matches_fresh_build(self):
        ptable = _make_ptable(num_rows=300, num_partitions=6)
        prior = fused_view(ptable)
        rng = np.random.default_rng(9)
        appended = append_rows(
            ptable,
            {
                "x": rng.exponential(10.0, 25) + 1.0,
                "y": rng.normal(0.0, 5.0, 25),
                "d": rng.integers(0, 90, 25),
                "cat": rng.choice(["a", "b"], 25),
                "tag": rng.choice(["t00", "t01"], 25),
            },
        )
        extended = FusedTableView.build(appended, prior=prior)
        fresh = FusedTableView.build(appended)
        np.testing.assert_array_equal(extended.offsets, fresh.offsets)
        np.testing.assert_array_equal(extended.partition_ids, fresh.partition_ids)
        assert extended.num_partitions == appended.num_partitions
        # The prefix is reused, not recomputed.
        assert (
            extended.partition_ids[: prior.num_rows].base is not None
            or extended.num_rows == prior.num_rows
        )

    def test_unrelated_prior_is_ignored(self):
        small = _make_ptable(num_rows=120, num_partitions=4)
        big = _make_ptable(num_rows=700, num_partitions=9, seed=6)
        view = FusedTableView.build(big, prior=fused_view(small))
        np.testing.assert_array_equal(
            view.partition_ids, FusedTableView.build(big).partition_ids
        )


class TestBatchAnswers:
    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.label())
    def test_matches_scalar_oracle_bitwise(self, query):
        ptable = _make_ptable()
        batch = BatchExecutor.for_table(ptable).partition_answers(query)
        scalar = [execute_on_partition(p, query) for p in ptable]
        _assert_bitwise_equal(batch, scalar)

    def test_single_partition_table(self):
        ptable = _make_ptable(num_rows=50, num_partitions=1)
        for query in QUERIES:
            _assert_bitwise_equal(
                BatchExecutor.for_table(ptable).partition_answers(query),
                [execute_on_partition(p, query) for p in ptable],
            )

    def test_single_row_partitions(self):
        ptable = _make_ptable(num_rows=7, num_partitions=7)
        for query in QUERIES:
            _assert_bitwise_equal(
                BatchExecutor.for_table(ptable).partition_answers(query),
                [execute_on_partition(p, query) for p in ptable],
            )

    def test_sparse_segment_path(self):
        # Group-by over a near-unique float column forces the compacted
        # (np.unique) segmented reduction instead of the dense grid.
        ptable = _make_ptable(num_rows=600, num_partitions=8)
        query = Query([sum_of(col("x")), count_star()], None, ("y", "cat"))
        _assert_bitwise_equal(
            BatchExecutor.for_table(ptable).partition_answers(query),
            [execute_on_partition(p, query) for p in ptable],
        )


class TestSubsetExecution:
    def test_selected_partitions_only(self):
        ptable = _make_ptable()
        executor = BatchExecutor.for_table(ptable)
        subset = [11, 0, 4, 4, 12]
        for query in QUERIES:
            answers = executor.partition_answers(query, partitions=subset)
            assert len(answers) == len(subset)
            for i, p in enumerate(subset):
                expected = execute_on_partition(ptable[p], query)
                assert list(answers[i].keys()) == list(expected.keys())
                for key in expected:
                    assert answers[i][key].tobytes() == expected[key].tobytes()

    def test_empty_selection(self):
        ptable = _make_ptable()
        executor = BatchExecutor.for_table(ptable)
        assert executor.partition_answers(QUERIES[1], partitions=[]) == []
        # ``np.asarray([])`` is float64: an empty selection has no id to refuse.
        for empty in (np.asarray([]), ()):
            assert executor.partition_answers(QUERIES[2], partitions=empty) == []
