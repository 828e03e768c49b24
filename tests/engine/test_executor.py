"""Unit tests for the scalar per-partition executor (the tests' oracle)."""

import numpy as np
import pytest
from scalar_oracle import (
    execute_on_columns,
    execute_on_partition,
    execute_on_table,
    true_answer,
)

from repro.engine.aggregates import avg_of, count_star, sum_of
from repro.engine.expressions import col
from repro.engine.layout import partition_evenly
from repro.engine.predicates import Comparison, InSet
from repro.engine.query import Query
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table


@pytest.fixture
def table():
    schema = Schema.of(
        Column("v", ColumnKind.NUMERIC),
        Column("g", ColumnKind.CATEGORICAL),
        Column("h", ColumnKind.CATEGORICAL),
    )
    return Table(
        schema,
        {
            "v": np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            "g": np.array(["a", "a", "b", "b", "b", "c"]),
            "h": np.array(["x", "y", "x", "y", "x", "x"]),
        },
    )


class TestUngrouped:
    def test_global_sum_and_count(self, table):
        query = Query([sum_of(col("v")), count_star()])
        answer = execute_on_table(table, query)
        np.testing.assert_allclose(answer[()], [21.0, 6.0])

    def test_predicate_filters_rows(self, table):
        query = Query([sum_of(col("v"))], Comparison("v", ">", 3.0))
        answer = execute_on_table(table, query)
        np.testing.assert_allclose(answer[()], [15.0])

    def test_empty_result_is_empty_dict(self, table):
        query = Query([count_star()], Comparison("v", ">", 100.0))
        assert execute_on_table(table, query) == {}

    def test_zero_rows_input(self, table):
        query = Query([count_star()])
        empty = {name: arr[:0] for name, arr in table.columns.items()}
        assert execute_on_columns(empty, query) == {}


class TestGrouped:
    def test_single_group_by(self, table):
        query = Query([sum_of(col("v")), count_star()], group_by=("g",))
        answer = execute_on_table(table, query)
        np.testing.assert_allclose(answer[("a",)], [3.0, 2.0])
        np.testing.assert_allclose(answer[("b",)], [12.0, 3.0])
        np.testing.assert_allclose(answer[("c",)], [6.0, 1.0])

    def test_multi_column_group_by(self, table):
        query = Query([count_star()], group_by=("g", "h"))
        answer = execute_on_table(table, query)
        assert answer[("a", "x")][0] == 1.0
        assert answer[("b", "x")][0] == 2.0
        assert len(answer) == 5

    def test_group_keys_are_python_scalars(self, table):
        query = Query([count_star()], group_by=("g",))
        answer = execute_on_table(table, query)
        for key in answer:
            assert all(isinstance(part, str) for part in key)

    def test_group_by_with_predicate(self, table):
        query = Query(
            [sum_of(col("v"))], InSet("h", {"x"}), group_by=("g",)
        )
        answer = execute_on_table(table, query)
        np.testing.assert_allclose(answer[("b",)], [8.0])
        assert ("a",) in answer and ("c",) in answer


class TestAvgComponents:
    def test_avg_carries_sum_and_count(self, table):
        query = Query([avg_of(col("v"))], group_by=("g",))
        answer = execute_on_table(table, query)
        # Component layout: [SUM(v), COUNT]
        np.testing.assert_allclose(answer[("b",)], [12.0, 3.0])


class TestPartitionConsistency:
    def test_partition_answers_sum_to_true_answer(self, table):
        pt = partition_evenly(table, 3)
        query = Query([sum_of(col("v")), count_star()], group_by=("g",))
        answers = [execute_on_partition(p, query) for p in pt]
        combined: dict = {}
        for answer in answers:
            for key, vec in answer.items():
                combined[key] = combined.get(key, 0) + vec
        truth = true_answer(pt, query)
        assert set(combined) == set(truth)
        for key in truth:
            np.testing.assert_allclose(combined[key], truth[key])
