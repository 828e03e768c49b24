"""Unit tests for Table / Partition / PartitionedTable."""

import numpy as np
import pytest

from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import PartitionedTable, Table
from repro.errors import SchemaError


@pytest.fixture
def schema():
    return Schema.of(
        Column("x", ColumnKind.NUMERIC),
        Column("c", ColumnKind.CATEGORICAL),
        Column("d", ColumnKind.DATE),
    )


@pytest.fixture
def table(schema):
    return Table(
        schema,
        {
            "x": np.arange(10, dtype=np.float64),
            "c": np.array(list("aabbccddee")),
            "d": np.arange(10),
        },
    )


class TestTable:
    def test_num_rows(self, table):
        assert table.num_rows == 10
        assert len(table) == 10

    def test_missing_column_rejected(self, schema):
        with pytest.raises(SchemaError, match="mismatch"):
            Table(schema, {"x": np.zeros(3)})

    def test_ragged_columns_rejected(self, schema):
        with pytest.raises(SchemaError, match="ragged"):
            Table(
                schema,
                {"x": np.zeros(3), "c": np.array(["a"] * 4), "d": np.arange(3)},
            )

    def test_integer_numeric_coerced_to_float(self, schema):
        t = Table(
            schema,
            {"x": np.arange(3), "c": np.array(["a"] * 3), "d": np.arange(3)},
        )
        assert t.columns["x"].dtype == np.float64

    def test_string_dtype_required_for_categorical(self, schema):
        with pytest.raises(SchemaError, match="strings"):
            Table(
                schema,
                {"x": np.zeros(3), "c": np.zeros(3), "d": np.arange(3)},
            )

    def test_date_requires_integers(self, schema):
        with pytest.raises(SchemaError, match="integer"):
            Table(
                schema,
                {"x": np.zeros(3), "c": np.array(["a"] * 3), "d": np.zeros(3)},
            )

    def test_take_reorders(self, table):
        reordered = table.take(np.array([2, 0, 1]))
        np.testing.assert_array_equal(reordered.columns["x"], [2.0, 0.0, 1.0])
        assert table.columns["x"][0] == 0.0  # original untouched


class TestPartitionedTable:
    def test_even_partitioning(self, table):
        pt = PartitionedTable(table, (0, 5, 10))
        assert pt.num_partitions == 2
        assert [len(p) for p in pt] == [5, 5]
        np.testing.assert_array_equal(pt[1].column("x"), np.arange(5, 10))

    def test_partition_views_are_zero_copy(self, table):
        pt = PartitionedTable(table, (0, 5, 10))
        view = pt[0].column("x")
        assert view.base is table.columns["x"]

    def test_bad_boundaries_rejected(self, table):
        with pytest.raises(SchemaError):
            PartitionedTable(table, (0, 5))  # does not reach num_rows
        with pytest.raises(SchemaError):
            PartitionedTable(table, (0, 5, 5, 10))  # empty partition

    def test_partition_sizes(self, table):
        pt = PartitionedTable(table, (0, 3, 10))
        assert [len(partition) for partition in pt] == [3, 7]
