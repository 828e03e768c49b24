"""Unit tests for layout tools (sorting, shuffling, partitioning)."""

import numpy as np
import pytest

from repro.engine.layout import (
    layout_and_partition,
    partition_evenly,
    shuffle_table,
    sort_table,
)
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table
from repro.errors import ConfigError


@pytest.fixture
def table():
    schema = Schema.of(
        Column("a", ColumnKind.NUMERIC),
        Column("b", ColumnKind.NUMERIC),
    )
    gen = np.random.default_rng(0)
    return Table(schema, {"a": gen.permutation(100).astype(float),
                          "b": gen.integers(0, 5, 100).astype(float)})


class TestSort:
    def test_single_column_sort(self, table):
        out = sort_table(table, "a")
        assert np.all(np.diff(out.columns["a"]) >= 0)

    def test_multi_column_sort_primary_first(self, table):
        out = sort_table(table, ("b", "a"))
        b = out.columns["b"]
        assert np.all(np.diff(b) >= 0)
        # Within equal b, a must be ascending (stable secondary key).
        for value in np.unique(b):
            segment = out.columns["a"][b == value]
            assert np.all(np.diff(segment) >= 0)

    def test_unknown_column_rejected(self, table):
        with pytest.raises(Exception):
            sort_table(table, "zzz")

    def test_empty_keys_rejected(self, table):
        with pytest.raises(ConfigError):
            sort_table(table, ())


class TestShuffleAndPartition:
    def test_shuffle_permutes(self, table):
        out = shuffle_table(table, np.random.default_rng(1))
        assert sorted(out.columns["a"]) == sorted(table.columns["a"])
        assert not np.array_equal(out.columns["a"], table.columns["a"])

    def test_partition_evenly_sizes(self, table):
        pt = partition_evenly(table, 7)
        sizes = np.diff(pt.boundaries)
        assert sizes.sum() == 100
        assert sizes.max() - sizes.min() <= 1

    def test_more_partitions_than_rows_rejected(self, table):
        with pytest.raises(ConfigError):
            partition_evenly(table, 101)

    def test_layout_and_partition_mutually_exclusive(self, table):
        with pytest.raises(ConfigError):
            layout_and_partition(table, 4, sort_by="a", shuffle=True)

    def test_layout_and_partition_shuffle_needs_rng(self, table):
        with pytest.raises(ConfigError):
            layout_and_partition(table, 4, shuffle=True)

    def test_layout_keeps_ingest_order_by_default(self, table):
        pt = layout_and_partition(table, 4)
        np.testing.assert_array_equal(pt.table.columns["a"], table.columns["a"])
