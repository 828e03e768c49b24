"""Differential suite: a subset execution equals the full view, row by row.

``BatchExecutor.partition_answers(query, partitions=ids)`` reads each
selected partition as one row range of the fused table and gathers by
row id only after the mask. Whatever the read does, row ``i`` of the
block must be byte-for-byte the full-view block's row for partition
``ids[i]`` (``partitions=None``), keys in the same order. The cases are
the ones where range bookkeeping goes wrong: adjacent, unsorted and
duplicate ids, one partition, every partition backwards, no predicate,
a predicate that keeps nothing or everything, string ``IN`` / substring
filters under a string GROUP BY, and ``Not`` / ``Or`` trees — on a
table as built and on one grown by appends (whose columns are views of
spare-row buffers).
"""

import numpy as np
import pytest

from repro.engine.aggregates import avg_of, count_star, sum_of
from repro.engine.batch_executor import BatchExecutor
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


def _columns(rng, num_rows):
    return {
        "x": rng.exponential(10.0, num_rows) + 1.0,
        "y": rng.normal(0.0, 5.0, num_rows),
        "d": rng.integers(0, 90, num_rows),
        "cat": rng.choice(["a", "b", "c", "dd"], num_rows),
        "tag": rng.choice([f"t{i:02d}" for i in range(40)], num_rows),
    }


def _built():
    rng = np.random.default_rng(17)
    return partition_evenly(Table(SCHEMA, _columns(rng, 1009)), 13)


def _appended():
    rng = np.random.default_rng(23)
    ptable = _built()
    for size in (41, 1, 67):  # three sealed batches: partitions 13..15
        ptable = append_rows(ptable, _columns(rng, size))
    assert [len(p) for p in ptable][-3:] == [41, 1, 67]
    return ptable


TABLES = {"built": _built, "appended": _appended}

# Partition ids as a function of the table's partition count.
SELECTIONS = {
    "adjacent": lambda n: [3, 4, 5, 6],
    "unsorted": lambda n: [9, 2, 7, 0, 5],
    "duplicates": lambda n: [4, 4, 11, 4, 0, 11],
    "one": lambda n: [6],
    "all_reversed": lambda n: list(range(n))[::-1],
    "last_four_shuffled": lambda n: [n - 1, n - 3, n - 2, n - 4],
}

KEEPS_NOTHING = Comparison("x", ">", 1e12)
KEEPS_EVERYTHING = Comparison("x", ">", 0.0)  # x is exponential + 1

QUERIES = {
    "unfiltered_ungrouped": Query([sum_of(col("x")), avg_of(col("y")), count_star()]),
    "unfiltered_grouped": Query([sum_of(col("y")), count_star()], None, ("tag", "cat")),
    "keeps_nothing_grouped": Query(
        [sum_of(col("x")), count_star()], KEEPS_NOTHING, ("cat",)
    ),
    "keeps_nothing_ungrouped": Query([sum_of(col("x"))], KEEPS_NOTHING),
    "keeps_everything_grouped": Query(
        [avg_of(col("y")), count_star()], KEEPS_EVERYTHING, ("cat", "d")
    ),
    "keeps_everything_ungrouped": Query(
        [sum_of(col("x") * col("y")), count_star()], KEEPS_EVERYTHING
    ),
    "inset_by_string": Query(
        [sum_of(col("x")), count_star()],
        InSet("tag", {"t03", "t17", "t31"}),
        ("cat",),
    ),
    "contains_by_string": Query(
        [avg_of(col("x")), count_star()], Contains("tag", "1"), ("tag",)
    ),
    "not_or_tree": Query(
        [sum_of(col("x") + col("y")), count_star()],
        Not(
            Or(
                [
                    InSet("cat", {"dd"}),
                    And([Comparison("d", "<", 30.0), Contains("tag", "2")]),
                ]
            )
        ),
        ("cat",),
    ),
    "or_of_nots_ungrouped": Query(
        [avg_of(col("y"))],
        Or([Not(Comparison("y", "<=", 2.0)), Not(InSet("cat", {"a", "b", "c"}))]),
    ),
}


@pytest.fixture(scope="module", params=sorted(TABLES))
def executor_and_table(request):
    ptable = TABLES[request.param]()
    return BatchExecutor.for_table(ptable), ptable


def _assert_rows_match_full_view(block, full, partitions):
    assert len(block) == len(partitions)
    for i, (row, p) in enumerate(zip(block, partitions)):
        want = full[p]
        for got in (row, block[i]):  # iteration and indexing
            assert list(got) == list(want), (p, list(got), list(want))
            for key in want:
                assert got[key].tobytes() == want[key].tobytes(), (p, key)


@pytest.mark.parametrize("selection", sorted(SELECTIONS))
@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_subset_rows_equal_full_view_rows(executor_and_table, selection, query_name):
    executor, ptable = executor_and_table
    query = QUERIES[query_name]
    partitions = SELECTIONS[selection](ptable.num_partitions)
    full = executor.partition_answers(query)
    block = executor.partition_answers(query, partitions=partitions)
    _assert_rows_match_full_view(block, full, partitions)


def test_the_filters_keep_what_their_names_say(executor_and_table):
    __, ptable = executor_and_table
    columns = ptable.table.columns
    assert not KEEPS_NOTHING.mask(columns).any()
    assert KEEPS_EVERYTHING.mask(columns).all()
    for name in ("inset_by_string", "contains_by_string", "not_or_tree"):
        kept = QUERIES[name].predicate.mask(columns)
        assert 0 < kept.sum() < len(kept), name
