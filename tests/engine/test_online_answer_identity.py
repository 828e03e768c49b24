"""Online answers against the dict walk, byte for byte, on hostile inputs.

Every online route (``PS3.query``, ``query_many``, ``serve().submit`` and
``answer_with_selection``) combines on the answer block's arrays. Each
answer must equal the section 2.4 dict walk (``tests/dict_walk.py``)
over the full table's per-partition answers for the same selection:
``tobytes()`` of every value vector and ``repr`` of the key list, so the
keys' insertion order, a NaN key and the sign of a zero all count.

The inputs are the ones an array kernel gets wrong first: a SUM over a
column of ``-0.0``; a group present only with zero totals; zero weights
(AVG over a combined count of 0, and ``-0.0`` terms from ``0.0 * x`` for
negative ``x``); subnormal weights whose products underflow to signed
zeros; a partition chosen more than once; a predicate nothing passes;
ungrouped queries; and a two-column group-by with a NaN key.
"""

from __future__ import annotations

import numpy as np
import pytest
from dict_walk import estimate
from serving_plug import plugged

from repro.api import PS3, answer_with_selection
from repro.core.picker import PickerSelection
from repro.engine.aggregates import avg_of, count_star, sum_of
from repro.engine.batch_executor import BatchExecutor
from repro.engine.combiner import WeightedChoice
from repro.engine.expressions import col
from repro.engine.layout import partition_evenly
from repro.engine.predicates import Comparison
from repro.engine.query import Query
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table
from repro.workload import WorkloadSpec

SCHEMA = Schema.of(
    Column("x", ColumnKind.NUMERIC, positive=True),
    Column("y", ColumnKind.NUMERIC),
    Column("negz", ColumnKind.NUMERIC),
    Column("zed", ColumnKind.NUMERIC),
    Column("k", ColumnKind.NUMERIC),
    Column("cat", ColumnKind.CATEGORICAL, low_cardinality=True),
)
WORKLOAD = WorkloadSpec(
    groupby_universe=("cat", "k"),
    aggregate_columns=("x", "y", "negz", "zed"),
    predicate_columns=("x", "y", "cat"),
)
NUM_PARTITIONS = 8
BUDGET = 4

NOTHING = Comparison("x", ">", 1e12)
QUERIES = [
    Query([sum_of(col("negz")), count_star()], None, ("cat",)),
    Query([sum_of(col("negz")), avg_of(col("negz"))]),
    Query([sum_of(col("zed"))], None, ("cat",)),
    Query([sum_of(col("zed")), avg_of(col("zed"))], Comparison("cat", "==", "z")),
    Query([sum_of(col("x")), count_star()], NOTHING, ("cat",)),
    Query([count_star(), avg_of(col("y"))], NOTHING),
    Query([sum_of(col("y")), avg_of(col("x"))]),
    Query([avg_of(col("y")), sum_of(col("y"))], None, ("cat",)),
    Query([avg_of(col("y")), count_star()], Comparison("x", ">", 1.5), ("cat", "k")),
    Query([sum_of(col("y") * col("x"))], Comparison("y", "<", 0.0), ("k", "cat")),
]


def choices(*pairs):
    return [WeightedChoice(p, w) for p, w in pairs]


PLAIN = choices((0, 1.0), (3, 2.5), (5, 0.75))
SELECTIONS = {
    "plain": PLAIN,
    "reversed": PLAIN[::-1],
    "duplicates": choices((2, 1.0), (6, 2.0), (2, 3.5), (2, 0.25)),
    "zero_weights": choices((1, 0.0), (4, 0.0)),
    "zero_beside_positive": choices((1, 0.0), (4, 1.5), (1, 0.0), (7, 0.0)),
    "subnormal_weights": choices((3, 5e-324), (7, 5e-324), (0, 5e-324)),
    "empty": [],
}


@pytest.fixture(scope="module")
def system():
    rng = np.random.default_rng(31)
    n = NUM_PARTITIONS * 40
    cat = rng.choice(["a", "b", "z"], n)
    k = rng.integers(0, 3, n).astype(np.float64)
    k[rng.random(n) < 0.15] = np.nan
    table = Table(
        SCHEMA,
        {
            "x": rng.exponential(2.0, n) + 1.0,
            "y": rng.normal(0.0, 0.4, n),
            "negz": np.full(n, -0.0),
            "zed": np.where(cat == "z", 0.0, rng.normal(0.0, 3.0, n)),
            "k": k,
            "cat": cat,
        },
    )
    ptable = partition_evenly(table, NUM_PARTITIONS)
    assert np.isnan(k).any()
    return PS3(ptable, WORKLOAD)


class _CannedPicker:
    """Every request gets the same selection: routes stay comparable."""

    def __init__(self, selection) -> None:
        self.picked = PickerSelection(selection)

    def select(self, query, budget):
        return self.picked


def walk(ptable, query, selection):
    """The oracle: the dict walk over the full table's answers."""
    full = BatchExecutor.for_table(ptable).partition_answers(query)
    return estimate(query, [full[p] for p in range(len(full))], selection)


def assert_identical(actual, expected, context):
    assert repr(list(actual)) == repr(list(expected)), context
    for got, want in zip(actual.values(), expected.values()):
        assert got.tobytes() == want.tobytes(), (context, got, want)


@pytest.mark.parametrize("name", sorted(SELECTIONS))
def test_every_route_matches_the_walk(system, name):
    selection = SELECTIONS[name]
    ptable = system.ptable
    expected = [walk(ptable, query, selection) for query in QUERIES]
    system._picker = _CannedPicker(selection)
    try:
        single = [system.query(q, budget_partitions=BUDGET) for q in QUERIES]
        many = system.query_many(QUERIES, budget_partitions=BUDGET)
        with system.serve() as front:
            with plugged(front):  # every query queued at once
                futures = [front.submit(q, budget_partitions=BUDGET) for q in QUERIES]
            served = [future.result(timeout=60) for future in futures]
    finally:
        system._picker = None
    for i, query in enumerate(QUERIES):
        context = (name, i, query)
        assert_identical(single[i].groups, expected[i], ("query",) + context)
        assert_identical(many[i].groups, expected[i], ("query_many",) + context)
        assert_identical(served[i].groups, expected[i], ("serve",) + context)
        helper = answer_with_selection(ptable, query, selection)
        assert_identical(helper, expected[i], ("helper",) + context)


def test_hostile_cases_are_reached(system):
    """Guard the guard: the inputs produce what the tests are about."""
    ptable = system.ptable
    grouped_negz, __, zero_group, __, nothing, nothing_flat, *__ = QUERIES
    nan_query = QUERIES[8]
    signed_zeros = 0
    for query in QUERIES:
        for selection in SELECTIONS.values():
            for values in walk(ptable, query, selection).values():
                signed_zeros += int(np.any(np.signbit(values) & (values == 0.0)))
    assert signed_zeros > 0  # some walk total is -0.0
    zeros = walk(ptable, zero_group, PLAIN)[("z",)]
    assert zeros.tobytes() == np.zeros(1).tobytes()
    assert walk(ptable, nothing, PLAIN) == {} == walk(ptable, nothing_flat, PLAIN)
    avg_zero = walk(ptable, QUERIES[7], SELECTIONS["zero_weights"])
    assert avg_zero and all(v[0] == 0.0 for v in avg_zero.values())
    nan_keys = [key for key in walk(ptable, nan_query, PLAIN) if key[1] != key[1]]
    assert len(nan_keys) >= 2  # one NaN group per category, merged across rows
    assert walk(ptable, grouped_negz, PLAIN)
