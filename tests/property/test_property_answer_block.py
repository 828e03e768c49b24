"""Property tests: the executor's answer block, read every way it is read.

Random multi-query workloads are drawn with *deliberately overlapping*
predicates and group-bys (leaves and grouping tuples come from small
pools, so dictionary encodings are reused across the workload's
queries). For every workload:

* each block's arrays (``keys`` / ``live_groups`` / ``totals`` /
  ``cuts``) must spell the scalar oracle's per-partition answers at full
  floating-point identity, key order included;
* what the table's view remembers between queries (the per-column
  dictionary encodings) must be *invisible*: answering the workload on
  one table object and answering each query on a fresh one must give
  identical bits;
* array-path contributions must match the dict-walk reference;
* a partition subset — shuffled, with duplicates, or empty — must answer
  position ``i`` exactly as the full pass answers partition ``s[i]``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracle import execute_on_partition, partition_contributions

from repro.engine.aggregates import avg_of, count_star, sum_of
from repro.engine.batch_executor import BatchExecutor
from repro.engine.expressions import col
from repro.engine.layout import partition_evenly
from repro.engine.predicates import And, Comparison, Contains, InSet, Not, Or
from repro.engine.query import Query
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table

SCHEMA = Schema.of(
    Column("v", ColumnKind.NUMERIC),
    Column("w", ColumnKind.NUMERIC),
    Column("t", ColumnKind.DATE),
    Column("g", ColumnKind.CATEGORICAL, low_cardinality=True),
    Column("s", ColumnKind.CATEGORICAL),
)


@st.composite
def tables(draw):
    n = draw(st.integers(4, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    return Table(
        SCHEMA,
        {
            "v": rng.normal(0, 100, n).round(2),
            "w": rng.exponential(10, n).round(2),
            "t": rng.integers(0, 20, n),
            "g": rng.choice(["a", "b", "c", "d", "e"], n),
            "s": rng.choice([f"s{i:02d}" for i in range(10)], n),
        },
    )


#: Small pools on purpose: drawing from them makes leaves, predicates,
#: and group-bys collide across the workload's queries.
_LEAVES = [
    Comparison("v", ">", 0.0),
    Comparison("v", "<=", 25.0),
    Comparison("w", "<", 10.0),
    Comparison("t", ">=", 10.0),
    Comparison("t", "==", 7.0),
    InSet("g", {"a", "c"}),
    InSet("g", {"e"}),
    Contains("s", "s0"),
]

_AGGREGATES = [
    sum_of(col("v")),
    sum_of(col("w")),
    avg_of(col("w")),
    avg_of(col("v")),
    count_star(),
    sum_of(col("v") + col("w")),
    sum_of(col("v") * 2.0 - 1.0),
]

_GROUP_BYS = [(), ("g",), ("t",), ("g", "t"), ("t", "g"), ("v",), ("g", "s")]


@st.composite
def predicates(draw):
    shape = draw(st.integers(0, 3))
    if shape == 0:
        return draw(st.sampled_from(_LEAVES))
    children = draw(st.lists(st.sampled_from(_LEAVES), min_size=1, max_size=3))
    if shape == 1:
        return And(children)
    if shape == 2:
        return Or(children)
    return Not(draw(st.sampled_from(_LEAVES)))


@st.composite
def queries(draw):
    aggregates = draw(
        st.lists(st.sampled_from(_AGGREGATES), min_size=1, max_size=3)
    )
    predicate = draw(st.one_of(st.none(), predicates()))
    group_by = draw(st.sampled_from(_GROUP_BYS))
    return Query(aggregates, predicate, group_by)


@st.composite
def workloads(draw):
    """2..8 queries, with a chance of literal duplicates appended."""
    base = draw(st.lists(queries(), min_size=2, max_size=6))
    duplicates = draw(
        st.lists(st.sampled_from(base), min_size=0, max_size=2)
    )
    return base + duplicates


def assert_bitwise_equal(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert list(a.keys()) == list(e.keys())
        for key in e:
            assert a[key].tobytes() == e[key].tobytes(), (key, a[key], e[key])


def answers(ptable, query, partitions=None):
    return BatchExecutor.for_table(ptable).partition_answers(query, partitions)


@pytest.mark.slow
class TestBlockOracleParity:
    @given(tables(), workloads(), st.integers(1, 8))
    @settings(max_examples=120, deadline=None)
    def test_block_arrays_equal_scalar_oracle(self, table, workload, num_partitions):
        num_partitions = min(num_partitions, table.num_rows)
        ptable = partition_evenly(table, num_partitions)
        for query in workload:
            block = answers(ptable, query)
            scalar = [execute_on_partition(p, query) for p in ptable]
            assert_bitwise_equal(block, scalar)
            assert len(block.cuts) == num_partitions + 1
            for p, answer in enumerate(scalar):
                run = slice(block.cuts[p], block.cuts[p + 1])
                keys = [block.keys[g] for g in block.live_groups[run]]
                assert keys == list(answer)
                stacked = b"".join(vec.tobytes() for vec in answer.values())
                assert block.totals[run].tobytes() == stacked

    @given(tables(), workloads(), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_answers_independent_of_prior_queries(
        self, table, workload, num_partitions
    ):
        """Encodings carried on the view never change any result."""
        num_partitions = min(num_partitions, table.num_rows)
        shared = partition_evenly(table, num_partitions)
        # The pools guarantee overlap often enough for encodings to be
        # genuinely reused; when they are, it must be invisible.
        for query in workload:
            warm = answers(shared, query)
            cold = answers(partition_evenly(table, num_partitions), query)
            assert_bitwise_equal(warm, cold)
            assert warm.live.tobytes() == cold.live.tobytes()
            assert warm.contributions().tobytes() == cold.contributions().tobytes()

    @given(tables(), workloads(), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_contributions_match_dict_walk(self, table, workload, num_partitions):
        num_partitions = min(num_partitions, table.num_rows)
        ptable = partition_evenly(table, num_partitions)
        for query in workload:
            block = answers(ptable, query)
            reference = partition_contributions(list(block))
            assert block.contributions().tobytes() == reference.tobytes()


class TestPartitionSubsets:
    @given(
        tables(),
        queries(),
        st.integers(1, 8),
        st.lists(st.integers(0, 7), max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_subset_row_is_the_full_pass_row(
        self, table, query, num_partitions, picks
    ):
        """``partition_answers(q, partitions=s)[i]`` is byte for byte
        ``partition_answers(q)[s[i]]`` — shuffled, duplicated, empty."""
        num_partitions = min(num_partitions, table.num_rows)
        ptable = partition_evenly(table, num_partitions)
        subset = [p % num_partitions for p in picks]
        full = answers(ptable, query)
        block = answers(ptable, query, subset)
        assert len(block) == len(subset)
        assert_bitwise_equal(block, [full[p] for p in subset])
        for i, p in enumerate(subset):
            assert list(block[i]) == list(full[p])
            for key, vec in block[i].items():
                assert vec.tobytes() == full[p][key].tobytes()
