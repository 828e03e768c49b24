"""Property tests: batch executor == scalar executor, bit for bit.

The batch path must be a drop-in for the scalar per-partition loop at
full floating-point identity — same group keys, in the same order, with
byte-identical component vectors — for arbitrary tables, partitionings,
predicate trees, multi-column group-bys, and SUM/COUNT/AVG mixes,
including all-filtered partitions and partitions whose every row
survives. A final end-to-end check requires the training plane's answers
and contribution labels — the only path-dependent inputs of the
(deterministic) model fit — to equal the scalar composition's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracle import execute_on_partition, partition_contributions

from repro.core.training import compute_training_data
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
    n = draw(st.integers(4, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    return Table(
        SCHEMA,
        {
            "v": rng.normal(0, 100, n).round(2),
            "w": rng.exponential(10, n).round(2),
            "t": rng.integers(0, 30, n),
            "g": rng.choice(["a", "b", "c", "d", "e"], n),
            "s": rng.choice([f"s{i:02d}" for i in range(12)], n),
        },
    )


def _leaves():
    return st.sampled_from(
        [
            Comparison("v", ">", 0.0),
            Comparison("v", "<=", 25.0),
            Comparison("w", "<", 10.0),
            Comparison("t", ">=", 10.0),
            Comparison("t", "==", 7.0),
            InSet("g", {"a", "c"}),
            InSet("g", {"e"}),
            Contains("s", "s0"),
            Contains("s", "1"),
        ]
    )


@st.composite
def predicates(draw):
    shape = draw(st.integers(0, 3))
    if shape == 0:
        return draw(_leaves())
    children = draw(st.lists(_leaves(), min_size=1, max_size=3))
    if shape == 1:
        return And(children)
    if shape == 2:
        return Or(children)
    return Not(draw(_leaves()))


@st.composite
def queries(draw):
    aggregates = draw(
        st.lists(
            st.sampled_from(
                [
                    sum_of(col("v")),
                    sum_of(col("w")),
                    avg_of(col("w")),
                    avg_of(col("v")),
                    count_star(),
                    sum_of(col("v") + col("w")),
                    sum_of(col("v") * 2.0 - 1.0),
                ]
            ),
            min_size=1,
            max_size=4,
        )
    )
    predicate = draw(st.one_of(st.none(), predicates()))
    group_by = draw(
        st.sampled_from(
            [(), ("g",), ("t",), ("g", "t"), ("t", "g"), ("v",), ("g", "s", "t")]
        )
    )
    return Query(aggregates, predicate, group_by)


def assert_bitwise_equal(batch, scalar):
    """Same per-partition dicts: key order and vector bytes identical."""
    assert len(batch) == len(scalar)
    for b, s in zip(batch, scalar):
        assert list(b.keys()) == list(s.keys())
        for key in s:
            assert b[key].tobytes() == s[key].tobytes(), (key, b[key], s[key])


@pytest.mark.slow
class TestBatchScalarParity:
    @given(tables(), queries(), st.integers(1, 10))
    @settings(max_examples=120, deadline=None)
    def test_bitwise_parity(self, table, query, num_partitions):
        num_partitions = min(num_partitions, table.num_rows)
        ptable = partition_evenly(table, num_partitions)
        assert_bitwise_equal(
            BatchExecutor.for_table(ptable).partition_answers(query),
            [execute_on_partition(p, query) for p in ptable],
        )

    @given(tables(), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_all_rows_filtered(self, table, num_partitions):
        """A predicate nothing satisfies: every answer dict is empty."""
        num_partitions = min(num_partitions, table.num_rows)
        ptable = partition_evenly(table, num_partitions)
        query = Query(
            [sum_of(col("v")), count_star()],
            Comparison("w", "<", -1.0),  # w is exponential: impossible
            ("g",),
        )
        batch = BatchExecutor.for_table(ptable).partition_answers(query)
        assert batch == [{} for __ in range(num_partitions)]
        assert_bitwise_equal(
            batch, [execute_on_partition(p, query) for p in ptable]
        )

    @given(tables(), queries())
    @settings(max_examples=40, deadline=None)
    def test_empty_partition_answers(self, table, query):
        """Partitions whose rows are all filtered out yield empty dicts."""
        ptable = partition_evenly(table, min(6, table.num_rows))
        batch = BatchExecutor.for_table(ptable).partition_answers(query)
        scalar = [execute_on_partition(p, query) for p in ptable]
        assert [not b for b in batch] == [not s for s in scalar]
        assert_bitwise_equal(batch, scalar)


class TestTrainingPlaneParity:
    """Training's answers and labels must equal the scalar composition's
    (the model fit is a deterministic function of them)."""

    def _train_queries(self):
        return [
            Query(
                [sum_of(col("x")), count_star()],
                Comparison("x", ">", 5.0),
                ("cat",),
            ),
            Query([avg_of(col("y"))], InSet("cat", {"a", "b"}), ("cat",)),
            Query([count_star()], Comparison("d", "<", 50.0), ("d",)),
            Query(
                [sum_of(col("y"))],
                Or([Comparison("y", ">", 2.0), InSet("cat", {"c"})]),
            ),
            Query([sum_of(col("x"))], None, ("cat", "d")),
        ]

    def test_answers_and_labels_match_scalar_reference(
        self, tiny_ptable, tiny_feature_builder
    ):
        queries = self._train_queries()
        data = compute_training_data(tiny_ptable, tiny_feature_builder, queries)
        for query, answers, contributions in zip(
            queries, data.answers, data.contributions
        ):
            scalar = [execute_on_partition(p, query) for p in tiny_ptable]
            assert_bitwise_equal(answers, scalar)
            assert (
                contributions.tobytes()
                == partition_contributions(scalar).tobytes()
            )
