"""Property-based tests for engine invariants.

Core soundness property of the whole system: per-partition answers always
sum to the whole-table answer, for arbitrary data, partitionings, and
queries in scope.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dict_walk import estimate, finalize_answer
from scalar_oracle import true_answer

from repro.engine.aggregates import avg_of, count_star, sum_of
from repro.engine.combiner import WeightedChoice
from repro.engine.batch_executor import BatchExecutor
from repro.engine.expressions import col
from repro.engine.layout import partition_evenly
from repro.engine.predicates import Comparison, InSet
from repro.engine.query import Query
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table

SCHEMA = Schema.of(
    Column("v", ColumnKind.NUMERIC),
    Column("w", ColumnKind.NUMERIC),
    Column("g", ColumnKind.CATEGORICAL),
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
            "g": rng.choice(["a", "b", "c", "d", "e"], n),
        },
    )


@st.composite
def queries(draw):
    aggregates = draw(
        st.lists(
            st.sampled_from(
                [
                    sum_of(col("v")),
                    avg_of(col("w")),
                    count_star(),
                    sum_of(col("v") + col("w")),
                ]
            ),
            min_size=1,
            max_size=3,
        )
    )
    predicate = draw(
        st.sampled_from(
            [
                None,
                Comparison("v", ">", 0.0),
                Comparison("w", "<", 10.0),
                InSet("g", {"a", "c"}),
            ]
        )
    )
    group_by = draw(st.sampled_from([(), ("g",)]))
    return Query(aggregates, predicate, group_by)


class TestPartitionAdditivity:
    @given(tables(), queries(), st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_unit_weights_reproduce_truth(self, table, query, num_partitions):
        num_partitions = min(num_partitions, table.num_rows)
        ptable = partition_evenly(table, num_partitions)
        answers = BatchExecutor.for_table(ptable).partition_answers(query)
        combined = estimate(
            query,
            answers,
            [WeightedChoice(p, 1.0) for p in range(num_partitions)],
        )
        exact = finalize_answer(query, true_answer(ptable, query))
        assert set(combined) == set(exact)
        for key in exact:
            np.testing.assert_allclose(
                combined[key], exact[key], rtol=1e-9, atol=1e-9
            )

    @given(tables(), queries())
    @settings(max_examples=50, deadline=None)
    def test_partitioning_invariance(self, table, query):
        """The exact answer is invariant to how rows are partitioned."""
        coarse = partition_evenly(table, 1)
        fine = partition_evenly(table, min(7, table.num_rows))
        coarse_answers = BatchExecutor.for_table(coarse).partition_answers(query)
        fine_answers = BatchExecutor.for_table(fine).partition_answers(query)
        coarse_total = estimate(
            query, coarse_answers, [WeightedChoice(0, 1.0)]
        )
        fine_total = estimate(
            query,
            fine_answers,
            [WeightedChoice(p, 1.0) for p in range(fine.num_partitions)],
        )
        assert set(coarse_total) == set(fine_total)
        for key in coarse_total:
            np.testing.assert_allclose(
                coarse_total[key], fine_total[key], rtol=1e-9, atol=1e-9
            )

    @given(tables(), st.floats(0.5, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_weights_scale_linear_components(self, table, weight):
        query = Query([sum_of(col("v")), count_star()])
        ptable = partition_evenly(table, 1)
        answers = BatchExecutor.for_table(ptable).partition_answers(query)
        scaled = estimate(query, answers, [WeightedChoice(0, weight)])
        unit = estimate(query, answers, [WeightedChoice(0, 1.0)])
        if unit:
            np.testing.assert_allclose(scaled[()], weight * unit[()])
