"""Property tests: block estimation plane == dict oracle, bit for bit.

Random (table, query, selection) triples — including zero-match
predicates, partial selections that miss groups, and weight-scaled
selections that blow spurious groups up — must produce identical
combined totals, finalized answers, and :class:`ErrorReport` values
through :class:`BlockEstimator` and through the ``estimate`` /
``evaluate_errors`` dict walk of ``tests/dict_walk.py``. Reports are
compared with ``==`` (no tolerance); values with ``tobytes()`` (exact
floats, the sign of a zero included).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dict_walk import estimate

from repro.core.metrics import evaluate_errors
from repro.engine.aggregates import avg_of, count_star, sum_of
from repro.engine.batch_executor import BatchExecutor
from repro.engine.block_estimator import BlockEstimator
from repro.engine.combiner import WeightedChoice
from repro.engine.expressions import col
from repro.engine.layout import partition_evenly
from repro.engine.predicates import And, Comparison, InSet, Not, Or
from repro.engine.query import Query
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table

SCHEMA = Schema.of(
    Column("v", ColumnKind.NUMERIC),
    Column("w", ColumnKind.NUMERIC),
    Column("t", ColumnKind.DATE),
    Column("g", ColumnKind.CATEGORICAL, low_cardinality=True),
)


@st.composite
def tables(draw):
    n = draw(st.integers(4, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    return Table(
        SCHEMA,
        {
            "v": rng.normal(0, 50, n).round(2),
            "w": rng.exponential(5, n).round(2),
            "t": rng.integers(0, 12, n),
            "g": rng.choice(["a", "b", "c", "d"], n),
        },
    )


_LEAVES = [
    Comparison("v", ">", 0.0),
    Comparison("w", "<", 5.0),
    Comparison("t", ">=", 6.0),
    InSet("g", {"a", "c"}),
    # Matches nothing: the zero-match / empty-truth corner.
    Comparison("v", ">", 1e12),
]

_AGGREGATES = [
    sum_of(col("v")),
    avg_of(col("w")),
    avg_of(col("v")),
    count_star(),
    sum_of(col("v") + col("w")),
]

_GROUP_BYS = [(), ("g",), ("t",), ("g", "t"), ("v",)]


@st.composite
def queries(draw):
    aggregates = draw(
        st.lists(st.sampled_from(_AGGREGATES), min_size=1, max_size=3)
    )
    shape = draw(st.integers(0, 3))
    if shape == 0:
        predicate = None
    elif shape == 1:
        predicate = draw(st.sampled_from(_LEAVES))
    elif shape == 2:
        predicate = draw(
            st.builds(
                draw(st.sampled_from([And, Or])),
                st.lists(st.sampled_from(_LEAVES), min_size=1, max_size=3),
            )
        )
    else:
        predicate = Not(draw(st.sampled_from(_LEAVES)))
    return Query(aggregates, predicate, draw(st.sampled_from(_GROUP_BYS)))


@st.composite
def selections(draw, num_partitions):
    """0..n weighted choices; duplicates and large weights allowed."""
    size = draw(st.integers(0, num_partitions))
    parts = draw(
        st.lists(
            st.integers(0, num_partitions - 1), min_size=size, max_size=size
        )
    )
    weights = draw(
        st.lists(
            st.floats(0.0, 64.0, allow_nan=False), min_size=size, max_size=size
        )
    )
    return [WeightedChoice(p, w) for p, w in zip(parts, weights)]


@st.composite
def cases(draw):
    table = draw(tables())
    num_partitions = min(draw(st.integers(1, 8)), table.num_rows)
    ptable = partition_evenly(table, num_partitions)
    query = draw(queries())
    selection = draw(selections(num_partitions))
    return ptable, query, selection


def answer_block(ptable, query):
    return BatchExecutor.for_table(ptable).partition_answers(query)


def full_selection(ptable):
    return [WeightedChoice(p, 1.0) for p in range(ptable.num_partitions)]


@pytest.mark.slow
class TestBlockDictParity:
    @given(cases())
    @settings(max_examples=150, deadline=None)
    def test_estimate_bitwise(self, case):
        ptable, query, selection = case
        answers = answer_block(ptable, query)
        estimator = BlockEstimator(answers)
        values, present = estimator.estimate_grid([selection])
        reference = estimate(query, answers, selection)
        final = estimator.as_final_answer(values[0], present[0])
        assert set(final) == set(reference)
        for key in reference:
            assert final[key].tobytes() == reference[key].tobytes(), key

    @given(cases())
    @settings(max_examples=150, deadline=None)
    def test_score_identical_reports(self, case):
        ptable, query, selection = case
        answers = answer_block(ptable, query)
        truth = estimate(query, answers, full_selection(ptable))
        [block_report] = BlockEstimator(answers).score_grid([selection])
        dict_report = evaluate_errors(truth, estimate(query, answers, selection))
        assert block_report == dict_report

    @given(cases(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_subset_truth_missed_and_spurious(self, case, data):
        """Score against a truth from a different selection: groups can
        be missing from the truth (spurious, weight-scaled) or from the
        estimate (missed); the report must still match the dict path."""
        ptable, query, selection = case
        truth_selection = data.draw(selections(ptable.num_partitions))
        answers = answer_block(ptable, query)
        estimator = BlockEstimator(answers)
        values, present = estimator.estimate_grid([truth_selection])
        [block_report] = estimator.score_grid(
            [selection], truth=(values[0], present[0])
        )
        dict_report = evaluate_errors(
            estimate(query, answers, truth_selection),
            estimate(query, answers, selection),
        )
        assert block_report == dict_report

    @given(cases())
    @settings(max_examples=60, deadline=None)
    def test_from_answers_scores_like_from_block(self, block_from_answers, case):
        ptable, query, selection = case
        answers = answer_block(ptable, query)
        from_dicts = block_from_answers(query, list(answers))
        assert BlockEstimator(from_dicts).score_grid([selection]) == BlockEstimator(
            answers
        ).score_grid([selection])


@st.composite
def grid_cases(draw):
    """A table, a query, and a whole grid of candidate selections."""
    table = draw(tables())
    num_partitions = min(draw(st.integers(1, 8)), table.num_rows)
    ptable = partition_evenly(table, num_partitions)
    query = draw(queries())
    grid = draw(st.lists(selections(num_partitions), min_size=0, max_size=6))
    return ptable, query, grid


@pytest.mark.slow
class TestGridParity:
    """The fused candidate grid vs the dict walk, candidate by candidate."""

    @given(grid_cases())
    @settings(max_examples=120, deadline=None)
    def test_estimate_grid_rows_bitwise(self, case):
        ptable, query, grid = case
        answers = answer_block(ptable, query)
        estimator = BlockEstimator(answers)
        values, present = estimator.estimate_grid(grid)
        for k, selection in enumerate(grid):
            alone_values, alone_present = estimator.estimate_grid([selection])
            assert np.array_equal(present[k], alone_present[0]), k
            assert values[k].tobytes() == alone_values[0].tobytes(), k
            reference = estimate(query, answers, selection)
            final = estimator.as_final_answer(values[k], present[k])
            assert set(final) == set(reference), k
            for key in reference:
                assert final[key].tobytes() == reference[key].tobytes(), (k, key)

    @given(grid_cases())
    @settings(max_examples=120, deadline=None)
    def test_score_grid_identical_reports(self, case):
        ptable, query, grid = case
        answers = answer_block(ptable, query)
        truth = estimate(query, answers, full_selection(ptable))
        per_candidate = [
            evaluate_errors(truth, estimate(query, answers, selection))
            for selection in grid
        ]
        assert BlockEstimator(answers).score_grid(grid) == per_candidate
