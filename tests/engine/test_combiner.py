"""Unit tests for weighted answer combination and finalization."""

import numpy as np
import pytest

from repro.engine.aggregates import avg_of, count_star, sum_of
from repro.engine.combiner import (
    WeightedChoice,
    combine_answers,
    estimate,
    finalize_answer,
)
from repro.engine.expressions import col
from repro.engine.query import Query
from repro.errors import ConfigError


@pytest.fixture
def partition_answers():
    # Two partitions; component layout [SUM(v), COUNT].
    return [
        {("a",): np.array([10.0, 2.0]), ("b",): np.array([1.0, 1.0])},
        {("a",): np.array([20.0, 4.0])},
    ]


class TestCombine:
    def test_weighted_sum(self, partition_answers):
        combined = combine_answers(
            partition_answers,
            [WeightedChoice(0, 1.0), WeightedChoice(1, 3.0)],
        )
        np.testing.assert_allclose(combined[("a",)], [70.0, 14.0])
        np.testing.assert_allclose(combined[("b",)], [1.0, 1.0])

    def test_empty_selection(self):
        assert combine_answers([], []) == {}

    def test_answers_must_align_with_selection(self, partition_answers):
        # Partition-indexed answers (the pre-PR-15 contract) are refused
        # instead of silently truncated to the selection's length.
        with pytest.raises(ValueError):
            combine_answers(partition_answers, [WeightedChoice(1, 1.0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            WeightedChoice(0, -1.0)

    def test_source_answers_not_mutated(self, partition_answers):
        before = partition_answers[0][("a",)].copy()
        combine_answers(
            [partition_answers[0], partition_answers[0]],
            [WeightedChoice(0, 2.0), WeightedChoice(0, 3.0)],
        )
        np.testing.assert_array_equal(partition_answers[0][("a",)], before)


class TestFinalize:
    def test_avg_finalizes_to_ratio(self, partition_answers):
        query = Query([avg_of(col("v")), count_star(), sum_of(col("v"))])
        combined = {(): np.array([30.0, 6.0])}
        final = finalize_answer(query, combined)
        np.testing.assert_allclose(final[()], [5.0, 6.0, 30.0])

    def test_estimate_is_combine_then_finalize(self, partition_answers):
        query = Query([sum_of(col("v"))], group_by=("g",))
        final = estimate(
            query, partition_answers, [WeightedChoice(1, 2.0)]
        )
        np.testing.assert_allclose(final[("a",)], [40.0])
        assert ("b",) not in final
