"""Unit tests for weighted answer combination and finalization.

``combine_answers`` reads a :class:`QueryAnswerBlock` whose row ``j`` is
``selection[j]``'s partition; each case is also checked against the dict
walk (``tests/dict_walk.py``) over the block's own per-partition dicts.
"""

import numpy as np
import pytest
from dict_walk import combine_answers as walk_combine
from dict_walk import estimate
from dict_walk import finalize_answer as walk_finalize

from repro.engine.aggregates import avg_of, count_star, sum_of
from repro.engine.batch_executor import QueryAnswerBlock
from repro.engine.combiner import (
    CombinedAnswer,
    WeightedChoice,
    combine_answers,
    finalize_answer,
    weighted_sums,
)
from repro.engine.expressions import col
from repro.engine.query import Query
from repro.errors import ConfigError

# Component layout [SUM(v), COUNT].
QUERY = Query([sum_of(col("v")), count_star()], group_by=("g",))
KEYS = [("a",), ("b",)]


def make_block(*partitions):
    """A block from one ``{group code: totals}`` dict per row."""
    live, totals = [], []
    for p, answer in enumerate(partitions):
        for g in sorted(answer):
            live.append(p * len(KEYS) + g)
            totals.append(answer[g])
    return QueryAnswerBlock(
        QUERY,
        KEYS,
        np.array(live, dtype=np.intp),
        np.array(totals, dtype=np.float64).reshape(len(live), 2),
        len(partitions),
    )


def assert_same_as_walk(block, selection):
    combined = combine_answers(block, selection)
    walked = walk_combine(list(block), selection)
    assert combined.keys == list(walked)
    for key, row in zip(combined.keys, combined.totals):
        assert row.tobytes() == walked[key].tobytes(), key
    final, reference = finalize_answer(QUERY, combined), walk_finalize(QUERY, walked)
    assert list(final) == list(reference)
    for key in reference:
        assert final[key].tobytes() == reference[key].tobytes(), key
    return combined


@pytest.fixture
def block():
    return make_block(
        {0: [10.0, 2.0], 1: [1.0, 1.0]},
        {0: [20.0, 4.0]},
    )


class TestCombine:
    def test_weighted_sum(self, block):
        combined = assert_same_as_walk(
            block, [WeightedChoice(0, 1.0), WeightedChoice(1, 3.0)]
        )
        assert combined.keys == KEYS
        np.testing.assert_array_equal(combined.totals, [[70.0, 14.0], [1.0, 1.0]])

    def test_empty_selection(self):
        combined = assert_same_as_walk(make_block(), [])
        assert combined.keys == []
        assert combined.totals.shape == (0, 2)

    def test_answers_must_align_with_selection(self, block):
        # The block's rows are the selection: a choice list of another
        # length is refused instead of silently truncated.
        with pytest.raises(ValueError):
            combine_answers(block, [WeightedChoice(1, 1.0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            WeightedChoice(0, -1.0)

    @pytest.mark.parametrize("partition", [2.7, 2.0, True, np.float64(1.0), np.True_])
    def test_non_integer_partition_rejected(self, partition):
        # ``int(2.7)`` and ``int(True)`` would read partitions 2 and 1.
        with pytest.raises(ConfigError, match="integer"):
            WeightedChoice(partition, 1.0)

    def test_integer_numpy_partition_accepted(self):
        assert WeightedChoice(np.int64(3), 1.0).partition == 3
        assert WeightedChoice(np.uint8(3), 1.0).partition == 3

    def test_source_answers_not_mutated(self, block):
        before = block.totals.copy()
        combined = combine_answers(
            block, [WeightedChoice(0, 2.0), WeightedChoice(0, 3.0)]
        )
        np.testing.assert_array_equal(block.totals, before)
        assert not np.shares_memory(combined.totals, block.totals)

    def test_keys_in_walk_insertion_order(self):
        # Row 0 holds only "b": the walk inserts "b" first, code order
        # would put "a" first.
        block = make_block({1: [1.0, 1.0]}, {0: [2.0, 1.0], 1: [3.0, 1.0]})
        combined = assert_same_as_walk(
            block, [WeightedChoice(4, 1.0), WeightedChoice(2, 2.0)]
        )
        assert combined.keys == [("b",), ("a",)]

    def test_chain_of_negative_zeros_stays_negative(self):
        block = make_block(
            {0: [-0.0, 1.0], 1: [-0.0, 1.0]},
            {0: [-0.0, 1.0], 1: [0.0, 1.0]},
        )
        combined = assert_same_as_walk(
            block, [WeightedChoice(0, 1.0), WeightedChoice(1, 2.0)]
        )
        assert np.signbit(combined.totals[0, 0])  # -0.0 + -0.0
        assert not np.signbit(combined.totals[1, 0])  # -0.0 + 0.0

    def test_zero_weight_makes_negative_zero_terms(self):
        # 0.0 * -5.0 is -0.0: the sign check runs on the scaled terms.
        block = make_block({0: [-5.0, 1.0]}, {0: [-0.0, 1.0]})
        combined = assert_same_as_walk(
            block, [WeightedChoice(0, 0.0), WeightedChoice(1, 1.0)]
        )
        assert np.signbit(combined.totals[0, 0])


class TestWeightedSums:
    def test_adds_in_input_order(self):
        # (1e16 + 1) + 1 loses both ones; any other association keeps one.
        values = np.array([[1e16], [1.0], [1.0]])
        sums, present = weighted_sums(np.zeros(3, dtype=np.intp), values, 2)
        assert sums[0, 0] == (1e16 + 1.0) + 1.0
        assert present.tolist() == [True, False]
        assert sums[1, 0] == 0.0 and not np.signbit(sums[1, 0])


class TestFinalize:
    def test_avg_finalizes_to_ratio(self):
        query = Query([avg_of(col("v")), count_star(), sum_of(col("v"))])
        combined = CombinedAnswer([()], np.array([[30.0, 6.0]]))
        final = finalize_answer(query, combined)
        np.testing.assert_allclose(final[()], [5.0, 6.0, 30.0])

    def test_estimate_is_combine_then_finalize(self, block):
        # The walk's ``estimate`` reads partition-indexed answers; the
        # kernel reads a block holding just the selected partition.
        selection = [WeightedChoice(1, 2.0)]
        final = finalize_answer(
            QUERY, combine_answers(make_block({0: [20.0, 4.0]}), selection)
        )
        reference = estimate(QUERY, list(block), selection)
        assert list(final) == list(reference) == [("a",)]
        assert final[("a",)].tobytes() == reference[("a",)].tobytes()
        np.testing.assert_array_equal(final[("a",)], [40.0, 8.0])

    def test_avg_with_zero_count_is_zero(self):
        query = Query([avg_of(col("v"))])
        final = finalize_answer(query, CombinedAnswer([()], np.array([[3.0, 0.0]])))
        assert final[()].tobytes() == np.array([0.0]).tobytes()
