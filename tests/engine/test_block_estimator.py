"""Fixed-seed parity tests: block estimation plane vs the dict oracle.

The oracle is composed here from the dict walk — ``combine_answers`` /
``estimate`` of ``tests/dict_walk.py`` over the block's per-partition
dicts, then ``evaluate_errors`` — one candidate at a time. Every check
is tolerance-free: combined component totals and finalized values must
be byte-equal (``tobytes()``, so the sign of a zero counts), and
:class:`ErrorReport` values must be identical, not approximately equal.
"""

from __future__ import annotations

import numpy as np
import pytest

from dict_walk import combine_answers, estimate

from repro.core.metrics import evaluate_errors
from repro.engine.aggregates import avg_of, count_star, sum_of
from repro.engine.batch_executor import BatchExecutor
from repro.engine.block_estimator import BlockEstimator
from repro.engine.combiner import WeightedChoice
from repro.engine.expressions import col
from repro.engine.layout import partition_evenly, sort_table
from repro.engine.predicates import And, Comparison, InSet, Or
from repro.engine.query import Query
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table

SCHEMA = Schema.of(
    Column("x", ColumnKind.NUMERIC, positive=True),
    Column("y", ColumnKind.NUMERIC),
    Column("d", ColumnKind.DATE),
    Column("cat", ColumnKind.CATEGORICAL, low_cardinality=True),
)

QUERIES = [
    Query([sum_of(col("x")), count_star()], Comparison("x", ">", 4.0), ("cat",)),
    Query(
        [avg_of(col("y"))],
        Or([Comparison("y", "<", -2.0), Comparison("y", ">", 2.0)]),
        ("cat", "d"),
    ),
    Query(
        [count_star(), avg_of(col("x")), sum_of(col("x"))],
        InSet("cat", {"a", "c"}),
        ("d",),
    ),
    Query([sum_of(col("x") + col("y"))], None, ()),
    Query(
        [count_star()],
        And([Comparison("x", ">", 2.0), Comparison("d", "<", 6.0)]),
        (),
    ),
    # Matches nothing anywhere: empty truth on both paths.
    Query([sum_of(col("x")), count_star()], Comparison("x", ">", 1e12), ("cat",)),
]


@pytest.fixture(scope="module")
def ptable():
    rng = np.random.default_rng(42)
    n = 400
    table = Table(
        SCHEMA,
        {
            "x": rng.exponential(5.0, n) + 1.0,
            "y": rng.normal(0.0, 3.0, n),
            "d": rng.integers(0, 10, n),
            "cat": rng.choice(["a", "b", "c", "dd"], n, p=[0.4, 0.3, 0.2, 0.1]),
        },
    )
    return partition_evenly(sort_table(table, "d"), 16)


NUM_PARTITIONS = 16


@pytest.fixture(scope="module")
def blocks(ptable):
    executor = BatchExecutor.for_table(ptable)
    return [executor.partition_answers(query) for query in QUERIES]


def full_selection():
    return [WeightedChoice(p, 1.0) for p in range(NUM_PARTITIONS)]


def selections(num_partitions, seed):
    """A spread of weighted selections: full, subsets, scaled weights."""
    rng = np.random.default_rng(seed)
    out = [
        [],  # empty selection: everything missed
        [WeightedChoice(p, 1.0) for p in range(num_partitions)],  # exact
    ]
    for size, scale in ((3, 5.0), (7, 1.7), (num_partitions // 2, 12.0)):
        parts = rng.choice(num_partitions, size=size, replace=False)
        weights = 1.0 + rng.random(size) * scale
        out.append(
            [WeightedChoice(int(p), float(w)) for p, w in zip(parts, weights)]
        )
    return out


class TestCombineParity:
    @pytest.mark.parametrize("qi", range(len(QUERIES)))
    def test_combined_totals_bitwise(self, blocks, qi):
        estimator = BlockEstimator(blocks[qi])
        grid = selections(NUM_PARTITIONS, seed=qi)
        combined, present = estimator.combine_grid(grid)
        for k, selection in enumerate(grid):
            reference = combine_answers(
                [blocks[qi][c.partition] for c in selection], selection
            )
            keys = blocks[qi].keys
            got_keys = {keys[g] for g in np.flatnonzero(present[k])}
            assert got_keys == set(reference)
            for key, vec in reference.items():
                g = keys.index(key)
                got = combined[k, g]
                assert got.tobytes() == vec.tobytes(), (key, got, vec)


class TestEstimateParity:
    @pytest.mark.parametrize("qi", range(len(QUERIES)))
    def test_finalized_values_bitwise(self, blocks, qi):
        estimator = BlockEstimator(blocks[qi])
        grid = selections(NUM_PARTITIONS, seed=100 + qi)
        values, present = estimator.estimate_grid(grid)
        for k, selection in enumerate(grid):
            reference = estimate(QUERIES[qi], blocks[qi], selection)
            final = estimator.as_final_answer(values[k], present[k])
            assert set(final) == set(reference)
            for key in reference:
                assert final[key].tobytes() == reference[key].tobytes(), key

    def test_truth_matches_weight_one_estimate(self, blocks):
        for query, block in zip(QUERIES, blocks):
            reference = estimate(query, block, full_selection())
            truth = BlockEstimator(block).truth_answer()
            assert set(truth) == set(reference)
            for key in reference:
                assert truth[key].tobytes() == reference[key].tobytes(), key

    def test_truth_is_cached(self, blocks):
        estimator = BlockEstimator(blocks[0])
        assert estimator.truth() is estimator.truth()

    def test_keys_are_in_sorted_order(self, blocks):
        # The block code order must agree with sorted(), which is what
        # the dict metric path canonicalizes on.
        for block in blocks:
            assert block.keys == sorted(block.keys)


class TestScoreParity:
    @pytest.mark.parametrize("qi", range(len(QUERIES)))
    def test_reports_identical(self, blocks, qi):
        query, answers = QUERIES[qi], blocks[qi]
        truth = estimate(query, answers, full_selection())
        grid = selections(NUM_PARTITIONS, seed=200 + qi)
        assert BlockEstimator(answers).score_grid(grid) == [
            evaluate_errors(truth, estimate(query, answers, selection))
            for selection in grid
        ]

    def test_subset_truth_missed_and_spurious(self, blocks):
        """Truth from one subset, estimate from another: groups can be
        missing from either side; both paths must agree exactly."""
        query, answers = QUERIES[0], blocks[0]
        estimator = BlockEstimator(answers)
        truth_sel = [WeightedChoice(p, 1.0) for p in range(0, 6)]
        est_sel = [WeightedChoice(p, 3.5) for p in range(4, 12)]
        values, present = estimator.estimate_grid([truth_sel])
        [block_report] = estimator.score_grid(
            [est_sel], truth=(values[0], present[0])
        )
        dict_report = evaluate_errors(
            estimate(query, answers, truth_sel),
            estimate(query, answers, est_sel),
        )
        assert block_report == dict_report


class TestBlockFromDicts:
    def test_compacted_dicts_equal_the_executors_block(
        self, blocks, block_from_answers
    ):
        for qi, (query, block) in enumerate(zip(QUERIES, blocks)):
            from_dicts = block_from_answers(query, list(block))
            if block.live.size:
                assert from_dicts.keys == block.keys
                assert np.array_equal(from_dicts.live, block.live)
                assert np.array_equal(from_dicts.cuts, block.cuts)
                assert from_dicts.totals.tobytes() == block.totals.tobytes()
            # (Ungrouped zero-match blocks carry the single () key with
            # no live segments, which dict answers cannot represent —
            # both forms still score identically.)
            grid = selections(NUM_PARTITIONS, seed=qi)
            assert BlockEstimator(from_dicts).score_grid(grid) == BlockEstimator(
                block
            ).score_grid(grid)


class TestGridParity:
    """Fusing candidates into one contraction must change no candidate:
    row ``k`` of a grid is bit for bit the grid of ``selections[k]``
    alone — same combined totals, finalized values, and reports."""

    @pytest.mark.parametrize("qi", range(len(QUERIES)))
    def test_combine_grid_rows_bitwise(self, blocks, qi):
        estimator = BlockEstimator(blocks[qi])
        grid = selections(NUM_PARTITIONS, seed=300 + qi)
        combined, present = estimator.combine_grid(grid)
        assert combined.shape[0] == len(grid)
        for k, selection in enumerate(grid):
            ref_combined, ref_present = estimator.combine_grid([selection])
            assert np.array_equal(present[k], ref_present[0]), k
            assert combined[k].tobytes() == ref_combined[0].tobytes(), k

    @pytest.mark.parametrize("qi", range(len(QUERIES)))
    def test_estimate_grid_rows_bitwise(self, blocks, qi):
        estimator = BlockEstimator(blocks[qi])
        grid = selections(NUM_PARTITIONS, seed=400 + qi)
        values, present = estimator.estimate_grid(grid)
        for k, selection in enumerate(grid):
            ref_values, ref_present = estimator.estimate_grid([selection])
            assert np.array_equal(present[k], ref_present[0]), k
            assert values[k].tobytes() == ref_values[0].tobytes(), k

    @pytest.mark.parametrize("qi", range(len(QUERIES)))
    def test_score_grid_reports_identical(self, blocks, qi):
        estimator = BlockEstimator(blocks[qi])
        grid = selections(NUM_PARTITIONS, seed=500 + qi)
        assert estimator.score_grid(grid) == [
            estimator.score_grid([selection])[0] for selection in grid
        ]

    def test_score_grid_against_subset_truth(self, blocks):
        query, answers = QUERIES[0], blocks[0]
        estimator = BlockEstimator(answers)
        truth_sel = [WeightedChoice(p, 1.0) for p in range(6)]
        values, present = estimator.estimate_grid([truth_sel])
        grid = selections(NUM_PARTITIONS, seed=600)
        dict_truth = estimate(query, answers, truth_sel)
        assert estimator.score_grid(grid, truth=(values[0], present[0])) == [
            evaluate_errors(dict_truth, estimate(query, answers, selection))
            for selection in grid
        ]

    def test_empty_grid(self, blocks):
        estimator = BlockEstimator(blocks[0])
        assert estimator.score_grid([]) == []
        values, present = estimator.estimate_grid([])
        assert values.shape[0] == 0 and present.shape[0] == 0


class TestFinalizeBlock:
    def test_avg_zero_count_guard(self):
        agg = avg_of(col("x"))
        totals = np.array([10.0, 5.0, 3.0])
        counts = np.array([2.0, 0.0, -0.0])
        values = agg.finalize_block([totals, counts])
        expected = [agg.finalize([t, c]) for t, c in zip(totals, counts)]
        assert values.tolist() == expected

    def test_sum_and_count_pass_through(self):
        totals = np.array([1.5, -2.25, 0.0])
        assert np.array_equal(
            sum_of(col("x")).finalize_block([totals]), totals
        )
        assert np.array_equal(count_star().finalize_block([totals]), totals)
