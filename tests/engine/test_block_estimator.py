"""Fixed-seed parity tests: block estimation plane vs the dict oracle.

Every check is tolerance-free: combined component totals must compare
equal float for float (``np.array_equal``, which treats the two IEEE
zeros as equal — the only divergence the block path's +0.0 padding can
introduce), and :class:`ErrorReport` values must be identical, not
approximately equal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import evaluate_errors
from repro.engine.aggregates import avg_of, count_star, sum_of
from repro.engine.block_estimator import (
    BlockEstimator,
    selection_grid_scorer,
    selection_scorer,
)
from repro.engine.combiner import (
    WeightedChoice,
    combine_answers,
    estimate,
)
from repro.engine.expressions import col
from repro.engine.layout import partition_evenly, sort_table
from repro.engine.predicates import And, Comparison, InSet, Or
from repro.engine.query import Query
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table
from repro.engine.workload_executor import WorkloadExecutor
from repro.errors import ConfigError

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


@pytest.fixture(scope="module")
def matrix(ptable):
    return WorkloadExecutor.for_table(ptable).answer_matrix(QUERIES)


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
    def test_combined_totals_bitwise(self, matrix, qi):
        estimator = BlockEstimator.from_matrix(matrix, qi)
        answers = matrix.answers(qi)
        for selection in selections(matrix.num_partitions, seed=qi):
            combined, present = estimator.combine(selection)
            reference = combine_answers(
                [answers[c.partition] for c in selection], selection
            )
            got_keys = {estimator.keys[g] for g in np.flatnonzero(present)}
            assert got_keys == set(reference)
            for key, vec in reference.items():
                g = estimator.keys.index(key)
                assert np.array_equal(combined[g], vec), (key, combined[g], vec)

    def test_component_answer_dict_matches_combine_answers(self, matrix):
        estimator = BlockEstimator.from_matrix(matrix, 0)
        selection = selections(matrix.num_partitions, seed=9)[-1]
        block_dict = estimator.component_answer(selection)
        answers = matrix.answers(0)
        reference = combine_answers(
            [answers[c.partition] for c in selection], selection
        )
        assert set(block_dict) == set(reference)
        for key in reference:
            assert np.array_equal(block_dict[key], reference[key])


class TestEstimateParity:
    @pytest.mark.parametrize("qi", range(len(QUERIES)))
    def test_finalized_values_bitwise(self, matrix, qi):
        estimator = BlockEstimator.from_matrix(matrix, qi)
        answers = matrix.answers(qi)
        for selection in selections(matrix.num_partitions, seed=100 + qi):
            values, present = estimator.estimate(selection)
            reference = estimate(QUERIES[qi], answers, selection)
            final = estimator.as_final_answer(values, present)
            assert set(final) == set(reference)
            for key in reference:
                assert np.array_equal(final[key], reference[key])

    def test_truth_matches_weight_one_estimate(self, matrix):
        for qi, query in enumerate(QUERIES):
            estimator = BlockEstimator.from_matrix(matrix, qi)
            reference = estimate(
                query,
                matrix.answers(qi),
                [WeightedChoice(p, 1.0) for p in range(matrix.num_partitions)],
            )
            truth = estimator.truth_answer()
            assert set(truth) == set(reference)
            for key in reference:
                assert np.array_equal(truth[key], reference[key])

    def test_truth_is_cached(self, matrix):
        estimator = BlockEstimator.from_matrix(matrix, 0)
        assert estimator.truth() is estimator.truth()

    def test_keys_are_in_sorted_order(self, matrix):
        # The block code order must agree with sorted(), which is what
        # the dict metric path canonicalizes on.
        for qi in range(len(QUERIES)):
            keys = matrix.group_keys(qi)
            assert keys == sorted(keys)


class TestScoreParity:
    @pytest.mark.parametrize("qi", range(len(QUERIES)))
    def test_reports_identical(self, matrix, qi):
        estimator = BlockEstimator.from_matrix(matrix, qi)
        answers = matrix.answers(qi)
        truth = estimate(
            QUERIES[qi],
            answers,
            [WeightedChoice(p, 1.0) for p in range(matrix.num_partitions)],
        )
        for selection in selections(matrix.num_partitions, seed=200 + qi):
            block_report = estimator.score(selection)
            dict_report = evaluate_errors(
                truth, estimate(QUERIES[qi], answers, selection)
            )
            assert block_report == dict_report

    def test_subset_truth_missed_and_spurious(self, matrix):
        """Truth from one subset, estimate from another: groups can be
        missing from either side; both paths must agree exactly."""
        qi = 0
        estimator = BlockEstimator.from_matrix(matrix, qi)
        answers = matrix.answers(qi)
        truth_sel = [WeightedChoice(p, 1.0) for p in range(0, 6)]
        est_sel = [WeightedChoice(p, 3.5) for p in range(4, 12)]
        block_report = estimator.score(
            est_sel, truth=estimator.estimate(truth_sel)
        )
        dict_report = evaluate_errors(
            estimate(QUERIES[qi], answers, truth_sel),
            estimate(QUERIES[qi], answers, est_sel),
        )
        assert block_report == dict_report


class TestConstructors:
    def test_from_answers_equals_from_block(self, matrix):
        for qi, query in enumerate(QUERIES):
            from_block = BlockEstimator.from_matrix(matrix, qi)
            from_dicts = BlockEstimator.from_answers(
                query, list(matrix.answers(qi))
            )
            if from_block.seg_groups.size:
                assert from_dicts.keys == from_block.keys
                assert np.array_equal(
                    from_dicts.seg_groups, from_block.seg_groups
                )
                assert np.array_equal(
                    from_dicts.seg_totals, from_block.seg_totals
                )
            # (Ungrouped zero-match blocks carry the single () key with
            # no live segments, which dict answers cannot represent —
            # both forms still score identically.)
            selection = selections(matrix.num_partitions, seed=qi)[-1]
            assert from_dicts.score(selection) == from_block.score(selection)

    def test_from_lazy_detects_answer_matrix_views(self, matrix):
        assert BlockEstimator.from_lazy(matrix.answers(0)) is not None
        assert BlockEstimator.from_lazy(list(matrix.answers(0))) is None

    def test_lazy_view_exposes_block(self, matrix):
        assert matrix.answers(0).block is matrix.block(0)


class TestSelectionScorer:
    def test_all_paths_agree(self, matrix):
        answers = matrix.answers(0)
        selection = selections(matrix.num_partitions, seed=7)[2]
        reports = {
            path: selection_scorer(QUERIES[0], answers, path)(selection)
            for path in ("auto", "block", "dict")
        }
        assert reports["auto"] == reports["block"] == reports["dict"]

    def test_dict_answers_fall_back_to_dict_path(self, matrix):
        answers = list(matrix.answers(0))
        score = selection_scorer(QUERIES[0], answers, "auto")
        selection = selections(matrix.num_partitions, seed=8)[2]
        assert score(selection) == selection_scorer(
            QUERIES[0], matrix.answers(0), "block"
        )(selection)

    def test_unknown_path_rejected(self, matrix):
        with pytest.raises(ConfigError):
            selection_scorer(QUERIES[0], matrix.answers(0), "matmul")


class TestGridParity:
    """The fused grid path must replay the per-candidate path bit for
    bit: same combined totals, finalized values, and reports."""

    @pytest.mark.parametrize("qi", range(len(QUERIES)))
    def test_combine_grid_rows_bitwise(self, matrix, qi):
        estimator = BlockEstimator.from_matrix(matrix, qi)
        grid = selections(matrix.num_partitions, seed=300 + qi)
        combined, present = estimator.combine_grid(grid)
        assert combined.shape[0] == len(grid)
        for k, selection in enumerate(grid):
            ref_combined, ref_present = estimator.combine(selection)
            assert np.array_equal(present[k], ref_present), k
            assert np.array_equal(combined[k], ref_combined), k

    @pytest.mark.parametrize("qi", range(len(QUERIES)))
    def test_estimate_grid_rows_bitwise(self, matrix, qi):
        estimator = BlockEstimator.from_matrix(matrix, qi)
        grid = selections(matrix.num_partitions, seed=400 + qi)
        values, present = estimator.estimate_grid(grid)
        for k, selection in enumerate(grid):
            ref_values, ref_present = estimator.estimate(selection)
            assert np.array_equal(present[k], ref_present), k
            assert np.array_equal(values[k], ref_values), k

    @pytest.mark.parametrize("qi", range(len(QUERIES)))
    def test_score_grid_reports_identical(self, matrix, qi):
        estimator = BlockEstimator.from_matrix(matrix, qi)
        grid = selections(matrix.num_partitions, seed=500 + qi)
        assert estimator.score_grid(grid) == [
            estimator.score(selection) for selection in grid
        ]

    def test_score_grid_against_subset_truth(self, matrix):
        estimator = BlockEstimator.from_matrix(matrix, 0)
        truth = estimator.estimate([WeightedChoice(p, 1.0) for p in range(6)])
        grid = selections(matrix.num_partitions, seed=600)
        assert estimator.score_grid(grid, truth=truth) == [
            estimator.score(selection, truth=truth) for selection in grid
        ]

    def test_empty_grid(self, matrix):
        estimator = BlockEstimator.from_matrix(matrix, 0)
        assert estimator.score_grid([]) == []
        values, present = estimator.estimate_grid([])
        assert values.shape[0] == 0 and present.shape[0] == 0


class TestSelectionGridScorer:
    def test_all_paths_match_per_candidate_scorer(self, matrix):
        answers = matrix.answers(0)
        grid = selections(matrix.num_partitions, seed=9)
        for path in ("auto", "block", "dict"):
            single = selection_scorer(QUERIES[0], answers, path)
            reports = selection_grid_scorer(QUERIES[0], answers, path)(grid)
            assert reports == [single(s) for s in grid], path

    def test_dict_answers_fall_back_to_dict_path(self, matrix):
        answers = list(matrix.answers(0))
        grid = selections(matrix.num_partitions, seed=10)
        fallback = selection_grid_scorer(QUERIES[0], answers, "auto")(grid)
        block = selection_grid_scorer(
            QUERIES[0], matrix.answers(0), "block"
        )(grid)
        assert fallback == block

    def test_unknown_path_rejected(self, matrix):
        with pytest.raises(ConfigError):
            selection_grid_scorer(QUERIES[0], matrix.answers(0), "matmul")


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
