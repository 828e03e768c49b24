"""Integration tests: the full pipeline on real(istic) workloads.

These are the repository's "does the paper's claim hold at all" checks:
PS3 must beat uniform random partition sampling on sorted layouts at
moderate budgets, the selectivity filter must never lose qualifying rows,
and estimates must converge to the truth as the budget grows.
"""

import numpy as np
import pytest

from dict_walk import estimate

from repro.api import answer_with_selection
from repro.baselines.random_sampling import RandomSampler
from repro.core.metrics import evaluate_errors, mean_report
from repro.engine.combiner import WeightedChoice
from repro.engine.batch_executor import BatchExecutor


@pytest.fixture(scope="module")
def test_queries(tpch_queries):
    __, test = tpch_queries
    return test


class TestAccuracyOrdering:
    def test_ps3_beats_random_at_small_budget(
        self, trained_ps3, test_queries, tpch_ptable
    ):
        budget = max(2, tpch_ptable.num_partitions // 8)
        ps3_reports, random_reports = [], []
        for query in test_queries:
            answers = BatchExecutor.for_table(tpch_ptable).partition_answers(query)
            truth = estimate(
                query,
                answers,
                [WeightedChoice(p, 1.0) for p in range(len(answers))],
            )
            selection = trained_ps3.picker.select(query, budget).selection
            ps3_reports.append(
                evaluate_errors(truth, estimate(query, answers, selection))
            )
            for seed in range(5):
                sampler = RandomSampler(tpch_ptable.num_partitions, seed=seed)
                random_selection = sampler.select(query, budget)
                random_reports.append(
                    evaluate_errors(truth, estimate(query, answers, random_selection))
                )
        ps3_error = mean_report(ps3_reports).avg_relative_error
        random_error = mean_report(random_reports).avg_relative_error
        assert ps3_error < random_error

    def test_error_decreases_with_budget(self, trained_ps3, test_queries, tpch_ptable):
        errors = []
        for budget in (2, 6, tpch_ptable.num_partitions):
            reports = []
            for query in test_queries:
                answer = trained_ps3.query(query, budget_partitions=budget)
                reports.append(trained_ps3.evaluate(query, answer))
            errors.append(mean_report(reports).avg_relative_error)
        assert errors[-1] == pytest.approx(0.0, abs=1e-9)
        assert errors[0] >= errors[-1]


class TestFilterSoundness:
    def test_selectivity_filter_never_drops_qualifying_rows(
        self, trained_ps3, test_queries, tpch_ptable
    ):
        """Perfect recall end-to-end: partitions outside the passing set
        must contribute nothing to the true answer."""
        for query in test_queries:
            if query.predicate is None:
                continue
            features = trained_ps3.feature_builder.features_for_query(query)
            passing = set(features.passing_partitions().tolist())
            for partition in tpch_ptable:
                if partition.index in passing:
                    continue
                mask = query.predicate.mask(partition.columns)
                assert not mask.any(), (
                    f"partition {partition.index} dropped but has rows for "
                    f"{query.label()}"
                )


class TestWeightedEstimation:
    def test_full_selection_reproduces_truth_for_all_queries(
        self, trained_ps3, test_queries, tpch_ptable
    ):
        for query in test_queries:
            answers = BatchExecutor.for_table(tpch_ptable).partition_answers(query)
            full = [WeightedChoice(p, 1.0) for p in range(len(answers))]
            combined = estimate(query, answers, full)
            exact = trained_ps3.execute_exact(query)
            assert set(combined) == set(exact)
            for key in exact:
                np.testing.assert_allclose(combined[key], exact[key], rtol=1e-9)

    def test_answer_with_selection_agrees_with_api_path(
        self, trained_ps3, test_queries, tpch_ptable
    ):
        query = test_queries[0]
        result = trained_ps3.picker.select(query, 4)
        via_api = trained_ps3.query(query, budget_partitions=4)
        via_helper = answer_with_selection(
            tpch_ptable, query, result.selection
        )
        assert set(via_api.groups) == set(via_helper)
