"""Unit tests for confidence intervals and failure-case detection."""

import numpy as np
import pytest

from repro.core.diagnostics import (
    DiagnosticThresholds,
    diagnose_query,
    estimate_with_confidence,
)
from repro.engine.aggregates import avg_of, count_star, sum_of
from repro.engine.batch_executor import BatchExecutor
from repro.engine.expressions import col
from repro.engine.predicates import And, Comparison, Or
from repro.engine.query import Query
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def prepared(trained_ps3):
    query = Query(
        [sum_of(col("l_extendedprice")), count_star(), avg_of(col("l_quantity"))],
        Comparison("l_quantity", ">", 10.0),
        ("l_returnflag",),
    )
    answers = BatchExecutor.for_table(trained_ps3.ptable).partition_answers(query)
    features = trained_ps3.feature_builder.features_for_query(query)
    normalized = trained_ps3.model.normalizer.transform(features.matrix)
    return query, answers, features, normalized


class TestConfidenceIntervals:
    def test_intervals_bracket_estimates(self, prepared):
        query, answers, features, normalized = prepared
        result = estimate_with_confidence(
            answers, query, features, normalized, budget=6, seed=1
        )
        assert result.groups
        for interval in result.groups.values():
            assert np.all(interval.lower <= interval.estimate + 1e-9)
            assert np.all(interval.estimate <= interval.upper + 1e-9)

    def test_probes_cost_extra_reads(self, prepared):
        query, answers, features, normalized = prepared
        lean = estimate_with_confidence(
            answers, query, features, normalized, budget=4, probes_per_cluster=1
        )
        rich = estimate_with_confidence(
            answers, query, features, normalized, budget=4, probes_per_cluster=3
        )
        assert rich.partitions_read >= lean.partitions_read

    def test_full_budget_intervals_collapse(self, prepared, trained_ps3):
        query, answers, features, normalized = prepared
        n = trained_ps3.ptable.num_partitions
        result = estimate_with_confidence(
            answers, query, features, normalized, budget=n
        )
        for interval in result.groups.values():
            # Singleton clusters: zero within-cluster variance for SUMs.
            width = interval.upper[0] - interval.lower[0]
            assert width == pytest.approx(0.0, abs=1e-6)

    def test_coverage_empirically_reasonable(self, prepared, trained_ps3):
        """The 95% CI should cover the truth for most SUM groups."""
        query, answers, features, normalized = prepared
        exact = trained_ps3.execute_exact(query)
        covered = total = 0
        for seed in range(12):
            result = estimate_with_confidence(
                answers, query, features, normalized,
                budget=8, probes_per_cluster=2, seed=seed,
            )
            for key, interval in result.groups.items():
                if key not in exact:
                    continue
                total += 1
                truth = exact[key][0]  # the SUM aggregate
                covered += interval.lower[0] - 1e-9 <= truth <= interval.upper[0] + 1e-9
        assert total > 0
        assert covered / total >= 0.6  # normal approx + probe noise

    def test_validation(self, prepared):
        query, answers, features, normalized = prepared
        with pytest.raises(ConfigError):
            estimate_with_confidence(
                answers, query, features, normalized, budget=3, probes_per_cluster=0
            )

    def test_full_budget_avg_estimate_matches_exact(self, prepared, trained_ps3):
        """The AVG CI math runs on SUM/COUNT *components*.

        With budget = all partitions every cluster is a singleton at
        weight 1, so the AVG estimate must equal the exact AVG. (A
        regression guard: combining through finalized aggregates instead
        of components used to feed the finalized AVG into the SUM slot.)
        """
        query, answers, features, normalized = prepared
        n = trained_ps3.ptable.num_partitions
        result = estimate_with_confidence(
            answers, query, features, normalized, budget=n
        )
        exact = trained_ps3.execute_exact(query)
        for key, interval in result.groups.items():
            if key not in exact:
                continue
            # Aggregate order: SUM, COUNT, AVG — compare the AVG slot.
            assert interval.estimate[2] == pytest.approx(exact[key][2], rel=1e-9)

    def test_block_and_dict_answers_agree(self, prepared, trained_ps3):
        """The executor's block, indexed in place, must give the intervals
        its materialized dict list gives."""
        query, block, features, normalized = prepared
        dict_result = estimate_with_confidence(
            list(block), query, features, normalized, budget=5, seed=4
        )
        block_result = estimate_with_confidence(
            block, query, features, normalized, budget=5, seed=4
        )
        assert set(block_result.groups) == set(dict_result.groups)
        assert block_result.partitions_read == dict_result.partitions_read
        for key, interval in block_result.groups.items():
            reference = dict_result.groups[key]
            np.testing.assert_array_equal(interval.estimate, reference.estimate)
            np.testing.assert_allclose(interval.lower, reference.lower)
            np.testing.assert_allclose(interval.upper, reference.upper)

    def test_empty_passing_set(self, trained_ps3):
        query = Query([count_star()], Comparison("l_quantity", ">", 1e9))
        answers = BatchExecutor.for_table(trained_ps3.ptable).partition_answers(query)
        features = trained_ps3.feature_builder.features_for_query(query)
        normalized = trained_ps3.model.normalizer.transform(features.matrix)
        result = estimate_with_confidence(
            answers, query, features, normalized, budget=3
        )
        assert result.groups == {}
        assert result.partitions_read == 0


class TestFailureDetection:
    def test_healthy_query(self, trained_ps3):
        query = Query(
            [count_star()], Comparison("l_quantity", ">", 10.0), ("l_returnflag",)
        )
        features = trained_ps3.feature_builder.features_for_query(query)
        diagnostics = diagnose_query(query, features)
        assert diagnostics.healthy
        assert diagnostics.recommendations == []

    def test_complex_predicate_flagged(self, trained_ps3):
        clauses = [Comparison("l_quantity", ">", float(i)) for i in range(12)]
        query = Query([count_star()], Or([And(clauses[:6]), And(clauses[6:])]))
        features = trained_ps3.feature_builder.features_for_query(query)
        diagnostics = diagnose_query(query, features)
        assert diagnostics.complex_predicate
        assert any("clauses" in r for r in diagnostics.recommendations)

    def test_highly_selective_flagged(self, trained_ps3):
        # An equality on a continuous column matches ~one row anywhere.
        query = Query(
            [count_star()],
            Comparison("l_extendedprice", "==", 123456.789),
        )
        features = trained_ps3.feature_builder.features_for_query(query)
        diagnostics = diagnose_query(
            query, features, DiagnosticThresholds(selective_upper=0.01)
        )
        if features.passing_partitions().size:
            assert diagnostics.highly_selective

    def test_distinct_group_by_flagged(self, trained_ps3):
        query = Query(
            [count_star()],
            group_by=("n1_name", "p_brand", "l_shipmode"),
        )
        features = trained_ps3.feature_builder.features_for_query(query)
        diagnostics = diagnose_query(
            query, features, DiagnosticThresholds(groups_per_partition=1.0)
        )
        assert diagnostics.distinct_group_by
        assert diagnostics.estimated_groups > trained_ps3.ptable.num_partitions

    def test_no_group_by_no_distinctness_flag(self, trained_ps3):
        query = Query([count_star()])
        features = trained_ps3.feature_builder.features_for_query(query)
        diagnostics = diagnose_query(query, features)
        assert not diagnostics.distinct_group_by
        assert diagnostics.estimated_groups == 0.0
