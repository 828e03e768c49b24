"""Selectivity estimation on fallback paths.

The main selectivity tests cover dictionary-backed columns; these cover
the degraded paths: high-cardinality categoricals without exact
dictionaries (heavy-hitter / hashed-histogram fallbacks), Contains
without a dictionary (bounded by unseen mass), date columns, and deeply
nested predicate trees.
"""

import numpy as np
import pytest
from sketch_oracle import build_partition_statistics, estimate_selectivity

from repro.engine.predicates import And, Comparison, Contains, InSet, Not, Or


@pytest.fixture(scope="module")
def stats(tiny_ptable):
    # 'tag' has 300 distinct values and no exact dictionary.
    return tiny_ptable[2], build_partition_statistics(tiny_ptable[2])


class TestHighCardinalityCategorical:
    def test_in_estimate_positive_for_present_value(self, stats):
        partition, pstats = stats
        present = str(partition.column("tag")[0])
        estimate = estimate_selectivity(InSet("tag", {present}), pstats)
        assert estimate.upper > 0.0

    def test_in_estimate_small_for_rare_values(self, stats):
        partition, pstats = stats
        present = str(partition.column("tag")[0])
        estimate = estimate_selectivity(InSet("tag", {present}), pstats)
        # ~100 rows, 300-value vocabulary: any single tag is rare.
        assert estimate.indep < 0.25

    def test_contains_without_dictionary_bounds_truth(self, stats):
        partition, pstats = stats
        clause = Contains("tag", "t0")
        truth = float(clause.mask(partition.columns).mean())
        estimate = estimate_selectivity(clause, pstats)
        # No exact dictionary: the estimate comes from heavy hitters plus
        # an unseen-mass allowance; the upper must bound the truth.
        assert estimate.upper >= truth - 1e-9
        assert 0.0 <= estimate.indep <= estimate.upper + 1e-9

    def test_contains_recall_against_truth(self, stats):
        partition, pstats = stats
        clause = Contains("tag", "t1")
        truth = float(clause.mask(partition.columns).mean())
        estimate = estimate_selectivity(clause, pstats)
        if truth > 0:
            assert estimate.upper > 0.0


class TestDateColumns:
    def test_date_range_estimates(self, stats):
        partition, pstats = stats
        days = partition.column("d")
        mid = int(np.median(days))
        clause = Comparison("d", "<=", mid)
        truth = float((days <= mid).mean())
        estimate = estimate_selectivity(clause, pstats)
        assert estimate.indep == pytest.approx(truth, abs=0.25)

    def test_date_out_of_range_is_zero(self, stats):
        partition, pstats = stats
        above = int(partition.column("d").max()) + 10
        estimate = estimate_selectivity(Comparison("d", ">", above), pstats)
        assert estimate.upper == 0.0


class TestNestedTrees:
    def test_not_around_and(self, stats):
        partition, pstats = stats
        inner = And(
            [Comparison("x", ">", 5.0), Comparison("x", "<", 50.0)]
        )
        predicate = Not(inner)
        truth = float(predicate.mask(partition.columns).mean())
        estimate = estimate_selectivity(predicate, pstats)
        if truth > 0:
            assert estimate.upper > 0.0
        assert 0.0 <= estimate.indep <= 1.0

    def test_or_of_ands_mixed_columns(self, stats):
        partition, pstats = stats
        predicate = Or(
            [
                And([Comparison("x", ">", 3.0), InSet("cat", {"a"})]),
                And([Comparison("y", "<", 0.0), InSet("cat", {"b"})]),
            ]
        )
        truth = float(predicate.mask(partition.columns).mean())
        estimate = estimate_selectivity(predicate, pstats)
        if truth > 0:
            assert estimate.upper > 0.0
        assert estimate.lower <= estimate.upper + 1e-9

    def test_same_column_not_merged_across_or(self, stats):
        """OR keeps same-column clauses independent (no joint narrowing)."""
        __, pstats = stats
        a = Comparison("x", "<", 5.0)
        b = Comparison("x", ">", 50.0)
        joint = estimate_selectivity(Or([a, b]), pstats)
        sa = estimate_selectivity(a, pstats).upper
        sb = estimate_selectivity(b, pstats).upper
        assert joint.upper == pytest.approx(min(1.0, sa + sb))

    def test_deeply_nested_leaf_collection(self, stats):
        __, pstats = stats
        predicate = Not(
            Or(
                [
                    And([Comparison("x", ">", 1.0), Comparison("y", "<", 1.0)]),
                    Not(InSet("cat", {"c"})),
                ]
            )
        )
        estimate = estimate_selectivity(predicate, pstats)
        assert 0.0 <= estimate.clause_min <= estimate.clause_max <= 1.0
