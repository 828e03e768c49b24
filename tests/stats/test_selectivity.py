"""Unit tests for per-partition selectivity estimation.

The load-bearing property is *perfect recall*: ``upper == 0`` must imply
no row of the partition satisfies the predicate (paper section 3.2). The
tests check that against ground truth for randomized predicates, plus the
paper's combination rules for AND/OR/NOT and the joint handling of
same-column clauses.
"""

import numpy as np
import pytest
from sketch_oracle import (
    SelectivityEstimate,
    build_partition_statistics,
    estimate_selectivity,
)

from repro.engine.predicates import And, Comparison, Contains, InSet, Not, Or


@pytest.fixture(scope="module")
def partition_and_stats(tiny_ptable):
    partition = tiny_ptable[4]
    return partition, build_partition_statistics(partition)


def true_fraction(partition, predicate) -> float:
    mask = predicate.mask(partition.columns)
    return float(mask.mean())


class TestNoPredicate:
    def test_none_is_full_selectivity(self, partition_and_stats):
        __, stats = partition_and_stats
        estimate = estimate_selectivity(None, stats)
        assert estimate == SelectivityEstimate.exact(1.0)


class TestPerfectRecall:
    """upper == 0 must never happen when rows actually match."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_conjunctions(self, partition_and_stats, seed):
        partition, stats = partition_and_stats
        gen = np.random.default_rng(seed)
        columns = partition.columns
        clauses = []
        for __ in range(gen.integers(1, 4)):
            roll = gen.random()
            if roll < 0.4:
                value = float(gen.choice(columns["x"]))
                clauses.append(Comparison("x", str(gen.choice(["<", ">="])), value))
            elif roll < 0.7:
                value = int(gen.choice(columns["d"]))
                clauses.append(Comparison("d", "<=", value))
            else:
                value = str(gen.choice(columns["cat"]))
                clauses.append(InSet("cat", {value}))
        predicate = And(clauses) if len(clauses) > 1 else clauses[0]
        truth = true_fraction(partition, predicate)
        estimate = estimate_selectivity(predicate, stats)
        if truth > 0:
            assert estimate.upper > 0.0

    def test_impossible_range_is_zero(self, partition_and_stats):
        __, stats = partition_and_stats
        predicate = And(
            [Comparison("x", "<", 1.0), Comparison("x", ">", 10.0)]
        )
        estimate = estimate_selectivity(predicate, stats)
        assert estimate.upper == 0.0

    def test_absent_category_is_zero(self, partition_and_stats):
        __, stats = partition_and_stats
        estimate = estimate_selectivity(InSet("cat", {"no-such-value"}), stats)
        assert estimate.upper == 0.0


class TestCombinationRules:
    def test_and_upper_is_min(self, partition_and_stats):
        __, stats = partition_and_stats
        a = Comparison("d", "<", 200.0)  # everything
        b = InSet("cat", {"dd"})  # rare
        joint = estimate_selectivity(And([a, b]), stats)
        b_alone = estimate_selectivity(b, stats)
        assert joint.upper == pytest.approx(
            min(1.0, b_alone.upper), abs=1e-9
        )

    def test_and_indep_is_product(self, partition_and_stats):
        __, stats = partition_and_stats
        a = InSet("cat", {"a"})
        b = InSet("tag", {"t001"})
        sa = estimate_selectivity(a, stats).indep
        sb = estimate_selectivity(b, stats).indep
        joint = estimate_selectivity(And([a, b]), stats)
        assert joint.indep == pytest.approx(sa * sb)

    def test_or_upper_is_capped_sum(self, partition_and_stats):
        __, stats = partition_and_stats
        a = InSet("cat", {"a"})
        b = InSet("cat", {"b"})
        sa = estimate_selectivity(a, stats).upper
        sb = estimate_selectivity(b, stats).upper
        joint = estimate_selectivity(Or([a, b]), stats)
        assert joint.upper == pytest.approx(min(1.0, sa + sb))

    def test_or_indep_follows_paper_min_rule(self, partition_and_stats):
        __, stats = partition_and_stats
        a = InSet("cat", {"a"})
        b = InSet("cat", {"dd"})
        sa = estimate_selectivity(a, stats).indep
        sb = estimate_selectivity(b, stats).indep
        joint = estimate_selectivity(Or([a, b]), stats)
        assert joint.indep == pytest.approx(min(sa, sb))

    def test_not_complements(self, partition_and_stats):
        __, stats = partition_and_stats
        clause = InSet("cat", {"a"})
        direct = estimate_selectivity(clause, stats)
        negated = estimate_selectivity(Not(clause), stats)
        assert negated.upper == pytest.approx(1.0 - direct.lower)
        assert negated.indep == pytest.approx(1.0 - direct.indep)

    def test_clause_min_max_bracket(self, partition_and_stats):
        __, stats = partition_and_stats
        predicate = And(
            [InSet("cat", {"a"}), InSet("cat", {"dd"}), Comparison("x", ">", 2.0)]
        )
        estimate = estimate_selectivity(predicate, stats)
        assert estimate.clause_min <= estimate.clause_max


class TestJointSameColumn:
    def test_conjoined_ranges_narrow(self, partition_and_stats):
        partition, stats = partition_and_stats
        predicate = And(
            [Comparison("x", ">=", 5.0), Comparison("x", "<", 15.0)]
        )
        truth = true_fraction(partition, predicate)
        estimate = estimate_selectivity(predicate, stats)
        assert estimate.indep == pytest.approx(truth, abs=0.15)
        # Joint handling: the combined estimate must be well below the
        # independence product of the marginals when ranges overlap a lot.
        lo = estimate_selectivity(Comparison("x", ">=", 5.0), stats).indep
        hi = estimate_selectivity(Comparison("x", "<", 15.0), stats).indep
        assert estimate.indep <= min(lo, hi) + 1e-9

    def test_contradictory_equalities(self, partition_and_stats):
        __, stats = partition_and_stats
        predicate = And(
            [Comparison("x", "==", 2.0), Comparison("x", "==", 9.0)]
        )
        assert estimate_selectivity(predicate, stats).upper == 0.0


class TestAccuracy:
    @pytest.mark.parametrize("quantile", [0.1, 0.5, 0.9])
    def test_range_estimates_close(self, partition_and_stats, quantile):
        partition, stats = partition_and_stats
        threshold = float(np.quantile(partition.column("x"), quantile))
        predicate = Comparison("x", "<=", threshold)
        truth = true_fraction(partition, predicate)
        estimate = estimate_selectivity(predicate, stats)
        assert estimate.indep == pytest.approx(truth, abs=0.1)

    def test_exact_dict_contains(self, partition_and_stats):
        partition, stats = partition_and_stats
        predicate = Contains("cat", "d")
        truth = true_fraction(partition, predicate)
        estimate = estimate_selectivity(predicate, stats)
        assert estimate.indep == pytest.approx(truth, abs=1e-9)

    def test_categorical_frequency(self, partition_and_stats):
        partition, stats = partition_and_stats
        predicate = InSet("cat", {"a"})
        truth = true_fraction(partition, predicate)
        estimate = estimate_selectivity(predicate, stats)
        assert estimate.indep == pytest.approx(truth, abs=0.05)
