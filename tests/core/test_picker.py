"""Unit tests for the full PS3 picker (Algorithm 1)."""

import numpy as np
import pytest

from repro.api import answer_with_selection
from repro.bench.pickers import NoClustering, NoOutliers, NoRegressors
from repro.core.picker import PickerConfig, PS3Picker
from repro.engine.aggregates import count_star, sum_of
from repro.engine.expressions import col
from repro.engine.predicates import And, Comparison, Or
from repro.engine.query import Query
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def picker(trained_ps3):
    return PS3Picker(trained_ps3.model, PickerConfig(seed=5))


@pytest.fixture(scope="module")
def grouped_query():
    return Query(
        [sum_of(col("l_extendedprice")), count_star()],
        Comparison("l_quantity", ">", 10.0),
        ("l_returnflag",),
    )


class TestBudgetHandling:
    def test_selection_size_matches_budget(self, picker, grouped_query):
        result = picker.select(grouped_query, budget=5)
        assert len(result.selection) == 5

    def test_budget_above_passing_returns_exact(
        self, picker, grouped_query, tpch_ptable
    ):
        result = picker.select(grouped_query, budget=tpch_ptable.num_partitions)
        assert all(c.weight == 1.0 for c in result.selection)

    def test_zero_budget(self, picker, grouped_query):
        assert picker.select(grouped_query, 0).selection == []

    def test_negative_budget_rejected(self, picker, grouped_query):
        with pytest.raises(ConfigError):
            picker.select(grouped_query, -1)

    def test_impossible_predicate_selects_nothing(self, picker):
        query = Query([count_star()], Comparison("l_quantity", ">", 1e9))
        result = picker.select(query, budget=4)
        assert result.selection == []


class TestWeights:
    def test_weights_cover_passing_partitions(self, picker, grouped_query, tpch_ptable):
        result = picker.select(grouped_query, budget=6)
        total_weight = sum(c.weight for c in result.selection)
        # Outliers (weight 1) + cluster weights (= group sizes) must cover
        # every passing partition exactly once.
        assert total_weight == pytest.approx(tpch_ptable.num_partitions, abs=1e-9)

    def test_outliers_have_unit_weight(self, picker, grouped_query):
        result = picker.select(grouped_query, budget=6)
        outlier_set = set(result.outliers)
        for choice in result.selection:
            if choice.partition in outlier_set:
                assert choice.weight == 1.0

    def test_no_duplicate_partitions(self, picker, grouped_query):
        result = picker.select(grouped_query, budget=8)
        partitions = result.partitions
        assert len(partitions) == len(set(partitions))


class TestComponentToggles:
    """The uniform fallback is the picker's own; the lesions are the
    Figure 4 variants of :mod:`repro.bench.pickers`."""

    def test_clustering_fallback_for_complex_predicates(self, trained_ps3):
        clauses = [
            Comparison("l_quantity", ">", float(i)) for i in range(6)
        ] + [Comparison("p_size", "<", float(50 - i)) for i in range(6)]
        query = Query([count_star()], Or([And(clauses[:6]), And(clauses[6:])]))
        picker = PS3Picker(trained_ps3.model)
        result = picker.select(query, budget=4)
        assert not result.used_clustering  # 12 clauses > 10

    def test_lesion_no_outliers(self, picker, trained_ps3, grouped_query):
        assert picker.select(grouped_query, budget=10).outliers  # the control
        lesioned = NoOutliers(trained_ps3.model)
        result = lesioned.select(grouped_query, budget=10)
        assert result.outliers == []

    def test_lesion_no_regressors_single_group(self, trained_ps3, grouped_query):
        picker = NoRegressors(trained_ps3.model)
        result = picker.select(grouped_query, budget=5)
        assert len(result.group_sizes) == 1

    def test_lesion_no_clustering_uses_random(
        self, trained_ps3, grouped_query, tpch_ptable
    ):
        class UniformWithoutOutliers(NoClustering, NoOutliers):
            pass

        picker = UniformWithoutOutliers(trained_ps3.model)
        result = picker.select(grouped_query, budget=5)
        assert not result.used_clustering
        total_weight = sum(c.weight for c in result.selection)
        assert total_weight == pytest.approx(tpch_ptable.num_partitions, rel=0.01)


class TestRandomExemplar:
    def test_sum_and_count_are_unbiased(self, trained_ps3, grouped_query):
        """Over seeds, the mean weighted SUM and COUNT of the random
        exemplar's picks is the exact answer, group by group: the
        outliers, the funnel and the clusters are fixed, and each
        cluster's exemplar is a uniform draw weighted by its size."""
        exact = trained_ps3.execute_exact(grouped_query)
        keys = sorted(exact)
        estimates = []
        for seed in range(1_000):
            picker = PS3Picker(
                trained_ps3.model, PickerConfig(exemplar="random", seed=seed)
            )
            result = picker.select(grouped_query, budget=10)
            assert result.used_clustering and len(result.selection) == 10
            answer = answer_with_selection(
                trained_ps3.ptable, grouped_query, result.selection
            )
            estimates.append([answer.get(key, np.zeros(2)) for key in keys])
        estimates = np.array(estimates)  # seeds x groups x (SUM, COUNT)
        truth = np.array([exact[key] for key in keys])
        spread = estimates.std(axis=0)
        assert spread.max() > 0.0  # the draws do differ
        error = 4.0 * spread / np.sqrt(len(estimates)) + 1e-9 * np.abs(truth)
        assert np.all(np.abs(estimates.mean(axis=0) - truth) <= error)


class TestDiagnostics:
    def test_group_budget_sums(self, picker, grouped_query):
        result = picker.select(grouped_query, budget=8)
        assert sum(result.group_budgets) == 8 - len(result.outliers)

    def test_outlier_budget_capped_at_fraction(self, picker, grouped_query):
        features = picker.model.feature_builder.features_for_query(grouped_query)
        candidates = picker._outlier_candidates(
            grouped_query, features.passing_partitions()
        )
        assert candidates.size >= 1
        # "Up to 10%" rounds down: a budget of 5 reads no outlier although
        # there is a candidate (rounding up would read one).
        for budget in (5, 10, 15):
            result = picker.select(grouped_query, budget=budget)
            cap = int(np.floor(0.1 * budget))
            assert len(result.outliers) == min(cap, candidates.size)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": float("nan")},
            {"alpha": float("inf")},
            {"alpha": 0.5},
            {"alpha": True},
            {"alpha": "2"},
            {"exemplar": "bogus"},
            {"seed": True},
            {"seed": 1.5},
            {"seed": -1},
        ],
        ids=lambda kwargs: "{}={!r}".format(*next(iter(kwargs.items()))),
    )
    def test_config_validation(self, kwargs):
        # Each used to pass construction: a non-finite alpha starved the
        # most important group, the others failed at the first pick
        # that read them.
        with pytest.raises(ConfigError):
            PickerConfig(**kwargs)

    def test_config_defaults_valid(self):
        PickerConfig(exemplar="random", alpha=1, seed=0)
        PickerConfig(alpha=np.float64(3.0), seed=np.int64(7))
