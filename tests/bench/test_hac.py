"""Unit tests for hierarchical agglomerative clustering, Table 6's
alternative to the picker's KMeans, and the bench variants built on it."""

import numpy as np
import pytest

from repro.bench.hac import agglomerative, hac_sample
from repro.bench.pickers import HACClusteringOnly, HACErrorEvaluator
from repro.engine.aggregates import count_star, sum_of
from repro.engine.expressions import col
from repro.engine.predicates import Comparison
from repro.engine.query import Query
from repro.errors import ConfigError


@pytest.fixture
def three_blobs():
    rng = np.random.default_rng(3)
    return np.vstack(
        [
            rng.normal((0, 0), 0.15, (30, 2)),
            rng.normal((6, 0), 0.15, (30, 2)),
            rng.normal((0, 6), 0.15, (30, 2)),
        ]
    )


class TestLinkages:
    @pytest.mark.parametrize("linkage", ["single", "complete", "average", "ward"])
    def test_recovers_blobs(self, three_blobs, linkage):
        labels = agglomerative(three_blobs, 3, linkage)
        for start in (0, 30, 60):
            block = labels[start : start + 30]
            assert len(np.unique(block)) == 1
        assert len(np.unique(labels)) == 3

    def test_single_linkage_chains(self):
        # A dense chain plus one distant point: single linkage keeps the
        # chain whole where ward prefers balanced splits.
        chain = np.column_stack([np.linspace(0, 10, 50), np.zeros(50)])
        outlier = np.array([[100.0, 0.0]])
        points = np.vstack([chain, outlier])
        labels = agglomerative(points, 2, "single")
        assert len(np.unique(labels[:50])) == 1
        assert labels[50] != labels[0]

    def test_ward_splits_by_variance(self, three_blobs):
        labels2 = agglomerative(three_blobs, 2, "ward")
        sizes = np.bincount(labels2)
        assert sorted(sizes.tolist()) == [30, 60]


class TestStructure:
    def test_n_clusters_equals_points_is_identity(self):
        points = np.random.default_rng(0).normal(size=(7, 3))
        labels = agglomerative(points, 7)
        assert len(np.unique(labels)) == 7

    def test_n_clusters_larger_than_points(self):
        points = np.random.default_rng(0).normal(size=(4, 2))
        labels = agglomerative(points, 10)
        assert len(np.unique(labels)) == 4

    def test_one_cluster(self, three_blobs):
        labels = agglomerative(three_blobs, 1)
        assert len(np.unique(labels)) == 1

    def test_labels_contiguous(self, three_blobs):
        labels = agglomerative(three_blobs, 5, "ward")
        assert set(labels) == set(range(5))

    def test_identical_points_merge_first(self):
        points = np.array([[0.0], [0.0], [5.0], [5.0], [99.0]])
        labels = agglomerative(points, 3, "average")
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[4] not in (labels[0], labels[2])


class TestValidation:
    def test_bad_linkage(self):
        with pytest.raises(ConfigError):
            agglomerative(np.zeros((3, 2)), 2, "median")

    def test_bad_cluster_count(self):
        with pytest.raises(ConfigError):
            agglomerative(np.zeros((3, 2)), 0)

    def test_empty_input(self):
        with pytest.raises(ConfigError):
            agglomerative(np.empty((0, 2)), 1)


@pytest.fixture
def redundant_features():
    """12 partitions in 3 identical groups of 4 (plus tiny jitter)."""
    rng = np.random.default_rng(0)
    base = np.repeat(np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]), 4, axis=0)
    return base + rng.normal(0, 1e-3, base.shape)


class TestHACSample:
    @pytest.mark.parametrize("linkage", ["ward", "single", "average"])
    def test_all_linkages_work(self, redundant_features, linkage):
        selection = hac_sample(redundant_features, np.arange(12), 3, linkage)
        assert sum(c.weight for c in selection) == 12.0

    def test_unknown_linkage_rejected(self, redundant_features):
        with pytest.raises(ConfigError):
            hac_sample(redundant_features, np.arange(12), 3, "dbscan")

    def test_nan_and_inf_entries_cluster_as_zero(self, redundant_features):
        poisoned = redundant_features.copy()
        poisoned[5] = [np.nan, np.inf]
        poisoned[9, 0] = -np.inf
        cleaned = np.where(np.isfinite(poisoned), poisoned, 0.0)
        selection = hac_sample(poisoned, np.arange(12), 3, "ward")
        assert selection == hac_sample(cleaned, np.arange(12), 3, "ward")
        assert sum(c.weight for c in selection) == 12


class TestBenchVariants:
    def test_hac_clustering_only_covers_the_passing_partitions(self, trained_ps3):
        query = Query(
            [sum_of(col("l_extendedprice")), count_star()],
            Comparison("l_quantity", ">", 10.0),
            ("l_returnflag",),
        )
        picker = HACClusteringOnly(trained_ps3.model, "ward")
        features = trained_ps3.feature_builder.features_for_query(query)
        result = picker.select(query, budget=10)
        assert result.outliers == [] and len(result.group_sizes) == 1
        assert result.used_clustering and len(result.selection) == 10
        weights = sum(c.weight for c in result.selection)
        assert weights == features.passing_partitions().size

    def test_hac_error_evaluator_scores_ward_clusters(self, trained_ps3):
        kwargs = dict(budget_fractions=(0.25,), max_queries=4, seed=0)
        schema = trained_ps3.feature_builder.schema
        ward = HACErrorEvaluator(schema, trained_ps3.training_data, **kwargs)
        error = ward.error(frozenset())
        assert 0.0 <= error < float("inf")
        assert ward.error(frozenset()) == error  # cached
