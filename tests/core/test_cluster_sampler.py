"""Unit tests for sample-via-clustering."""

import numpy as np
import pytest

import repro.core.cluster_sampler as sampler_module
from repro.core.cluster_sampler import cluster_sample, random_sample
from repro.errors import ConfigError


@pytest.fixture
def redundant_features():
    """12 partitions in 3 identical groups of 4 (plus tiny jitter)."""
    rng = np.random.default_rng(0)
    base = np.repeat(np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]), 4, axis=0)
    return base + rng.normal(0, 1e-3, base.shape)


class TestClusterSample:
    def test_weights_sum_to_candidate_count(self, redundant_features):
        candidates = np.arange(12)
        selection = cluster_sample(redundant_features, candidates, budget=3)
        assert sum(c.weight for c in selection) == 12.0
        assert len(selection) == 3

    def test_redundant_groups_collapse(self, redundant_features):
        selection = cluster_sample(redundant_features, np.arange(12), budget=3)
        # One exemplar per redundant group of four.
        assert sorted(c.weight for c in selection) == [4.0, 4.0, 4.0]
        picked_groups = {c.partition // 4 for c in selection}
        assert picked_groups == {0, 1, 2}

    def test_budget_at_least_candidates_returns_all(self, redundant_features):
        selection = cluster_sample(redundant_features, np.arange(12), budget=20)
        assert len(selection) == 12
        assert all(c.weight == 1.0 for c in selection)

    def test_zero_budget(self, redundant_features):
        assert cluster_sample(redundant_features, np.arange(12), 0) == []

    def test_candidate_subset_respected(self, redundant_features):
        candidates = np.array([0, 1, 4, 5])
        selection = cluster_sample(redundant_features, candidates, budget=2)
        assert {c.partition for c in selection} <= set(candidates.tolist())
        assert sum(c.weight for c in selection) == 4.0

    def test_median_exemplar_deterministic(self, redundant_features):
        a = cluster_sample(redundant_features, np.arange(12), 3)
        b = cluster_sample(redundant_features, np.arange(12), 3)
        assert [(c.partition, c.weight) for c in a] == [
            (c.partition, c.weight) for c in b
        ]

    def test_random_exemplar_unbiased_membership(self, redundant_features):
        rng = np.random.default_rng(0)
        seen = set()
        for __ in range(20):
            selection = cluster_sample(
                redundant_features,
                np.arange(12),
                3,
                exemplar="random",
                rng=rng,
            )
            seen |= {c.partition for c in selection}
        # Random exemplars eventually visit more partitions than the 3
        # deterministic medians.
        assert len(seen) > 3

    def test_random_exemplar_is_unbiased(self):
        """Over seeds, the mean of sum(weight x value) is the candidates'
        total; the median exemplar's one estimate is not (the control)."""
        rng = np.random.default_rng(4)
        centers = rng.normal(0.0, 10.0, (4, 3))
        matrix = np.repeat(centers, 6, axis=0) + rng.normal(0.0, 0.5, (24, 3))
        candidates = rng.permutation(30)[:24]
        features = np.zeros((30, 3))
        features[candidates] = matrix
        values = rng.exponential(5.0, 30)
        total = values[candidates].sum()

        def estimate(exemplar, rng=None):
            selection = cluster_sample(features, candidates, 4, exemplar, rng)
            assert len(selection) == 4
            return sum(c.weight * values[c.partition] for c in selection)

        estimates = np.array(
            [estimate("random", np.random.default_rng(seed)) for seed in range(2_000)]
        )
        error = 4.0 * estimates.std() / np.sqrt(estimates.size)
        assert abs(estimates.mean() - total) <= error
        median = estimate("median")
        assert abs(median - total) > error

    def test_random_exemplar_needs_an_rng(self, redundant_features):
        with pytest.raises(ConfigError):
            cluster_sample(redundant_features, np.arange(12), 3, exemplar="random")

    def test_bad_exemplar_rejected(self, redundant_features):
        with pytest.raises(ConfigError):
            cluster_sample(redundant_features, np.arange(12), 3, exemplar="first")


class TestRandomSample:
    def test_weights_scale(self):
        rng = np.random.default_rng(1)
        selection = random_sample(np.arange(10), 5, rng)
        assert len(selection) == 5
        assert all(c.weight == 2.0 for c in selection)

    def test_without_replacement(self):
        rng = np.random.default_rng(2)
        selection = random_sample(np.arange(10), 10, rng)
        assert len({c.partition for c in selection}) == 10

    def test_empty_candidates(self):
        rng = np.random.default_rng(3)
        assert random_sample(np.empty(0, dtype=np.intp), 3, rng) == []


def widened(matrix, width, seed):
    """``matrix`` scattered into ``width`` columns in a seeded order, the
    other columns zero: the same points under another mask layout."""
    rng = np.random.default_rng(seed)
    columns = rng.permutation(width)[: matrix.shape[1]]
    wide = np.zeros((matrix.shape[0], width))
    wide[:, columns] = matrix
    return wide


class TestTieRule:
    """The exemplar and the KMeans seeds are functions of the points, not
    of how wide the block is, what order its columns are in, or
    last-digit rounding."""

    LAYOUTS = [(7, 0), (7, 1), (60, 2), (478, 3), (478, 4)]

    def test_two_member_clusters_yield_the_lowest_partition_id(self):
        rng = np.random.default_rng(5)
        # Three well-separated pairs; within a pair the two members differ
        # in every column, so which is "closer" to their midpoint is
        # rounding alone.
        centers = np.array([[0.0] * 7, [50.0] * 7, [-50.0] * 7])
        points = np.repeat(centers, 2, axis=0) + rng.normal(0, 1.0, (6, 7))
        candidates = np.array([9, 4, 11, 2, 7, 5])  # not in id order
        matrix = np.zeros((12, 7))
        matrix[candidates] = points
        for width, seed in self.LAYOUTS:
            selection = cluster_sample(
                widened(matrix, width, seed), candidates, budget=3
            )
            assert sorted((c.partition, c.weight) for c in selection) == [
                (2, 2.0),
                (4, 2.0),
                (5, 2.0),
            ]

    def test_duplicate_rows_tie_to_the_lowest_partition_id(self):
        rng = np.random.default_rng(6)
        prototypes = rng.normal(0, 10.0, (2, 7))
        # Cluster A: ids 8, 3, 6 identical and 1 slightly off, so the
        # median is the duplicated row and three members are at distance
        # exactly 0. Cluster B: ids 0, 5, 7 around another point.
        matrix = np.zeros((9, 7))
        matrix[[8, 3, 6]] = prototypes[0]
        matrix[1] = prototypes[0] + 1e-3
        matrix[[0, 5, 7]] = prototypes[1] + rng.normal(0, 1e-3, (3, 7))
        candidates = np.array([8, 7, 6, 5, 3, 1, 0])
        picks = set()
        for width, seed in self.LAYOUTS:
            selection = cluster_sample(
                widened(matrix, width, seed), candidates, budget=2
            )
            picks.add(tuple(sorted((c.partition, c.weight) for c in selection)))
        assert len(picks) == 1
        assert (3, 4.0) in picks.pop()

    def test_distances_within_the_tolerance_are_a_tie(self):
        # Ids 6 and 2 mirror each other about the median row (id 4), whose
        # own distance is 0; drop it from the candidates and the two are
        # equidistant up to rounding in 5 of 6 columns.
        base = np.array([1.0, -2.0, 0.5, 3.0, -1.5, 0.25])
        step = np.array([0.1, 0.3, -0.2, 0.7, 0.05, -0.4])
        matrix = np.zeros((8, 6))
        matrix[6], matrix[2] = base + step, base - step
        matrix[1], matrix[5] = base + 5 * step, base - 5 * step
        candidates = np.array([6, 5, 2, 1])
        for width, seed in self.LAYOUTS:
            selection = cluster_sample(
                widened(matrix, width, seed), candidates, budget=1
            )
            assert [(c.partition, c.weight) for c in selection] == [(2, 4.0)]

    # KMeans' seeds are a function of the points too: equal rows at a
    # mid-quantile seed once, from the lowest position, and ranked
    # projections share a key while each gap is at most 1e-9 of the
    # largest, whatever the layout's rounding.

    def test_seeds_duplicate_rows_at_a_quantile_position_once(self, monkeypatch):
        # Distinct positions 0 1 2 6 7 12 13: the mid-quantiles of three
        # seeds are 1, 6 and 12, and 6 and 12 are duplicated rows.
        positions = [12, 0, 6, 0, 13, 1, 6, 0, 7, 2, 12]
        matrix, candidates = on_a_line(positions, 0.0, seed=11)
        picks, labels = picks_under_layouts(matrix, candidates, 3, monkeypatch)
        strata = {0: 0, 1: 0, 2: 0, 6: 1, 7: 1, 12: 2, 13: 2}
        # Seeded in quantile order: cluster ids follow the positions.
        assert labels == tuple(strata[p] for p in positions)
        lowest = [
            min(c for c, p in zip(candidates, positions) if p == at)
            for at in (0, 6, 12)
        ]
        assert picks == [(lowest[0], 5.0), (lowest[1], 3.0), (lowest[2], 3.0)]

    def test_seed_projections_within_the_tolerance_share_a_key(self, monkeypatch):
        # Each position's rows differ by noise 1e-13 of the spread: one
        # key each, so the seeds are the rows at positions 0, 8 and 9.
        positions = [8, 0, 3, 9, 0, 8, 3, 0, 8, 3, 8, 0]
        matrix, candidates = on_a_line(positions, 1e-12, seed=12)
        picks, labels = picks_under_layouts(matrix, candidates, 3, monkeypatch)
        strata = {0: 0, 3: 0, 8: 1, 9: 2}
        assert labels == tuple(strata[p] for p in positions)
        assert [weight for __, weight in picks] == [7.0, 4.0, 1.0]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("budget", [3, 4, 6])
    def test_rows_tied_in_projection_seed_from_the_lowest_row(
        self, seed, budget, monkeypatch
    ):
        # Distinct rows whose projections differ only by rounding share
        # one key; seeding it from its lowest row, not from whichever
        # projection a layout rounds lowest, keeps every layout's fit.
        rng = np.random.default_rng(seed)
        direction = rng.normal(0.0, 1.0, 7)
        spokes = rng.normal(0.0, 1.0, (6, 7))
        spokes -= np.outer(spokes @ direction / (direction @ direction), direction)
        rows = np.vstack([spokes, -spokes, np.tile(10.0 * direction, (3, 1))])
        candidates = rng.permutation(rows.shape[0] + 4)[: rows.shape[0]]
        matrix = np.zeros((rows.shape[0] + 4, 7))
        matrix[candidates] = rows[rng.permutation(rows.shape[0])]
        picks, __ = picks_under_layouts(matrix, candidates, budget, monkeypatch)
        assert len(picks) == budget

    def test_equal_rows_seed_one_cluster(self, monkeypatch):
        matrix, candidates = on_a_line([4] * 9, 0.0, seed=13)
        picks, labels = picks_under_layouts(matrix, candidates, 3, monkeypatch)
        assert labels == (0,) * 9
        assert picks == [(int(candidates.min()), 9.0)]


def on_a_line(positions, noise, seed):
    """Rows at ``positions`` along one direction of 7 columns, plus
    ``noise`` (scale) in every column; the rows go to a shuffled set of
    partition ids. Returns the matrix and the candidates in row order."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(0.0, 1.0, 7)
    rows = np.outer(positions, direction) + rng.normal(0.0, noise, (len(positions), 7))
    candidates = rng.permutation(len(positions) + 4)[: len(positions)]
    matrix = np.zeros((len(positions) + 4, 7))
    matrix[candidates] = rows
    return matrix, candidates


def picks_under_layouts(matrix, candidates, budget, monkeypatch):
    """The one selection and the one labelling every layout gives."""
    picks, labellings = set(), set()
    original = sampler_module._cluster_labels

    def recording(*args):
        labels = original(*args)
        labellings.add(tuple(labels.tolist()))
        return labels

    monkeypatch.setattr(sampler_module, "_cluster_labels", recording)
    for width, seed in TestTieRule.LAYOUTS:
        selection = cluster_sample(widened(matrix, width, seed), candidates, budget)
        picks.add(tuple((c.partition, c.weight) for c in selection))
    assert len(picks) == 1 and len(labellings) == 1
    return list(picks.pop()), labellings.pop()


class TestNonFiniteFeatures:
    def test_nan_and_inf_entries_cluster_as_zero(self, redundant_features):
        poisoned = redundant_features.copy()
        poisoned[5] = [np.nan, np.inf]
        poisoned[9, 0] = -np.inf
        cleaned = np.where(np.isfinite(poisoned), poisoned, 0.0)
        selection = cluster_sample(poisoned, np.arange(12), budget=3)
        assert selection == cluster_sample(cleaned, np.arange(12), budget=3)
        assert sum(c.weight for c in selection) == 12
