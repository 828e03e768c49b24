"""Unit tests for the importance-group funnel (Algorithm 2)."""

import numpy as np

from repro.core.importance import importance_groups
from repro.ml.gbrt import GBRTRegressor


def make_regressor(boundary: float) -> GBRTRegressor:
    """A regressor scoring positive iff feature 0 exceeds ``boundary``."""
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, (600, 2))
    y = np.where(X[:, 0] > boundary, 1.0, -1.0)
    return GBRTRegressor(n_trees=20, max_depth=2, seed=1).fit(X, y)


class TestFunnel:
    def test_groups_partition_candidates(self):
        matrix = np.column_stack([np.linspace(0, 1, 20), np.zeros(20)])
        regressors = [make_regressor(0.3), make_regressor(0.7)]
        groups = importance_groups(matrix, np.arange(20), regressors)
        assert len(groups) == 3
        combined = np.concatenate(groups)
        assert sorted(combined.tolist()) == list(range(20))

    def test_funnel_ordering(self):
        matrix = np.column_stack([np.linspace(0, 1, 20), np.zeros(20)])
        regressors = [make_regressor(0.3), make_regressor(0.7)]
        groups = importance_groups(matrix, np.arange(20), regressors)
        # The most important group holds the highest-feature partitions.
        if groups[2].size:
            assert matrix[groups[2], 0].min() >= matrix[groups[0], 0].max()

    def test_each_stage_filters_previous_survivors(self):
        """A partition must pass every earlier model to reach group k."""
        matrix = np.column_stack([np.linspace(0, 1, 40), np.zeros(40)])
        regressors = [make_regressor(0.5), make_regressor(0.2)]
        groups = importance_groups(matrix, np.arange(40), regressors)
        # Stage 2's looser threshold cannot resurrect stage-1 rejects.
        if groups[0].size and groups[2].size:
            assert matrix[groups[0], 0].max() <= 0.6

    def test_empty_candidates(self):
        matrix = np.zeros((5, 2))
        groups = importance_groups(
            matrix, np.empty(0, dtype=np.intp), [make_regressor(0.5)]
        )
        assert all(g.size == 0 for g in groups)

    def test_no_regressors_single_group(self):
        matrix = np.zeros((5, 2))
        groups = importance_groups(matrix, np.arange(5), [])
        assert len(groups) == 1
        np.testing.assert_array_equal(groups[0], np.arange(5))


class TestEveryCandidateLandsInOneGroup:
    """The estimator's weights must account for every candidate."""

    @staticmethod
    def with_nan_leaf(regressor: GBRTRegressor) -> GBRTRegressor:
        """What a damaged legacy (checksum-less) model file can load as."""
        state = regressor.to_state()
        leaves = [i for i, f in enumerate(state["trees"][0]["feature"]) if f < 0]
        state["trees"][0]["value"][leaves[0]] = float("nan")
        return GBRTRegressor.from_state(state)

    def test_nan_score_stays_in_the_non_advancing_group(self):
        matrix = np.column_stack([np.linspace(0, 1, 40), np.zeros(40)])
        damaged = self.with_nan_leaf(make_regressor(0.5))
        scores = damaged.predict(matrix)
        assert np.isnan(scores).any() and (scores > 0.0).any()
        candidates = np.arange(40)[::-1]
        groups = importance_groups(matrix, candidates, [damaged, make_regressor(0.2)])
        np.testing.assert_array_equal(groups[0], candidates[~(scores[::-1] > 0.0)])
        assert sorted(np.concatenate(groups).tolist()) == list(range(40))

    def test_groups_are_a_permutation_of_candidates(self):
        rng = np.random.default_rng(3)
        matrix = rng.uniform(0, 1, (60, 2))
        matrix[rng.random((60, 2)) < 0.2] = np.nan
        funnels = [
            [make_regressor(0.3), make_regressor(0.6)],
            [self.with_nan_leaf(make_regressor(0.4)), make_regressor(0.1)],
            [make_regressor(0.9)] * 4,
        ]
        for regressors in funnels:
            candidates = rng.permutation(60)[: rng.integers(1, 60)]
            groups = importance_groups(matrix, candidates, regressors)
            assert len(groups) == len(regressors) + 1
            combined = np.concatenate(groups)
            assert sorted(combined.tolist()) == sorted(candidates.tolist())
            # Within a group, candidates keep the order they arrived in.
            position = {int(p): i for i, p in enumerate(candidates)}
            for group in groups:
                order = [position[int(p)] for p in group]
                assert order == sorted(order)
