"""Unit tests for the histogram regression tree builder."""

import numpy as np
import pytest
from per_node_reference import as_binned_matrix, predict_binned

from repro.errors import ConfigError
from repro.ml.tree import TreeBuilder


def build_tree(X_binned, gradients, **kwargs):
    builder = TreeBuilder(**kwargs)
    feature_ids = np.arange(X_binned.shape[1])
    tree, step = builder.build(as_binned_matrix(X_binned, 8), gradients, feature_ids)
    np.testing.assert_array_equal(step, predict_binned(tree, X_binned))
    return tree


class TestSplits:
    def test_perfect_split_found(self):
        # Feature 0 bin <= 3 has gradient +1, else -1.
        binned = np.column_stack(
            [np.repeat([0, 7], 50), np.zeros(100, dtype=np.int32)]
        ).astype(np.int32)
        gradients = np.repeat([1.0, -1.0], 50)
        tree = build_tree(binned, gradients, max_depth=2)
        assert tree.feature[0] == 0  # root splits on the signal feature
        predictions = predict_binned(tree, binned)
        # Negative-gradient step: predictions oppose gradients.
        assert predictions[0] < 0 < predictions[99]

    def test_no_split_when_gradients_uniform(self):
        binned = np.zeros((50, 3), dtype=np.int32)
        gradients = np.full(50, 2.0)
        tree = build_tree(binned, gradients)
        assert tree.feature[0] == -1  # root stays a leaf
        # Leaf value is the regularized mean step.
        assert tree.value[0] == pytest.approx(-100.0 / 51.0)

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(0)
        binned = rng.integers(0, 8, (500, 4)).astype(np.int32)
        gradients = rng.normal(size=500)
        tree = build_tree(binned, gradients, max_depth=2)
        # A depth-2 binary tree has at most 3 internal + 4 leaf nodes.
        assert len(tree.feature) <= 7

    def test_gain_bookkeeping(self):
        binned = np.column_stack(
            [np.repeat([0, 7], 50), np.zeros(100, dtype=np.int32)]
        ).astype(np.int32)
        gradients = np.repeat([1.0, -1.0], 50)
        tree = build_tree(binned, gradients, max_depth=1)
        assert 0 in tree.gain_by_feature
        assert tree.gain_by_feature[0] > 0


class TestValidation:
    def test_bad_depth(self):
        with pytest.raises(ConfigError):
            TreeBuilder(max_depth=0)

    def test_bad_min_samples(self):
        with pytest.raises(ConfigError):
            TreeBuilder(min_samples_leaf=0)
