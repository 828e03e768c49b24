"""Differential tests: the level-wise builder against the per-node one.

``repro.ml.tree.TreeBuilder`` grows a tree level by level — one gradient
and one count ``bincount`` per depth over codes binned once — where the
builder it replaced (``per_node_reference.PerNodeTreeBuilder``, moved
here verbatim) searched one node at a time. Same histograms, same sums in
the same order, same first-max ``argmax``: every tree array, every gain
and the boosting loop's trees must be *equal*, so nothing below uses a
tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from per_node_reference import (
    PerNodeTreeBuilder,
    as_binned_matrix,
    bin_matrix,
    predict_binned,
)

from repro.ml.gbrt import GBRTRegressor, _quantile_bin_edges, bin_features
from repro.ml.tree import TreeBuilder

_ARRAYS = ("feature", "threshold", "left", "right", "value")


def assert_same_tree(actual, expected) -> None:
    for name in _ARRAYS:
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    # Same features in the same insertion order (``to_state`` keeps it).
    assert list(actual.gain_by_feature.items()) == list(
        expected.gain_by_feature.items()
    )


def assert_builders_agree(binned, gradients, feature_ids, num_bins, live=None, **kw):
    """Build with both on one binned matrix; returns the (shared) tree."""
    binned = np.asarray(binned, dtype=np.int32)
    gradients = np.asarray(gradients, dtype=np.float64)
    feature_ids = np.asarray(feature_ids, dtype=np.intp)
    expected = PerNodeTreeBuilder(**kw).build(binned, gradients, feature_ids, num_bins)
    tree, step = TreeBuilder(**kw).build(
        as_binned_matrix(binned, num_bins, live), gradients, feature_ids
    )
    assert_same_tree(tree, expected)
    np.testing.assert_array_equal(step, predict_binned(expected, binned))
    return tree


def reference_fit(model: GBRTRegressor, X: np.ndarray, y: np.ndarray):
    """``GBRTRegressor.fit`` as it stood at PR 21's parent: bin per fit,
    per-node trees, the step re-walked with ``predict_binned``."""
    n, d = X.shape
    edges = [_quantile_bin_edges(X[:, j], model.num_bins) for j in range(d)]
    binned = bin_matrix(edges, X)
    rng = np.random.default_rng(model.seed)
    builder = PerNodeTreeBuilder(
        max_depth=model.max_depth,
        min_samples_leaf=model.min_samples_leaf,
        reg_lambda=model.reg_lambda,
    )
    base = float(y.mean()) if n else 0.0
    prediction = np.full(n, base, dtype=np.float64)
    trees = []
    n_sub = max(1, int(round(model.colsample * d)))
    for __ in range(model.n_trees):
        gradients = prediction - y
        if np.allclose(gradients, 0.0):
            break
        if n_sub < d:
            feature_ids = np.sort(rng.choice(d, size=n_sub, replace=False))
        else:
            feature_ids = np.arange(d)
        tree = builder.build(binned, gradients, feature_ids, model.num_bins)
        step = predict_binned(tree, binned)
        if not np.any(step):
            break
        prediction += model.learning_rate * step
        trees.append(tree)
    return trees, edges, base


def assert_fits_agree(X, y, **params) -> GBRTRegressor:
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    model = GBRTRegressor(**params).fit(X, y)
    trees, edges, base = reference_fit(GBRTRegressor(**params), X, y)
    assert model._base == base
    assert len(model._bin_edges) == len(edges)
    for got, want in zip(model._bin_edges, edges):
        assert got.tobytes() == want.tobytes()  # NaN edges compare equal
    assert model.num_trees_fitted == len(trees)
    for got, want in zip(model._trees, trees):
        assert_same_tree(got, want)
    return model


def mixed_matrix(seed: int, rows: int = 300):
    """Continuous, few-valued, constant, duplicated and tie-heavy columns."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, 9))
    X[:, 1] = rng.integers(0, 4, rows)
    X[:, 2] = 3.5
    X[:, 3] = X[:, 0]
    X[:, 4] = np.round(X[:, 4], 1)
    X[:, 6] = -0.0
    X[:, 7] = X[:, 1]
    y = X[:, 0] * 2 + (X[:, 1] > 1) - np.abs(X[:, 4]) + rng.normal(0, 0.1, rows)
    return X, y


class TestBuilderOnBinnedMatrices:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 70),
        columns=st.integers(1, 6),
        num_bins=st.integers(2, 9),
        max_depth=st.integers(1, 5),
        min_samples_leaf=st.integers(1, 5),
        integer_gradients=st.booleans(),
        all_live=st.booleans(),
    )
    def test_random_matrices(
        self,
        seed,
        rows,
        columns,
        num_bins,
        max_depth,
        min_samples_leaf,
        integer_gradients,
        all_live,
    ):
        rng = np.random.default_rng(seed)
        # Each column draws from its own range, so some occupy one bin.
        spans = rng.integers(1, num_bins + 1, columns)
        binned = rng.integers(0, spans, (rows, columns))
        if integer_gradients:  # exact ties between features and bins
            gradients = rng.integers(-2, 3, rows).astype(np.float64)
        else:
            gradients = rng.normal(size=rows)
        drawn = rng.random(columns) < 0.7
        drawn[rng.integers(columns)] = True  # the booster draws at least one
        feature_ids = np.flatnonzero(drawn)
        assert_builders_agree(
            binned,
            gradients,
            feature_ids,
            num_bins,
            live=np.arange(columns) if all_live else None,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
        )

    def test_every_column_constant_is_a_single_leaf(self):
        tree = assert_builders_agree(
            np.full((40, 3), 2), np.linspace(-1, 1, 40), [0, 1, 2], 8
        )
        assert tree.feature.tolist() == [-1] and not tree.gain_by_feature

    def test_subsample_of_dead_columns_only_is_a_single_leaf(self):
        rng = np.random.default_rng(0)
        binned = np.column_stack(
            [np.zeros(50, int), rng.integers(0, 8, 50), np.full(50, 5)]
        )
        tree = assert_builders_agree(binned, rng.normal(size=50), [0, 2], 8)
        assert tree.feature.tolist() == [-1]

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_fewer_rows_than_two_leaves(self, rows):
        rng = np.random.default_rng(rows)
        tree = assert_builders_agree(
            rng.integers(0, 4, (rows, 2)), rng.normal(size=rows), [0, 1], 4
        )
        assert tree.feature.tolist() == [-1]  # 2 * min_samples_leaf = 8 > rows

    def test_duplicated_columns_split_on_the_first(self):
        rng = np.random.default_rng(3)
        column = rng.integers(0, 6, 200)
        binned = np.column_stack([np.zeros(200, int), column, column, column])
        gradients = (column > 2) * 2.0 - 1.0
        tree = assert_builders_agree(binned, gradients, [0, 1, 2, 3], 6, max_depth=3)
        assert tree.feature[0] == 1
        tree = assert_builders_agree(binned, gradients, [2, 3], 6, max_depth=3)
        assert tree.feature[0] == 2

    def test_tied_gains_across_bins_take_the_first_bin(self):
        # Rows with zero gradient in bins 1-2: splitting after bin 0, 1 or
        # 2 would gain the same only if counts tied too, so use no rows
        # there at all — the three thresholds give identical children.
        binned = np.repeat([0, 3], 30)[:, None]
        tree = assert_builders_agree(binned, np.repeat([1.0, -1.0], 30), [0], 5)
        assert (tree.feature[0], tree.threshold[0]) == (0, 0)

    def test_top_bin_rows_route_right(self):
        """The bin NaN lands in when a column has ``num_bins - 1`` edges."""
        rng = np.random.default_rng(5)
        binned = rng.integers(0, 8, (120, 2))
        binned[::3, 0] = 7
        gradients = np.where(binned[:, 0] == 7, 3.0, -1.0) + rng.normal(0, 0.1, 120)
        tree = assert_builders_agree(binned, gradients, [0, 1], 8)
        assert (tree.feature[0], tree.threshold[0]) == (0, 6)

    @pytest.mark.parametrize("max_depth", [1, 5])
    def test_depth_extremes(self, max_depth):
        rng = np.random.default_rng(max_depth)
        tree = assert_builders_agree(
            rng.integers(0, 16, (600, 5)),
            rng.normal(size=600),
            np.arange(5),
            16,
            max_depth=max_depth,
            min_samples_leaf=2,
        )
        internal = int((tree.feature >= 0).sum())
        assert internal == 1 if max_depth == 1 else internal > 7


class TestBoosterAgainstReferenceFit:
    @pytest.mark.parametrize("depth", [1, 3, 5])
    @pytest.mark.parametrize("colsample", [1.0, 0.5, 0.2])
    def test_mixed_columns(self, depth, colsample):
        X, y = mixed_matrix(seed=depth)
        model = assert_fits_agree(
            X, y, n_trees=12, max_depth=depth, colsample=colsample, seed=depth
        )
        assert model.num_trees_fitted == 12

    def test_every_column_constant_fits_no_tree(self):
        y = np.random.default_rng(0).normal(size=50)
        model = assert_fits_agree(np.full((50, 4), 1.5), y, n_trees=5)
        assert all((tree.feature < 0).all() for tree in model._trees)
        # Integer targets leave an exactly-zero root step: boosting stops.
        model = assert_fits_agree(np.full((50, 4), 1.5), np.arange(50.0), n_trees=5)
        assert model.num_trees_fitted == 0

    def test_draws_of_dead_columns_only(self):
        rng = np.random.default_rng(1)
        X = np.zeros((200, 10))
        X[:, 4] = rng.normal(size=200)
        y = X[:, 4] + rng.normal(0, 0.05, 200)
        model = assert_fits_agree(X, y, n_trees=20, colsample=0.3, seed=3)
        roots = [int(tree.feature[0]) for tree in model._trees]
        # Three columns per draw: one that misses column 4 is a single leaf.
        assert set(roots) == {-1, 4}

    def test_nan_features(self):
        X, y = mixed_matrix(seed=9)
        rng = np.random.default_rng(9)
        X[rng.random(300) < 0.2, 1] = np.nan  # few-valued: NaN is its top bin
        X[rng.random(300) < 0.1, 5] = np.nan  # continuous: quantiles are NaN
        binned = bin_features(X, 64)
        assert np.isnan(binned.edges[1][-1]) and np.isnan(binned.edges[5]).all()
        assert_fits_agree(X, y, n_trees=8, colsample=0.7, seed=2)

    def test_one_training_row(self):
        model = assert_fits_agree(np.array([[1.0, 2.0]]), np.array([3.0]), n_trees=3)
        assert model.num_trees_fitted == 0
        assert model.predict(np.zeros((2, 2))).tolist() == [3.0, 3.0]

    def test_regressors_sharing_one_binning_match_separate_fits(self):
        X, y = mixed_matrix(seed=4)
        shared = bin_features(X, 64)
        for stage, labels in enumerate((y, (y > 0).astype(float), -y)):
            params = dict(n_trees=6, colsample=0.5, seed=stage)
            together = GBRTRegressor(**params).fit_binned(shared, labels)
            alone = assert_fits_agree(X, labels, **params)
            assert together.to_state() == alone.to_state()
