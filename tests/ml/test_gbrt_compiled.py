"""Differential tests: the compiled forest against the fit-time tree loop.

Production inference runs only on :class:`repro.ml.tree.CompiledForest`
(raw thresholds, one flat node table, level-synchronous steps). The
oracles below are the path it replaced — bin every column, walk the
trees one at a time with ``predict_binned`` (``per_node_reference.py``),
run the funnel stage by stage — and live here, not under ``src/``.
Everything is compared with ``np.array_equal``: the compiled form adds
the same floats in the same order, so no tolerance applies.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from per_node_reference import bin_matrix, predict_binned

import repro.core.picker as picker_module
from repro.api import PS3
from repro.core.importance import importance_groups
from repro.core.picker import PickerConfig, PS3Picker
from repro.datasets.registry import get_dataset
from repro.errors import ConfigError
from repro.ml.gbrt import GBRTRegressor
from repro.workload.generator import QueryGenerator


def oracle_predict(model: GBRTRegressor, X: np.ndarray) -> np.ndarray:
    binned = bin_matrix(model._bin_edges, np.asarray(X, dtype=np.float64))
    out = np.full(binned.shape[0], model._base, dtype=np.float64)
    for tree in model._trees:
        out += model.learning_rate * predict_binned(tree, binned)
    return out


def sequential_groups(matrix, candidates, regressors, columns) -> list[np.ndarray]:
    """The stage-by-stage funnel, scoring only each stage's survivors of
    the full-width matrix (feature ``f`` is ``matrix[:, columns[f]]``)."""
    matrix = matrix[:, columns]
    groups = [np.asarray(candidates, dtype=np.intp)]
    for regressor in regressors:
        tail = groups[-1]
        positive = oracle_predict(regressor, matrix[tail]) > 0.0
        groups[-1] = tail[~positive]
        groups.append(tail[positive])
    return groups


def assert_same_groups(actual, expected) -> None:
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def training_set(seed: int, rows: int = 400, columns: int = 7):
    """Mixed columns: continuous, few-valued, constant, +-0.0, heavy ties."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, columns))
    X[:, 1] = rng.integers(0, 4, rows)
    X[:, 2] = 3.5
    X[:, 3] = rng.choice([-0.0, 0.0, 1.0], rows)
    X[:, 4] = np.round(X[:, 4], 1)
    y = X[:, 0] * 2 + (X[:, 1] > 1) - np.abs(X[:, 4]) + rng.normal(0, 0.1, rows)
    return X, y


def hostile_matrix(model: GBRTRegressor, X: np.ndarray, seed: int) -> np.ndarray:
    """Training rows plus NaN, +-inf, -0.0 and values exactly on bin edges."""
    rng = np.random.default_rng(seed)
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0]
    for edges in model._bin_edges:
        specials.extend(edges.tolist())
        specials.extend(np.nextafter(edges, np.inf).tolist())
        specials.extend(np.nextafter(edges, -np.inf).tolist())
    drawn = rng.choice(np.asarray(specials), size=(2 * X.shape[0], X.shape[1]))
    mixed = np.where(rng.random(X.shape) < 0.3, drawn[: X.shape[0]], X)
    return np.vstack([X, drawn, mixed])


class TestPredictMatchesOracle:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("colsample", [1.0, 0.5])
    def test_hostile_values(self, depth, colsample):
        X, y = training_set(depth)
        model = GBRTRegressor(
            n_trees=12, max_depth=depth, colsample=colsample, num_bins=16, seed=depth
        ).fit(X, y)
        assert model.num_trees_fitted > 0
        probe = hostile_matrix(model, X, seed=depth)
        np.testing.assert_array_equal(
            model.predict(probe), oracle_predict(model, probe)
        )

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_trained_on_nan_and_inf(self):
        """NaN / inf training values put NaN and inf among the bin edges."""
        X, y = training_set(9)
        X[::7, 0], X[::11, 0], X[::13, 4] = np.nan, np.inf, -np.inf
        model = GBRTRegressor(n_trees=10, num_bins=8, seed=3).fit(X, y)
        assert any(np.isnan(edges).any() for edges in model._bin_edges)
        probe = hostile_matrix(model, X, seed=1)
        np.testing.assert_array_equal(
            model.predict(probe), oracle_predict(model, probe), strict=True
        )

    @pytest.mark.parametrize(
        "edges, bin_index", [([0.0, 1.0], 2), ([0.0, float("nan")], 1), ([], 0)]
    )
    def test_split_with_no_finite_edge_routes_everything_left(self, edges, bin_index):
        """Reachable only through ``from_state``: NaN rows go left too."""
        state = GBRTRegressor(n_trees=1).fit(*training_set(0)).to_state()
        state["bin_edges"][0] = edges
        state["trees"] = [stump_state(0, bin_index, left=-1.0, right=1.0)]
        model = GBRTRegressor.from_state(state)
        probe = np.zeros((4, state["num_features"]))
        probe[:, 0] = [-5.0, 5.0, np.inf, np.nan]
        expected = np.full(4, model._base + model.learning_rate * -1.0)
        np.testing.assert_array_equal(model.predict(probe), expected)
        np.testing.assert_array_equal(oracle_predict(model, probe), expected)

    def test_cyclic_tree_in_a_damaged_state_is_rejected_at_load(self):
        state = GBRTRegressor(n_trees=1).fit(*training_set(0)).to_state()
        cyclic = stump_state(0, 0, left=-1.0, right=1.0)
        cyclic["feature"][2], cyclic["left"][2], cyclic["right"][2] = 0, 0, 1
        state["trees"] = [cyclic]
        with pytest.raises(ConfigError, match="cycle"):
            GBRTRegressor.from_state(state)

    def test_fortran_ordered_and_integer_input(self):
        X, y = training_set(2)
        model = GBRTRegressor(n_trees=6, seed=1).fit(X, y)
        np.testing.assert_array_equal(
            model.predict(np.asfortranarray(X)), oracle_predict(model, X)
        )
        ints = np.arange(28).reshape(4, 7)
        np.testing.assert_array_equal(
            model.predict(ints), oracle_predict(model, ints)
        )


def stump_state(feature: int, bin_index: int, left: float, right: float) -> dict:
    return {
        "feature": [feature, -1, -1],
        "threshold": [bin_index, -1, -1],
        "left": [1, -1, -1],
        "right": [2, -1, -1],
        "value": [0.0, left, right],
        "gain_by_feature": {str(feature): 1.0},
    }


SINGLE_LEAF_STATE = {
    "feature": [-1],
    "threshold": [-1],
    "left": [-1],
    "right": [-1],
    "value": [0.25],
    "gain_by_feature": {},
}


class TestZeroTreeAndMixedStages:
    def test_zero_tree_regressor_compiles_to_its_base(self):
        X, __ = training_set(1)
        model = GBRTRegressor(n_trees=20).fit(X, np.full(X.shape[0], 7.0))
        assert model.num_trees_fitted == 0
        assert model._compiled.depth == 0
        assert model._compiled.value.tolist() == [model._base]
        np.testing.assert_array_equal(
            model.predict(hostile_matrix(model, X, 0)), np.full(4 * X.shape[0], 7.0)
        )

    @pytest.mark.parametrize("trees", [0, 5])
    def test_predict_on_zero_rows(self, trees):
        X, y = training_set(1)
        labels = y if trees else np.zeros_like(y)
        model = GBRTRegressor(n_trees=max(trees, 1)).fit(X, labels)
        out = model.predict(np.empty((0, X.shape[1])))
        assert out.shape == (0,) and out.dtype == np.float64

    def test_mixed_funnel_groups_like_the_sequential_reference(self):
        """Stages differ in tree count and depth; two come from states."""
        X, y = training_set(4)
        centred = y - np.median(y)
        deep = GBRTRegressor(n_trees=9, max_depth=5, seed=1).fit(X, centred)
        stump = GBRTRegressor(n_trees=1, max_depth=1, seed=2).fit(X, centred)
        empty = GBRTRegressor(n_trees=4).fit(X, np.full(X.shape[0], 0.5))
        state = GBRTRegressor(n_trees=3, max_depth=2, seed=3).fit(X, centred).to_state()
        state["trees"].insert(1, SINGLE_LEAF_STATE)
        with_leaf = GBRTRegressor.from_state(state)
        negative = GBRTRegressor(n_trees=2).fit(X, np.full(X.shape[0], -1.0))
        assert [m.num_trees_fitted for m in (deep, stump, empty, with_leaf)] == [
            9,
            1,
            0,
            4,
        ]
        matrix = hostile_matrix(deep, X, seed=5)
        candidates = np.random.default_rng(0).permutation(matrix.shape[0])[:500]
        for funnel in (
            [deep, stump, empty, with_leaf],
            [empty, with_leaf, deep],
            [stump, negative, deep],
            [empty, empty],
        ):
            columns = np.arange(matrix.shape[1])
            assert_same_groups(
                importance_groups(matrix, candidates, funnel, columns),
                sequential_groups(matrix, candidates, funnel, columns),
            )


@pytest.fixture(scope="module", params=[3, 8])
def kdd_system(request):
    """A small trained system per table seed (kdd, as the repo benchmark)."""
    dataset = get_dataset("kdd")
    ptable = dataset.build(4_800, 48, seed=request.param)
    generator = QueryGenerator(dataset.workload(), ptable.table, seed=request.param)
    train, test = generator.train_test_split(12, 24)
    return PS3(ptable, dataset.workload()).fit(train), test


class TestFunnelOnRealPicks:
    def test_groups_and_selections_match_the_sequential_funnel(
        self, kdd_system, monkeypatch
    ):
        ps3, queries = kdd_system
        calls = []

        def recording(block, candidates, regressors, columns):
            groups = importance_groups(block, candidates, regressors, columns)
            calls.append(candidates.size)
            assert_same_groups(
                groups, sequential_groups(block, candidates, regressors, columns)
            )
            return groups

        def selections(funnel):
            monkeypatch.setattr(picker_module, "importance_groups", funnel)
            picker = PS3Picker(ps3.model, PickerConfig(seed=4))
            picks = [picker.select(q, budget) for q in queries for budget in (3, 9)]
            return [[(c.partition, c.weight) for c in p.selection] for p in picks]

        assert selections(recording) == selections(sequential_groups)
        assert sum(size > 0 for size in calls) >= len(queries)

    def test_every_regressor_matches_its_oracle_on_normalized_features(
        self, kdd_system
    ):
        ps3, queries = kdd_system
        for query in queries[:6]:
            features = ps3.model.feature_builder.features_for_query(query)
            normalized = ps3.model.normalizer.transform(features.matrix)
            for regressor in ps3.model.regressors:
                np.testing.assert_array_equal(
                    regressor.predict(normalized), oracle_predict(regressor, normalized)
                )


@pytest.mark.slow
class TestCompiledProperties:
    @given(
        seed=st.integers(0, 2**16),
        depth=st.integers(1, 5),
        colsample=st.sampled_from([0.4, 0.7, 1.0]),
        num_bins=st.sampled_from([2, 5, 32]),
        dirty=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_predict_and_funnel_match_oracles(
        self, seed, depth, colsample, num_bins, dirty
    ):
        X, y = training_set(seed, rows=160, columns=5)
        if dirty:
            X[::9, 0], X[::10, 4], X[::12, 1] = np.nan, np.inf, -np.inf
        models = [
            GBRTRegressor(
                n_trees=4 + stage,
                max_depth=max(1, depth - stage),
                colsample=colsample,
                num_bins=num_bins,
                seed=seed + stage,
            ).fit(X, y - np.quantile(y, quantile))
            for stage, quantile in enumerate((0.3, 0.6, 0.9))
        ]
        probe = hostile_matrix(models[0], X, seed)
        for model in models:
            np.testing.assert_array_equal(
                model.predict(probe), oracle_predict(model, probe)
            )
        candidates = np.random.default_rng(seed).permutation(probe.shape[0])[:200]
        columns = np.arange(probe.shape[1])
        assert_same_groups(
            importance_groups(probe, candidates, models, columns),
            sequential_groups(probe, candidates, models, columns),
        )
