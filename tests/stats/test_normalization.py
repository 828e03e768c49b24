"""Unit tests for feature normalization (paper Appendix B.1)."""

import numpy as np
import pytest

from repro.engine.aggregates import count_star
from repro.engine.query import Query
from repro.errors import NotFittedError
from repro.stats.normalization import Normalizer


@pytest.fixture
def fitted(tiny_feature_builder):
    queries = [Query([count_star()], group_by=("cat",))]
    matrices = [
        tiny_feature_builder.features_for_query(q).matrix for q in queries
    ]
    normalizer = Normalizer(tiny_feature_builder.schema)
    normalizer.fit(matrices)
    return normalizer, matrices


class TestNormalizer:
    def test_transform_before_fit_raises(self, tiny_feature_builder):
        normalizer = Normalizer(tiny_feature_builder.schema)
        with pytest.raises(NotFittedError):
            normalizer.transform(np.zeros((2, tiny_feature_builder.schema.dimension)))

    def test_average_magnitude_near_one(self, fitted):
        normalizer, matrices = fitted
        transformed = normalizer.transform(matrices[0])
        magnitudes = np.abs(transformed)
        nonzero = magnitudes[:, magnitudes.any(axis=0)]
        # Scaling by the training average puts feature means at ~1.
        assert np.abs(nonzero.mean(axis=0) - 1.0).max() < 1e-6

    def test_zero_features_stay_zero(self, fitted):
        normalizer, matrices = fitted
        transformed = normalizer.transform(matrices[0])
        zero_cols = ~matrices[0].any(axis=0)
        assert np.all(transformed[:, zero_cols] == 0.0)

    def test_negative_values_keep_sign(self, tiny_feature_builder):
        schema = tiny_feature_builder.schema
        matrix = np.zeros((4, schema.dimension))
        block = schema.stat_slice("y")
        matrix[:, block.start] = [-10.0, -5.0, 5.0, 10.0]
        normalizer = Normalizer(schema).fit([matrix])
        transformed = normalizer.transform(matrix)
        column = transformed[:, block.start]
        assert column[0] < 0 < column[3]

    def test_selectivity_gets_cube_root(self, tiny_feature_builder):
        schema = tiny_feature_builder.schema
        matrix = np.zeros((2, schema.dimension))
        sel = schema.selectivity_slice()
        matrix[:, sel] = 0.125
        normalizer = Normalizer(schema).fit([matrix])
        transformed = normalizer.transform(matrix)
        # cbrt(0.125)=0.5 then scaled by its own mean (0.5) -> 1.0
        assert transformed[0, sel.start] == pytest.approx(1.0)

    def test_fit_transform_matches_separate_calls(self, tiny_feature_builder):
        queries = [Query([count_star()])]
        matrices = [
            tiny_feature_builder.features_for_query(q).matrix for q in queries
        ]
        normalizer = Normalizer(tiny_feature_builder.schema)
        block, combined = normalizer.fit_transform([m.copy() for m in matrices])
        expected = normalizer.transform(matrices[0])
        np.testing.assert_array_equal(combined[0], expected)
        assert len(combined) == 1 and np.shares_memory(combined[0], block)


class TestLiveColumns:
    """``transform(m, live=...)`` is ``transform(m)``, bit for bit."""

    @staticmethod
    def same_bits(a, b):
        # array_equal would call -0.0 and +0.0 equal, and NaN unequal.
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_query_masks_give_the_full_width_result(self, fitted, tiny_feature_builder):
        normalizer, __ = fitted
        queries = [
            Query([count_star()]),
            Query([count_star()], group_by=("cat",)),
            Query([count_star()], group_by=("d", "cat")),
        ]
        for query in queries:
            features = tiny_feature_builder.features_for_query(query)
            live = features.live_columns
            assert np.all(np.diff(live) > 0)
            dead = np.setdiff1d(np.arange(features.matrix.shape[1]), live)
            assert not features.matrix[:, dead].any()
            assert self.same_bits(
                normalizer.transform(features.matrix, live=live),
                normalizer.transform(features.matrix),
            )

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_hostile_values_in_live_columns(self, fitted):
        normalizer, matrices = fitted
        rng = np.random.default_rng(2)
        dimension = matrices[0].shape[1]
        sel = normalizer.schema.selectivity_slice()
        hostile = [-0.0, np.nan, np.inf, -np.inf, -3.5, 1e300, 5e-324]
        for trial in range(20):
            static = rng.choice(sel.start, size=rng.integers(0, 40), replace=False)
            slots = np.arange(sel.start, sel.stop)[rng.random(5) < 0.7]
            live = np.sort(np.concatenate([static, slots])).astype(np.intp)
            matrix = np.zeros((9, dimension))
            matrix[:, live] = rng.normal(0, 50.0, (9, live.size))
            spoil = rng.random(matrix.shape) < 0.2
            spoil[:, np.setdiff1d(np.arange(dimension), live)] = False
            matrix[spoil] = rng.choice(hostile, size=int(spoil.sum()))
            assert self.same_bits(
                normalizer.transform(matrix, live=live), normalizer.transform(matrix)
            )
