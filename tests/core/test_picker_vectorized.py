"""End-to-end parity: the picker selects as it would on the scalar oracle.

The vectorized feature plane must be a pure performance change — with a
fixed seed, `PS3Picker.select` has to return the same weighted selection
whether featurization runs through the compiled predicate plan or the
scalar per-partition estimator (``scalar_features`` in
``tests/conftest.py``, put in the builder's place for one pick).
"""

import numpy as np
import pytest

from repro.core.picker import PickerConfig, PS3Picker


@pytest.fixture(scope="module")
def parity_setup(trained_ps3, tpch_queries):
    __, test = tpch_queries
    return trained_ps3.model, trained_ps3.statistics, test


def _select(model, statistics, query, budget, featurize=None):
    """One pick; ``featurize(builder, query)`` replaces the builder's own
    ``features_for_query`` for its duration."""
    builder = model.feature_builder
    if featurize is not None:
        builder.features_for_query = lambda q: featurize(builder, q)
    try:
        picker = PS3Picker(model, PickerConfig(seed=1234))
        return picker.select(query, budget)
    finally:
        vars(builder).pop("features_for_query", None)


class TestPickerPathParity:
    def test_selections_identical_across_paths(self, parity_setup, scalar_features):
        model, statistics, test = parity_setup
        budgets = (3, 8, 16)
        for query in test[:5]:
            for budget in budgets:
                fast = _select(model, statistics, query, budget)
                slow = _select(model, statistics, query, budget, scalar_features)
                assert fast.selection == slow.selection
                assert fast.outliers == slow.outliers
                assert fast.group_sizes == slow.group_sizes
                assert fast.group_budgets == slow.group_budgets

    def test_feature_matrices_identical_across_paths(
        self, parity_setup, scalar_features
    ):
        model, __, test = parity_setup
        builder = model.feature_builder
        for query in test:
            fast = builder.features_for_query(query)
            slow = scalar_features(builder, query)
            np.testing.assert_array_equal(fast.matrix, slow.matrix)
