"""Unit tests for Algorithm 4 label generation and threshold spacing."""

import numpy as np
import pytest

from repro.core.labels import exponential_thresholds, labels_for_query


class TestLabels:
    def test_balanced_mass(self):
        contributions = np.array([0.9, 0.8, 0.0, 0.0, 0.0, 0.0])
        labels = labels_for_query(contributions, threshold=0.5)
        positives = labels[labels > 0]
        negatives = labels[labels < 0]
        assert len(positives) == 2 and len(negatives) == 4
        # Algorithm 4 scaling: sqrt(1/P) and -sqrt(1/(n-P)).
        assert positives[0] == pytest.approx(np.sqrt(1 / 2))
        assert negatives[0] == pytest.approx(-np.sqrt(1 / 4))

    def test_rare_positive_weighs_more(self):
        one_positive = labels_for_query(np.array([1.0, 0, 0, 0, 0]), 0.5)
        many_positive = labels_for_query(np.array([1, 1, 1, 1, 0.0]), 0.5)
        assert one_positive.max() > many_positive.max()

    def test_all_negative(self):
        labels = labels_for_query(np.zeros(4), threshold=0.0)
        assert np.all(labels < 0)

    def test_all_positive(self):
        labels = labels_for_query(np.ones(4), threshold=0.5)
        assert np.all(labels > 0)


class TestThresholds:
    def test_first_threshold_is_zero(self):
        contributions = [np.array([0.5, 0.1, 0.0])]
        thresholds = exponential_thresholds(contributions, 4)
        assert thresholds[0] == 0.0

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(0)
        contributions = [rng.random(100) ** 3 for __ in range(10)]
        thresholds = exponential_thresholds(contributions, 4)
        assert np.all(np.diff(thresholds) >= 0)

    def test_last_threshold_targets_top_fraction(self):
        rng = np.random.default_rng(1)
        contributions = [rng.random(1000)]
        thresholds = exponential_thresholds(contributions, 4, top_fraction=0.01)
        pooled = np.concatenate(contributions)
        passing = (pooled > thresholds[-1]).mean()
        assert passing == pytest.approx(0.01, abs=0.005)

    def test_geometric_passing_fractions(self):
        rng = np.random.default_rng(2)
        contributions = [rng.random(5000)]
        thresholds = exponential_thresholds(contributions, 4, top_fraction=0.01)
        pooled = np.concatenate(contributions)
        fractions = [(pooled > t).mean() for t in thresholds]
        ratios = [fractions[i] / fractions[i + 1] for i in range(3)]
        # Successive passing fractions shrink by a roughly constant factor.
        assert max(ratios) / min(ratios) < 2.0

    def test_single_model(self):
        thresholds = exponential_thresholds([np.array([0.5])], 1)
        np.testing.assert_array_equal(thresholds, [0.0])

    def test_all_zero_contributions(self):
        thresholds = exponential_thresholds([np.zeros(10)], 4)
        np.testing.assert_array_equal(thresholds, np.zeros(4))
