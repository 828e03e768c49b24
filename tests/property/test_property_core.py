"""Property-based tests for core picker invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scalar_oracle import partition_contributions

from repro.core.allocation import allocate_samples
from repro.core.cluster_sampler import cluster_sample
from repro.core.labels import labels_for_query


class TestAllocationProperties:
    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=8),
        st.integers(0, 200),
        st.floats(1.0, 8.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_budget_and_caps_always_hold(self, sizes, budget, alpha):
        counts = allocate_samples(sizes, budget, alpha)
        assert len(counts) == len(sizes)
        assert all(0 <= c <= s for c, s in zip(counts, sizes))
        assert sum(counts) == min(budget, sum(sizes))

    @given(
        st.lists(st.integers(1, 50), min_size=2, max_size=6),
        st.floats(1.5, 6.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_rates_non_decreasing_with_importance(self, sizes, alpha):
        budget = max(1, sum(sizes) // 3)
        counts = allocate_samples(sizes, budget, alpha)
        rates = [c / s for c, s in zip(counts, sizes)]
        # Up to integer rounding (1 sample slack), rates must not drop as
        # importance rises.
        for less, more in zip(rates, rates[1:]):
            assert more >= less - 1.0 / min(sizes)


class TestLabelProperties:
    @given(
        arrays(
            np.float64,
            st.integers(2, 60),
            elements=st.floats(0, 1, allow_nan=False),
        ),
        st.floats(0.0, 0.99),
    )
    @settings(max_examples=120, deadline=None)
    def test_signs_match_threshold(self, contributions, threshold):
        labels = labels_for_query(contributions, threshold)
        positive = contributions > threshold
        assert np.all(labels[positive] > 0) or not positive.any()
        assert np.all(labels[~positive] <= 0)

    @given(
        arrays(
            np.float64,
            st.integers(2, 60),
            elements=st.floats(0, 1, allow_nan=False),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_squared_mass_balanced(self, contributions):
        labels = labels_for_query(contributions, threshold=0.5)
        positives = labels[labels > 0]
        negatives = labels[labels < 0]
        if positives.size and negatives.size:
            # Each side's total squared mass is c = 1 (Algorithm 4).
            assert np.sum(positives**2) == 1.0 or np.isclose(
                np.sum(positives**2), 1.0
            )
            assert np.isclose(np.sum(negatives**2), 1.0)


class TestContributionProperties:
    @given(st.integers(1, 10), st.integers(1, 5), st.integers(0, 2**31))
    @settings(max_examples=80, deadline=None)
    def test_contributions_bounded(self, num_partitions, num_groups, seed):
        rng = np.random.default_rng(seed)
        answers = []
        for __ in range(num_partitions):
            answer = {}
            for g in range(num_groups):
                if rng.random() < 0.7:
                    answer[(f"g{g}",)] = rng.uniform(0, 10, 2)
            answers.append(answer)
        contributions = partition_contributions(answers)
        assert contributions.shape == (num_partitions,)
        assert np.all((contributions >= 0.0) & (contributions <= 1.0))

    @given(st.integers(2, 8), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_sole_owner_has_contribution_one(self, num_partitions, seed):
        rng = np.random.default_rng(seed)
        answers = [dict() for __ in range(num_partitions)]
        owner = int(rng.integers(num_partitions))
        answers[owner][("solo",)] = np.array([rng.uniform(1, 5)])
        contributions = partition_contributions(answers)
        assert contributions[owner] == 1.0


class TestClusterSampleProperties:
    @given(
        st.integers(2, 30),
        st.integers(1, 12),
        st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_weights_always_cover_candidates(self, num_candidates, budget, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(num_candidates, 4))
        candidates = np.arange(num_candidates)
        selection = cluster_sample(matrix, candidates, budget)
        assert sum(c.weight for c in selection) == float(num_candidates)
        assert len(selection) == min(budget, num_candidates)
        partitions = [c.partition for c in selection]
        assert len(partitions) == len(set(partitions))
