"""Unit tests for the Appendix D variance analysis."""

import numpy as np
import pytest

from repro.core.variance import ht_true_variance, partition_vs_row_variance
from repro.errors import ConfigError


class TestHorvitzThompson:
    def test_full_sample_zero_variance(self):
        values = np.arange(5.0)
        assert ht_true_variance(values, 1.0) == 0.0

    def test_bad_probability(self):
        with pytest.raises(ConfigError):
            ht_true_variance(np.ones(2), 0.0)
        with pytest.raises(ConfigError):
            ht_true_variance(np.ones(2), 1.2)


class TestPartitionVsRow:
    def test_eq5_partition_variance_dominates(self):
        """Correlated same-partition rows inflate partition sampling."""
        rng = np.random.default_rng(2)
        partition_ids = np.repeat(np.arange(20), 50)
        # Rows within a partition share sign/magnitude (correlation).
        per_partition_level = rng.exponential(1.0, 20)
        row_values = per_partition_level[partition_ids] * rng.uniform(
            0.8, 1.2, 1000
        )
        row_var, part_var, cross = partition_vs_row_variance(
            row_values, partition_ids, p=0.1
        )
        assert part_var > row_var
        assert cross == pytest.approx(part_var - row_var)

    def test_decomposition_identity(self):
        """Eq 5: partition variance = row variance + same-partition cross."""
        rng = np.random.default_rng(3)
        partition_ids = np.repeat(np.arange(10), 10)
        row_values = rng.normal(size=100)
        row_var, part_var, cross = partition_vs_row_variance(
            row_values, partition_ids, p=0.5
        )
        factor = 1 / 0.5 - 1
        manual_cross = 0.0
        for pid in range(10):
            vals = row_values[partition_ids == pid]
            manual_cross += 2 * factor * sum(
                vals[i] * vals[j]
                for i in range(len(vals))
                for j in range(i + 1, len(vals))
            )
        assert cross == pytest.approx(manual_cross, rel=1e-9)

    def test_one_row_partitions_equalize(self):
        """When partitions hold one row each, the two variances coincide."""
        values = np.arange(1.0, 11.0)
        row_var, part_var, cross = partition_vs_row_variance(
            values, np.arange(10), p=0.2
        )
        assert part_var == pytest.approx(row_var)
        assert cross == pytest.approx(0.0, abs=1e-9)
