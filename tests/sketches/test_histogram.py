"""Unit tests for equal-depth histograms."""

import numpy as np
import pytest

from repro.sketches.histogram import EquiDepthHistogram


@pytest.fixture
def uniform_hist():
    values = np.linspace(0.0, 100.0, 10_001)
    return EquiDepthHistogram.build(values, buckets=10)


class TestConstruction:
    def test_equal_depths_without_ties(self, uniform_hist):
        depths = uniform_hist.depths
        assert depths.sum() == 10_001
        # Ceil-target walk: all buckets within one target of each other,
        # with only the last bucket collecting the remainder.
        assert depths[:-1].max() - depths[:-1].min() <= 1
        assert depths[-1] <= depths[:-1].max()

    def test_ties_collapse_edges(self):
        values = np.array([1.0] * 90 + [2.0] * 10)
        hist = EquiDepthHistogram.build(values, buckets=10)
        assert hist.num_buckets <= 2
        assert hist.depths.sum() == 100

    def test_empty_column(self):
        hist = EquiDepthHistogram.build(np.array([]), buckets=10)
        assert hist.total == 0
        assert hist.fraction_leq(5.0) == 0.0

    def test_single_value_column(self):
        hist = EquiDepthHistogram.build(np.full(50, 7.0), buckets=10)
        assert hist.fraction_eq(7.0) == pytest.approx(1.0)
        assert hist.fraction_leq(7.0) == 1.0
        assert hist.fraction_leq(6.9) == 0.0

    def test_string_histogram_over_hashes(self):
        values = np.array([f"s{i % 13}" for i in range(1000)])
        hist = EquiDepthHistogram.build_for_strings(values)
        assert hist.hashed
        assert hist.depths.sum() == 1000


class TestRangeEstimates:
    def test_fraction_leq_interpolates(self, uniform_hist):
        assert uniform_hist.fraction_leq(25.0) == pytest.approx(0.25, abs=0.01)
        assert uniform_hist.fraction_leq(75.0) == pytest.approx(0.75, abs=0.01)

    def test_boundaries(self, uniform_hist):
        assert uniform_hist.fraction_leq(-1.0) == 0.0
        assert uniform_hist.fraction_leq(1000.0) == 1.0

    def test_interval(self, uniform_hist):
        frac = uniform_hist.fraction_in_interval(20.0, 30.0)
        assert frac == pytest.approx(0.10, abs=0.01)

    def test_empty_interval(self, uniform_hist):
        assert uniform_hist.fraction_in_interval(30.0, 20.0) == 0.0

    def test_interval_reaching_the_edge_range_keeps_one_row(self):
        # One bucket [1, 100] of 22 rows: both one-sided estimates of
        # (2, 4) sit at the one-row floor, so their difference alone is 0
        # although the row 3.0 lies inside.
        hist = EquiDepthHistogram.build(np.array([1.0, 3.0] + [100.0] * 20), 4)
        assert hist.fraction_in_interval(2.0, 4.0, False, False) == 1 / 22
        # Outside the edge range, or an empty interval, stays 0.
        assert hist.fraction_in_interval(100.0, 200.0, False, True) == 0.0
        assert hist.fraction_in_interval(-5.0, 1.0, True, False) == 0.0
        assert hist.fraction_in_interval(3.0, 3.0, True, False) == 0.0
        assert hist.fraction_in_interval(3.0, 3.0) > 0.0

    def test_open_ended_intervals(self, uniform_hist):
        low = uniform_hist.fraction_in_interval(low=90.0)
        assert low == pytest.approx(0.10, abs=0.01)
        high = uniform_hist.fraction_in_interval(high=10.0)
        assert high == pytest.approx(0.10, abs=0.01)


class TestEqualityEstimates:
    def test_out_of_range_is_zero(self, uniform_hist):
        assert uniform_hist.fraction_eq(-5.0) == 0.0
        assert uniform_hist.fraction_eq(500.0) == 0.0

    def test_in_range_is_positive(self, uniform_hist):
        # Perfect recall: any value inside [min, max] must score > 0.
        assert uniform_hist.fraction_eq(42.0) > 0.0

    def test_estimate_close_to_true_frequency(self, uniform_hist):
        # 10001 equally frequent distinct values: truth is ~1e-4.
        assert uniform_hist.fraction_eq(42.0) == pytest.approx(1e-4, rel=0.5)

    def test_heavy_tie_value(self):
        values = np.array([5.0] * 900 + list(np.linspace(10, 20, 100)))
        hist = EquiDepthHistogram.build(values, buckets=10)
        assert hist.fraction_eq(5.0) == pytest.approx(0.9, abs=0.01)

    def test_heavy_minimum_degenerate_bucket(self):
        values = np.array([0.0] * 500 + list(np.linspace(1, 10, 500)))
        hist = EquiDepthHistogram.build(values, buckets=10)
        assert hist.fraction_eq(0.0) == pytest.approx(0.5, abs=0.01)
        assert hist.fraction_lt(0.0) == 0.0
        assert hist.fraction_leq(0.0) == pytest.approx(0.5, abs=0.01)

    def test_fraction_lt_removes_point_mass(self):
        values = np.array([5.0] * 900 + list(np.linspace(10, 20, 100)))
        hist = EquiDepthHistogram.build(values, buckets=10)
        assert hist.fraction_lt(5.0) == pytest.approx(0.0, abs=0.01)
        assert hist.fraction_leq(5.0) == pytest.approx(0.9, abs=0.01)


class TestSerialization:
    def test_roundtrip(self, uniform_hist):
        restored = EquiDepthHistogram.from_bytes(uniform_hist.to_bytes())
        np.testing.assert_allclose(restored.edges, uniform_hist.edges)
        np.testing.assert_array_equal(restored.depths, uniform_hist.depths)
        assert restored.total == uniform_hist.total

    def test_size_matches_encoding(self, uniform_hist):
        assert uniform_hist.size_bytes() == len(uniform_hist.to_bytes())
