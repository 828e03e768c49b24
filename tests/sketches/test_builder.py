"""Unit tests for the statistics builder and its scalar oracle.

The per-partition sketch objects are the oracle's (``sketch_oracle``);
the seal's sizes, row counts and global heavy hitters must equal what
those objects give.
"""

import numpy as np
from sketch_oracle import build_partition_statistics

from repro.sketches.builder import FAMILIES, SketchConfig, build_dataset_statistics


class TestPartitionStatistics:
    def test_numeric_column_gets_all_numeric_sketches(self, tiny_ptable):
        pstats = build_partition_statistics(tiny_ptable[0])
        cs = pstats.columns["x"]
        assert cs.measures is not None
        assert cs.histogram is not None and not cs.histogram.hashed
        assert cs.akmv is not None
        assert cs.heavy_hitter is not None
        assert cs.exact_dict is None

    def test_positive_column_tracks_log_measures(self, tiny_ptable):
        pstats = build_partition_statistics(tiny_ptable[0])
        assert pstats.columns["x"].measures.track_log
        assert not pstats.columns["y"].measures.track_log

    def test_categorical_column_gets_hashed_histogram(self, tiny_ptable):
        pstats = build_partition_statistics(tiny_ptable[0])
        cs = pstats.columns["cat"]
        assert cs.measures is None
        assert cs.histogram.hashed
        assert cs.exact_dict is not None  # declared low_cardinality

    def test_non_low_cardinality_has_no_dict(self, tiny_ptable):
        pstats = build_partition_statistics(tiny_ptable[0])
        assert pstats.columns["tag"].exact_dict is None

    def test_row_count_recorded(self, tiny_ptable):
        pstats = build_partition_statistics(tiny_ptable[3])
        assert pstats.num_rows == tiny_ptable[3].num_rows
        assert pstats.partition_index == 3


class TestStorageAccounting:
    def test_size_by_kind_sums_to_total(self, tiny_oracle):
        for pstats in tiny_oracle.partitions:
            breakdown = pstats.size_by_kind()
            assert sum(breakdown.values()) == pstats.size_bytes()

    def test_table1_complexity_measures_constant(self, tiny_ptable):
        """Paper Table 1: measures storage is O(1) regardless of rows."""
        small = build_partition_statistics(tiny_ptable[0])
        assert small.columns["x"].measures.size_bytes() < 128

    def test_table1_akmv_bounded_by_k(self, tiny_ptable):
        config = SketchConfig(akmv_k=16)
        pstats = build_partition_statistics(tiny_ptable[0], config)
        # header + 16 bytes per tracked value, at most k of them
        assert pstats.columns["tag"].akmv.size_bytes() <= 8 + 16 * 16

    def test_hh_bounded_by_support(self, tiny_oracle):
        for pstats in tiny_oracle.partitions:
            hh = pstats.columns["cat"].heavy_hitter
            assert len(hh.items()) <= int(1 / hh.support) + 1


class TestDatasetStatistics:
    def test_builds_every_partition(self, tiny_ptable, tiny_stats):
        assert tiny_stats.num_partitions == tiny_ptable.num_partitions

    def test_global_heavy_hitters_ranked(self, tiny_stats):
        hitters = tiny_stats.global_heavy_hitters["cat"]
        assert hitters[0] == "a"  # 55% of rows
        assert len(hitters) <= tiny_stats.config.bitmap_k

    def test_global_heavy_hitters_capped(self, tiny_ptable):
        config = SketchConfig(bitmap_k=2)
        stats = build_dataset_statistics(tiny_ptable, config)
        assert len(stats.global_heavy_hitters["cat"]) <= 2

    def test_average_size(self, tiny_stats, tiny_oracle):
        average = float(tiny_stats.sizes.sum(axis=1).mean())
        assert average > 0
        assert average == tiny_oracle.average_partition_size_bytes()

    def test_sizes_and_rows_equal_the_oracle(
        self, tiny_ptable, tiny_stats, tiny_oracle
    ):
        expected = [
            [p.size_by_kind()[kind] for kind in FAMILIES]
            for p in tiny_oracle.partitions
        ]
        assert tiny_stats.sizes.tolist() == expected
        assert tiny_stats.num_rows.tolist() == [p.num_rows for p in tiny_ptable]
        assert tiny_stats.global_heavy_hitters == tiny_oracle.global_heavy_hitters
        by_kind = tiny_stats.size_by_kind()
        assert np.array_equal(sum(by_kind.values()), tiny_stats.sizes.sum(axis=1))
