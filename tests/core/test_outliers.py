"""Unit tests for rare-bitmap outlier detection.

``find_outliers`` groups partitions by the signature codes of the
columnar sketch index. Its reference is a composition kept here:
:func:`scalar_find_outliers`, the per-partition
:func:`sketch_oracle.bitmap_signature` loop. Every case checks the
production result against it. The section 4.4 thresholds are the
module's constants; the cases that vary them patch those.
"""

import numpy as np
import pytest
from sketch_oracle import bitmap_signature, oracle_dataset, sketch_index

from repro.core import outliers as outliers_module
from repro.core.outliers import find_outliers
from repro.sketches.builder import build_dataset_statistics
from repro.engine.layout import partition_evenly
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table


def scalar_find_outliers(oracle, group_by, candidates):
    """Section 4.4 one partition at a time: group the candidates by
    ``bitmap_signature``, keep the groups that are small absolutely and
    against the largest, rarest first (ties by first appearance)."""
    columns = tuple(c for c in group_by if oracle.global_heavy_hitters.get(c))
    groups: dict[tuple, list[int]] = {}
    if columns:
        for p in candidates:
            signature = bitmap_signature(oracle, int(p), columns)
            groups.setdefault(signature, []).append(int(p))
    if not groups:
        return np.empty(0, dtype=np.intp)
    threshold = min(
        outliers_module.MAX_ABSOLUTE_SIZE,
        outliers_module.MAX_RELATIVE_SIZE * max(map(len, groups.values())),
    )
    rare = sorted(  # stable: equally rare groups keep first-appearance order
        (members for members in groups.values() if len(members) < threshold),
        key=len,
    )
    return np.array([p for members in rare for p in members], dtype=np.intp)


def thresholds(monkeypatch, absolute, relative):
    """Section 4.4's thresholds set to ``absolute`` and ``relative``."""
    monkeypatch.setattr(outliers_module, "MAX_ABSOLUTE_SIZE", absolute)
    monkeypatch.setattr(outliers_module, "MAX_RELATIVE_SIZE", relative)


def checked_outliers(stats, oracle, group_by, candidates):
    """``find_outliers`` through the index, equal to the scalar loop over
    the ``oracle``'s sketch objects."""
    found = find_outliers(stats, group_by, candidates, index=stats.index)
    np.testing.assert_array_equal(
        found, scalar_find_outliers(oracle, group_by, candidates)
    )
    assert found.dtype == np.intp
    return found


@pytest.fixture(scope="module")
def skewed_dataset():
    """24 partitions: 22 dominated by 'common', 2 dominated by 'rare'."""
    schema = Schema.of(
        Column("g", ColumnKind.CATEGORICAL, low_cardinality=True),
        Column("v", ColumnKind.NUMERIC),
    )
    rows_per_partition = 100
    values, groups = [], []
    for p in range(24):
        if p in (5, 17):
            groups += ["rare"] * rows_per_partition
        else:
            groups += ["common"] * rows_per_partition
        values += list(np.arange(rows_per_partition, dtype=float))
    table = Table(schema, {"g": np.array(groups), "v": np.array(values)})
    ptable = partition_evenly(table, 24)
    return ptable, build_dataset_statistics(ptable)


@pytest.fixture(scope="module")
def oracle(skewed_dataset):
    ptable, __ = skewed_dataset
    return oracle_dataset(ptable)


class TestDetection:
    def test_rare_partitions_found(self, skewed_dataset, oracle):
        __, stats = skewed_dataset
        candidates = np.arange(24)
        outliers = checked_outliers(stats, oracle, ("g",), candidates)
        assert set(outliers.tolist()) == {5, 17}

    def test_rarest_signatures_first(self, skewed_dataset, oracle):
        __, stats = skewed_dataset
        outliers = checked_outliers(stats, oracle, ("g",), np.arange(24))
        assert outliers.size == 2  # both from the same rare signature

    def test_candidates_restrict_search(self, skewed_dataset, oracle):
        __, stats = skewed_dataset
        # excludes 5, 17
        outliers = checked_outliers(stats, oracle, ("g",), np.arange(5))
        assert outliers.size == 0

    def test_no_group_by_no_outliers(self, skewed_dataset, oracle):
        __, stats = skewed_dataset
        assert checked_outliers(stats, oracle, (), np.arange(24)).size == 0

    def test_empty_candidates(self, skewed_dataset, oracle):
        __, stats = skewed_dataset
        none = np.empty(0, dtype=np.intp)
        assert checked_outliers(stats, oracle, ("g",), none).size == 0


class TestThresholds:
    def test_relative_threshold(self, skewed_dataset, oracle, monkeypatch):
        """Paper example: many small equal groups -> none are outlying."""
        __, stats = skewed_dataset
        # With the relative size tiny, even the 2-partition group fails
        # the relative test (2 >= 0.01 * 22).
        thresholds(monkeypatch, 10, 0.01)
        outliers = checked_outliers(stats, oracle, ("g",), np.arange(24))
        assert outliers.size == 0

    def test_absolute_threshold(self, skewed_dataset, oracle, monkeypatch):
        __, stats = skewed_dataset
        thresholds(monkeypatch, 2, 0.5)
        outliers = checked_outliers(stats, oracle, ("g",), np.arange(24))
        assert outliers.size == 0  # group of size 2 is not < 2

    def test_column_without_heavy_hitters_skipped(self, skewed_dataset, oracle):
        __, stats = skewed_dataset
        stats.global_heavy_hitters["v"] = ()
        assert checked_outliers(stats, oracle, ("v",), np.arange(24)).size == 0


class TestIndexParity:
    """The occurrence-matrix path must match the scalar bitmap loop."""

    def test_parity_over_candidate_subsets(self, skewed_dataset, oracle):
        __, stats = skewed_dataset
        rng = np.random.default_rng(3)
        for __unused in range(10):
            size = int(rng.integers(1, 24))
            candidates = np.sort(rng.choice(24, size=size, replace=False))
            checked_outliers(stats, oracle, ("g",), candidates)

    def test_parity_under_custom_thresholds(self, skewed_dataset, oracle, monkeypatch):
        __, stats = skewed_dataset
        for absolute, relative in ((2, 0.5), (10, 0.01), (30, 1.5)):
            thresholds(monkeypatch, absolute, relative)
            checked_outliers(stats, oracle, ("g",), np.arange(24))


class TestIndexParityOnKdd:
    """Index-backed signature codes against the scalar loop on real group-by
    universes: several columns, unsorted candidates, and an index that
    grew by appends against one transposed at once."""

    @pytest.fixture(scope="class")
    def kdd(self):
        from repro.datasets.registry import get_dataset
        from repro.sketches.builder import append_partition_statistics

        spec = get_dataset("kdd")
        full = spec.build(4_000, 40, seed=6)
        stats = build_dataset_statistics(full)
        head = partition_evenly(full.table.take(np.arange(3_000)), 30)
        grown = build_dataset_statistics(head)
        oracle = oracle_dataset(head)
        universe = spec.workload().groupby_universe
        for column in universe:  # codes exist before the index grows
            if grown.global_heavy_hitters.get(column):
                grown.index.signature_codes(column, grown.global_heavy_hitters[column])
        for partition in list(full)[30:]:
            append_partition_statistics(grown, partition)
            oracle.append(partition)
        return stats, grown, oracle, universe

    def column_sets(self, universe):
        sets = [(c,) for c in universe]
        sets += [universe[i : i + 2] for i in range(len(universe) - 1)]
        return sets + [universe, universe[::-1]]

    def test_same_outliers_as_the_scalar_loop_after_appends(self, kdd, monkeypatch):
        __, grown, oracle, universe = kdd
        rng = np.random.default_rng(7)
        found = 0
        thresholds(monkeypatch, 6, 0.5)
        for columns in self.column_sets(universe):
            for __unused in range(6):
                size = int(rng.integers(2, grown.num_partitions + 1))
                candidates = rng.permutation(grown.num_partitions)[:size]
                found += checked_outliers(grown, oracle, columns, candidates).size
        assert found > 20  # the comparison is not between empty arrays

    def test_append_then_build_parity_of_the_codes(self, kdd):
        __, grown, oracle, universe = kdd
        fresh = sketch_index(oracle)
        for column in universe:
            hitters = grown.global_heavy_hitters.get(column)
            if hitters:
                extended, distinct = grown.index.signature_codes(column, hitters)
                built, built_distinct = fresh.signature_codes(column, hitters)
                np.testing.assert_array_equal(extended, built)
                assert extended.size == grown.num_partitions
                assert distinct == built_distinct == len(set(built.tolist()))

    def test_a_wide_group_by_cannot_wrap_the_combined_code(self, kdd, monkeypatch):
        __, grown, oracle, universe = kdd
        candidates = np.arange(grown.num_partitions)[::-1]
        thresholds(monkeypatch, 30, 1.5)
        expected = scalar_find_outliers(oracle, universe, candidates)
        assert expected.size > 10
        # Re-rank at every column.
        monkeypatch.setattr(outliers_module, "_MAX_CODE", 4)
        np.testing.assert_array_equal(
            find_outliers(grown, universe, candidates, index=grown.index),
            expected,
        )
