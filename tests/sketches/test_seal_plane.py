"""One seal plane: build, append and WAL replay through the same kernel.

* Golden digests recorded from the commit *before* partitions were sealed
  in arrays (PR 20's parent): every sketch's bytes, the global heavy
  hitters and every columnar-index array of a multi-block table, built
  from scratch and built as 8 partitions + 4 appends. A sketch-layer
  rewrite must not move them.
* Guards that go red if per-value Python objects or the per-partition
  streaming build come back.
"""

from __future__ import annotations

import gc
import hashlib

import numpy as np
import pytest

from repro.api import PS3
from repro.datasets.registry import get_dataset
from repro.engine.layout import append_rows, partition_evenly
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import PartitionedTable, Table
from repro.sketches.builder import (
    SketchConfig,
    append_partition_statistics,
    build_dataset_statistics,
    build_partition_statistics,
)
from repro.sketches.columnar import ColumnarSketchIndex
from repro.sketches.heavy_hitter import HeavyHitterSketch

_SKETCH_FIELDS = ("measures", "histogram", "akmv", "heavy_hitter", "exact_dict")

#: width 200 -> four lossy-counting blocks per 700-row partition, the
#: last one partial.
GOLDEN_CONFIG = SketchConfig(hh_support=0.05)
GOLDEN_SCRATCH = "9aecdde73f0ebf9eb84502692b823c4ad1be82b4d3ff8145f41582b7a40896e6"
GOLDEN_APPENDED = "7b609839fff59c8a4de25ee6af5f809ed5029630b710b5445d5ba99b0b003b34"


def golden_digest(stats, index) -> str:
    digest = hashlib.sha256()
    for pstats in stats.partitions:
        for name, cstats in pstats.columns.items():
            for field in _SKETCH_FIELDS:
                sketch = getattr(cstats, field)
                if sketch is not None:
                    digest.update(f"{pstats.partition_index}.{name}.{field}".encode())
                    digest.update(sketch.to_bytes())
    digest.update(repr(sorted(stats.global_heavy_hitters.items())).encode())
    for name, state in sorted(index.array_state().items()):
        for key, arr in sorted(state.items()):
            digest.update(f"{name}.{key}:{arr.dtype}:{arr.shape}".encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def golden_ptable():
    return get_dataset("kdd").build(12 * 700, 12, seed=5)


class TestGoldenDigests:
    def test_scratch_build(self, golden_ptable):
        stats = build_dataset_statistics(golden_ptable, GOLDEN_CONFIG)
        widths = {
            cstats.heavy_hitter._width
            for cstats in stats.partitions[0].columns.values()
        }
        assert widths == {200}
        assert golden_digest(stats, ColumnarSketchIndex.build(stats)) == GOLDEN_SCRATCH

    def test_eight_partitions_then_four_appends(self, golden_ptable):
        bounds = golden_ptable.boundaries
        columns = golden_ptable.table.columns
        grown = PartitionedTable(
            Table(
                golden_ptable.schema,
                {name: arr[: bounds[8]] for name, arr in columns.items()},
            ),
            bounds[:9],
        )
        stats = build_dataset_statistics(grown, GOLDEN_CONFIG)
        index = ColumnarSketchIndex.build(stats)
        for p in range(8, 12):
            grown = append_rows(
                grown,
                {name: arr[bounds[p] : bounds[p + 1]] for name, arr in columns.items()},
            )
            append_partition_statistics(stats, grown[grown.num_partitions - 1])
            index.extend(stats)
        assert golden_digest(stats, index) == GOLDEN_APPENDED


class TestNoPerValueObjects:
    def test_sealing_all_distinct_floats_allocates_no_object_per_value(self):
        """16 000 distinct values in one lossy-counting block all survive;
        one Python object per survivor (the parent's ``_Entry``) would grow
        the gc-tracked population by 16 000."""
        rows = 16_000
        table = Table(
            Schema.of(Column("v", ColumnKind.NUMERIC)),
            {"v": np.random.default_rng(0).permutation(rows).astype(np.float64)},
        )
        partition = partition_evenly(table, 1)[0]
        config = SketchConfig(hh_support=0.0005)  # width 20 000: one block
        gc.collect()
        before = len(gc.get_objects())
        pstats = build_partition_statistics(partition, config)
        gc.collect()
        grown = len(gc.get_objects()) - before
        assert grown < 1_000, grown
        assert len(pstats.columns["v"].heavy_hitter.entries()) == rows


class TestOnePlane:
    @pytest.fixture
    def build_calls(self, monkeypatch):
        """Counts calls to the one-segment ``HeavyHitterSketch.build``."""
        calls = []
        original = HeavyHitterSketch.build.__func__

        def spy(cls, values, *args, **kwargs):
            calls.append(len(values))
            return original(cls, values, *args, **kwargs)

        monkeypatch.setattr(HeavyHitterSketch, "build", classmethod(spy))
        return calls

    def test_dataset_build_never_streams_a_partition(self, golden_ptable, build_calls):
        stats = build_dataset_statistics(golden_ptable, GOLDEN_CONFIG)
        assert stats.partitions[0].columns["service"].heavy_hitter.bucket == 4
        assert build_calls == []

    def test_append_never_streams_a_partition(self, build_calls):
        dataset = get_dataset("kdd")
        ptable = dataset.build(4 * 1500, 4, seed=9)
        ps3 = PS3(ptable, dataset.workload())
        tail = {name: arr[:2500] for name, arr in ptable.table.columns.items()}
        index = ps3.append(tail)
        sealed = ps3.statistics.partitions[index].columns["service"].heavy_hitter
        assert sealed.total == 2500 and sealed.bucket == 3  # default width 1000
        assert build_calls == []

    def test_partition_seal_is_the_one_segment_batch_build(self, golden_ptable):
        stats = build_dataset_statistics(golden_ptable, GOLDEN_CONFIG)
        sealed = build_partition_statistics(golden_ptable[5], GOLDEN_CONFIG)
        for name, cstats in stats.partitions[5].columns.items():
            other = sealed.columns[name]
            for field in _SKETCH_FIELDS:
                mine, theirs = getattr(cstats, field), getattr(other, field)
                assert (mine is None) == (theirs is None)
                if mine is not None:
                    assert mine.to_bytes() == theirs.to_bytes(), (name, field)
            assert cstats.heavy_hitter.entries() == other.heavy_hitter.entries()
