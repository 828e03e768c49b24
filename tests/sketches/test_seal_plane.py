"""One seal plane: build, append and WAL replay through the same kernel.

* Golden digests of every sketch's bytes, the global heavy hitters and
  every columnar-index array of a multi-block table, built from scratch
  and built as 8 partitions + 4 appends. The sketch bytes are the scalar
  oracle's (``sketch_oracle``), the heavy hitters and arrays the seal's.
  A sketch-layer rewrite must not move them. They were recorded before
  partitions were sealed in arrays and re-recorded once, when numeric
  AKMV sketches moved from blake2b to the splitmix64 mix; the digests of
  everything but those sketches and the five index statistics they feed
  did not move then, and are pinned on their own.
* Guards that go red if per-value Python objects or the per-partition
  streaming build come back.
* A sealed partition stacks its columns into a few kernel calls; each
  column's index row must equal the oracle's transposition of that
  column's sketches alone, the NaN / ``-0.0`` columns included (sealed
  alone, on their slice's own dedup).
* Distinct numbers are hashed by the splitmix64 mix of their float64
  bits in bounded blocks; strings keep ``hash_value``'s blake2b.
"""

from __future__ import annotations

import gc
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from sketch_oracle import (
    assert_entries_identical,
    assert_indexes_identical,
    SKETCH_FIELDS,
    build_column_statistics,
    column_index,
    oracle_dataset,
    seal_blocks,
)

from repro.api import PS3
from repro.datasets.registry import get_dataset
from repro.engine.layout import append_rows
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import PartitionedTable, Table
from repro.sketches import builder
from repro.sketches.builder import (
    SketchConfig,
    append_partition_statistics,
    build_dataset_statistics,
    seal_partition,
)
from repro.sketches.columnar import ColumnarSketchIndex
from repro.sketches.hashing import hash_distinct, hash_value
from repro.sketches.heavy_hitter import HeavyHitterSketch

#: width 200 -> four lossy-counting blocks per 700-row partition, the
#: last one partial.
GOLDEN_CONFIG = SketchConfig(hh_support=0.05)
GOLDEN_SCRATCH = "846fbb7ca1474c458c7a80a5cc237005350c11f7d685b82bd12dc89cb2d03bd0"
GOLDEN_APPENDED = "42bc9290ab20813dc0613e25ffa381b27f4eed1e4d2d5ff258a9ddf75250fed3"
#: ``golden_digest(..., numeric_akmv=False)``, unchanged by the hash move.
REST_SCRATCH = "dd67025c635c6239eb1e68a7a7b914a311b26a68ebd39e09a7df64f48168874a"
REST_APPENDED = "e768e5e8fb38a2f40168dd28712193c1419245666ded5dfa3a36412b94cd65b3"
#: Columns of a column index's ``stats`` block computed from its AKMV.
_AKMV_STATS = [9, 10, 11, 12, 13]


def golden_digest(oracle, stats, numeric_akmv: bool = True) -> str:
    """sha256 of the oracle's sketches and the seal's heavy hitters and
    index; ``numeric_akmv=False`` leaves out the AKMV sketches of numeric
    and date columns and what they feed."""
    categorical = {column.name for column in stats.schema if column.is_categorical}
    digest = hashlib.sha256()
    for pstats in oracle.partitions:
        for name, cstats in pstats.columns.items():
            for field in SKETCH_FIELDS:
                sketch = getattr(cstats, field)
                if field == "akmv" and not (numeric_akmv or name in categorical):
                    continue
                if sketch is not None:
                    digest.update(f"{pstats.partition_index}.{name}.{field}".encode())
                    digest.update(sketch.to_bytes())
    digest.update(repr(sorted(stats.global_heavy_hitters.items())).encode())
    for name, state in sorted(stats.index.array_state().items()):
        for key, arr in sorted(state.items()):
            if key == "stats" and not (numeric_akmv or name in categorical):
                arr = np.delete(arr, _AKMV_STATS, axis=1)
            digest.update(f"{name}.{key}:{arr.dtype}:{arr.shape}".encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def golden_ptable():
    return get_dataset("kdd").build(12 * 700, 12, seed=5)


class TestGoldenDigests:
    def test_scratch_build(self, golden_ptable):
        oracle = oracle_dataset(golden_ptable, GOLDEN_CONFIG)
        widths = {
            cstats.heavy_hitter._width
            for cstats in oracle.partitions[0].columns.values()
        }
        assert widths == {200}
        stats = build_dataset_statistics(golden_ptable, GOLDEN_CONFIG)
        assert golden_digest(oracle, stats) == GOLDEN_SCRATCH
        assert golden_digest(oracle, stats, numeric_akmv=False) == REST_SCRATCH

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
        for p in range(8, 12):
            grown = append_rows(
                grown,
                {name: arr[bounds[p] : bounds[p + 1]] for name, arr in columns.items()},
            )
            append_partition_statistics(stats, grown[grown.num_partitions - 1])
        oracle = oracle_dataset(golden_ptable, GOLDEN_CONFIG)
        assert golden_digest(oracle, stats) == GOLDEN_APPENDED
        assert golden_digest(oracle, stats, numeric_akmv=False) == REST_APPENDED


class TestNoPerValueObjects:
    def test_sealing_all_distinct_floats_allocates_no_object_per_value(self):
        """16 000 distinct values in one lossy-counting block all survive;
        one Python object per survivor (the parent's ``_Entry``) would grow
        the gc-tracked population by 16 000."""
        rows = 16_000
        schema = Schema.of(Column("v", ColumnKind.NUMERIC))
        columns = {"v": np.random.default_rng(0).permutation(rows).astype(np.float64)}
        config = SketchConfig(hh_support=0.0005)  # width 20 000: one block
        gc.collect()
        before = len(gc.get_objects())
        sealed = seal_partition(schema, columns, 0, config)
        gc.collect()
        grown = len(gc.get_objects()) - before
        assert grown < 1_000, grown
        assert len(sealed.hitters["v"].entries()) == rows


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
        assert stats.running_heavy_hitters["service"].total == 12 * 700
        assert build_calls == []

    def test_append_never_streams_a_partition(self, build_calls):
        dataset = get_dataset("kdd")
        ptable = dataset.build(4 * 1500, 4, seed=9)
        ps3 = PS3(ptable, dataset.workload())
        tail = {name: arr[:2500] for name, arr in ptable.table.columns.items()}
        index = ps3.append(tail)
        assert index == 4 and ps3.statistics.num_rows.tolist()[-1] == 2500
        running = ps3.statistics.running_heavy_hitters["service"]
        assert running.total == 4 * 1500 + 2500
        assert build_calls == []

    def test_partition_seal_is_the_one_segment_batch_build(self, golden_ptable):
        stats = build_dataset_statistics(golden_ptable, GOLDEN_CONFIG)
        oracle = oracle_dataset(golden_ptable, GOLDEN_CONFIG)
        sealed = seal_partition(
            golden_ptable.schema, golden_ptable[5].columns, 5, GOLDEN_CONFIG
        )
        assert sealed.sizes.tolist() == stats.sizes[5].tolist()
        expected = ColumnarSketchIndex(
            {
                name: column_index(name, [cstats], part_offset=5)
                for name, cstats in oracle.partitions[5].columns.items()
            },
            1,
        )
        assert_indexes_identical(expected, ColumnarSketchIndex(seal_blocks(sealed), 1))
        for name, cstats in oracle.partitions[5].columns.items():
            assert_entries_identical(cstats.heavy_hitter, sealed.hitters[name], name)


#: A partition with every seal group: positive, non-positive and
#: declared-positive-but-not floats, ints and dates (one numeric stack),
#: a NaN and a -0.0 column (sealed alone), and categoricals from <U1 to
#: <U9 with and without an exact dictionary (one categorical stack).
STACKED_SCHEMA = Schema.of(
    Column("pos", ColumnKind.NUMERIC, positive=True),
    Column("neg", ColumnKind.NUMERIC),
    Column("not_pos", ColumnKind.NUMERIC, positive=True),
    Column("count", ColumnKind.NUMERIC, positive=True),
    Column("delta", ColumnKind.NUMERIC),
    Column("day", ColumnKind.DATE),
    Column("nan", ColumnKind.NUMERIC, positive=True),
    Column("negzero", ColumnKind.NUMERIC),
    Column("c1", ColumnKind.CATEGORICAL, low_cardinality=True),
    Column("c4", ColumnKind.CATEGORICAL),
    Column("c9", ColumnKind.CATEGORICAL, low_cardinality=True),
    Column("id9", ColumnKind.CATEGORICAL),
)


def stacked_table(rows: int = 900) -> Table:
    rng = np.random.default_rng(28)
    not_pos = rng.exponential(3.0, rows) + 1.0
    not_pos[rows // 2] = 0.0
    nan = rng.exponential(3.0, rows) + 1.0
    nan[::7] = np.nan
    negzero = rng.integers(-3, 4, rows).astype(np.float64)
    negzero[negzero == 0.0] = -0.0
    negzero[::5] = 0.0
    return Table(
        STACKED_SCHEMA,
        {
            "pos": rng.exponential(10.0, rows) + 1.0,
            "neg": rng.normal(0.0, 5.0, rows),
            "not_pos": not_pos,
            "count": rng.integers(1, 60, rows),
            "delta": rng.integers(-40, 40, rows),
            "day": rng.integers(9000, 9100, rows),
            "nan": nan,
            "negzero": negzero,
            "c1": rng.choice(list("abcde"), rows),
            "c4": rng.choice(["x", "ab", "abc", "abcd", "ünï"], rows),
            "c9": rng.choice(["q", "qqqqqqqqq", "tag-ω", "ωω"], rows),
            "id9": np.array([f"v{i:08d}" for i in rng.integers(0, 600, rows)]),
        },
    )


class TestStackedSeal:
    @pytest.fixture
    def kernel(self, monkeypatch):
        """Segments per seal kernel call."""
        calls = []
        batch = builder.build_column_statistics_batch

        def kernel_spy(columns, values, offsets, config):
            calls.append(len(offsets) - 1)
            return batch(columns, values, offsets, config)

        monkeypatch.setattr(builder, "build_column_statistics_batch", kernel_spy)
        return calls

    def test_every_column_equals_its_seal_alone(self, kernel):
        table = stacked_table()
        dtypes = {table.columns[name].dtype.str for name in ("c1", "c4", "c9", "id9")}
        assert dtypes == {"<U1", "<U4", "<U9"}
        sealed = seal_partition(STACKED_SCHEMA, table.columns, 0, GOLDEN_CONFIG)
        assert sorted(kernel) == [1, 1, 4, 6]
        blocks = seal_blocks(sealed)
        assert list(blocks) == list(STACKED_SCHEMA.names)
        for column in STACKED_SCHEMA:
            alone = build_column_statistics(
                column, table.columns[column.name], GOLDEN_CONFIG
            )
            expected = ColumnarSketchIndex(
                {column.name: column_index(column.name, [alone])}, 1
            )
            actual = ColumnarSketchIndex(
                {column.name: blocks[column.name]}, 1
            )
            assert_indexes_identical(expected, actual)
            # repr: the NaN column's entries hold NaNs, which never compare equal.
            assert repr(sealed.hitters[column.name].entries()) == repr(
                alone.heavy_hitter.entries()
            )
        # The log channel: kept for ``pos``, disabled for ``not_pos``.
        assert blocks["not_pos"].stats[0, 5:9].tolist() == [0.0] * 4
        assert (blocks["pos"].stats[0, 5:9] != 0.0).all()

    def test_a_kdd_partition_seals_in_a_few_kernel_calls(self, golden_ptable, kernel):
        stats = build_dataset_statistics(golden_ptable, GOLDEN_CONFIG)
        kernel.clear()  # the offline build: one call per column
        grown = append_rows(golden_ptable, golden_ptable[2].columns)
        append_partition_statistics(stats, grown[grown.num_partitions - 1])
        assert len(kernel) <= 4 and sum(kernel) == len(golden_ptable.schema) == 25


#: Floats whose packed form ends in NUL bytes (zero, subnormals),
#: infinities, and enough others to fill more than one digest chunk.
DIGEST_FLOATS = np.unique(
    np.concatenate(
        (
            [0.0, 1.0, -2.5, np.inf, -np.inf, 5e-324, 1e-310, 2.0**-1060],
            [
                struct.unpack("<d", bytes([i, 7, 0, 0, 0, 0, 0, 0]))[0]
                for i in range(1, 9)
            ],
            np.random.default_rng(1).normal(size=20_000),
        )
    )
)


def splitmix64(value) -> int:
    """The mix in Python integers, on the value's float64 bits."""
    mask = 2**64 - 1
    bits = struct.unpack("<Q", struct.pack("<d", float(value)))[0]
    z = (bits + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


class TestNumericMix:
    def test_hashing_a_million_distinct_floats_stays_bounded(self):
        """The output (8 MB) plus one block of temporaries, not a copy of
        every value beside it."""
        uniques = np.arange(1_000_000, dtype=np.float64) * 0.25
        tracemalloc.start()
        try:
            hashes = hash_distinct(uniques)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hashes.nbytes == 8_000_000
        assert peak < hashes.nbytes + 2 * 2**20, peak
        picks = np.random.default_rng(0).integers(0, len(uniques), 64)
        assert [int(hashes[i]) for i in picks] == [
            splitmix64(uniques[i]) for i in picks
        ]

    @pytest.mark.parametrize(
        "uniques",
        [
            DIGEST_FLOATS,
            np.array([-(2**40), -5, 0, 3, 2**53, 2**62], dtype=np.int64),
            np.array([0, 1, 255, 2**63], dtype=np.uint64),
        ],
        ids=["floats", "ints", "uints"],
    )
    def test_numbers_take_the_mix(self, uniques):
        assert hash_distinct(uniques).tolist() == [splitmix64(v) for v in uniques]

    @pytest.mark.parametrize(
        "uniques",
        [np.array(["", "tcp", "é"]), np.array([b"1", b"2.5"])],
        ids=["str", "bytes"],
    )
    def test_strings_keep_hash_value(self, uniques):
        assert hash_distinct(uniques).tolist() == [hash_value(v) for v in uniques]
