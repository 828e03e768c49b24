"""Statistics builder: one pass over each partition at seal time.

This is the offline half of PS3's statistics builder (paper Figure 1 and
section 2.3.1). For every partition and every column it constructs the
applicable sketches:

==============  ======================================  =====================
Column kind     Sketches                                Notes
==============  ======================================  =====================
numeric         measures, histogram, AKMV, heavy hitter log-measures iff the
                                                        column is positive
date            measures, histogram, AKMV, heavy hitter on integer days
categorical     histogram (hashed), AKMV, heavy hitter, exact dictionary iff
                exact dictionary                        low_cardinality
==============  ======================================  =====================

It also assembles dataset-level artifacts: the *global* heavy hitters per
column (merging per-partition sketches), capped at ``bitmap_k`` values,
which back the occurrence-bitmap features (section 3.2).

There is one seal plane. ``build_column_statistics_batch`` builds the
sketches of any number of segments in one chunked numpy pass over their
concatenation: a single counting pass
(``HeavyHitterSketch.build_segmented``) yields every segment's sorted
distinct values *and* its lossy-counting sketch, whatever the segment
length; each distinct value is hashed once per call (not once per
segment it appears in), and the per-sketch batch constructors
(``EquiDepthHistogram.build_segmented``, ``AKMVSketch.from_hash_counts``,
``ExactDictionary.from_distinct_counts``, ``MeasuresSketch
.build_segmented``) replay the per-segment constructions bit for bit.
In the offline build (``build_dataset_statistics``) the segments are one
column's partitions; in a seal (``seal_appended_columns``, which
``PS3.append`` and WAL replay both call) they are one partition's
columns, stacked by kind. Build, append and recovery seal identically.

The scalar ``build_column_statistics`` constructs every sketch of one
partition slice on its own. The plane hands it the columns a
dataset-global dedup cannot replay (NaN, ``-0.0``); the differential
tests compose it into the reference the plane must equal.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.engine.schema import Column, Schema
from repro.engine.table import Partition, PartitionedTable
from repro.sketches.akmv import AKMVSketch
from repro.sketches.exact_dict import ExactDictionary
from repro.sketches.heavy_hitter import HeavyHitterSketch
from repro.sketches.histogram import EquiDepthHistogram
from repro.sketches.measures import MeasuresSketch


@dataclass(frozen=True)
class SketchConfig:
    """Knobs for sketch construction (paper defaults)."""

    histogram_buckets: int = 10
    akmv_k: int = 128
    hh_support: float = 0.01
    hh_epsilon: float | None = None
    exact_dict_limit: int = 256
    bitmap_k: int = 25  # cap on global heavy hitters per column (section 3.2)


@dataclass
class ColumnStatistics:
    """All sketches for one column of one partition."""

    column: Column
    measures: MeasuresSketch | None = None
    histogram: EquiDepthHistogram | None = None
    akmv: AKMVSketch | None = None
    heavy_hitter: HeavyHitterSketch | None = None
    exact_dict: ExactDictionary | None = None

    def size_bytes(self) -> int:
        """Serialized storage footprint of this column's sketches."""
        sketches = (
            self.measures,
            self.histogram,
            self.akmv,
            self.heavy_hitter,
            self.exact_dict,
        )
        return sum(s.size_bytes() for s in sketches if s is not None)

    def size_by_kind(self) -> dict[str, int]:
        """Per-sketch-family sizes (Table 4 breakdown)."""
        out = {"measure": 0, "histogram": 0, "akmv": 0, "hh": 0}
        if self.measures is not None:
            out["measure"] += self.measures.size_bytes()
        if self.histogram is not None:
            out["histogram"] += self.histogram.size_bytes()
        if self.akmv is not None:
            out["akmv"] += self.akmv.size_bytes()
        if self.heavy_hitter is not None:
            out["hh"] += self.heavy_hitter.size_bytes()
        if self.exact_dict is not None:
            out["hh"] += self.exact_dict.size_bytes()  # dict rides with HH
        return out


@dataclass
class PartitionStatistics:
    """Sketches for every column of one partition."""

    partition_index: int
    num_rows: int
    columns: dict[str, ColumnStatistics]
    # The persisted form, memoized by ``repro.storage.stats_io``: a sealed
    # partition never changes, so it is encoded at most once.
    encoded: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def size_bytes(self) -> int:
        return sum(cs.size_bytes() for cs in self.columns.values())

    def size_by_kind(self) -> dict[str, int]:
        total = {"measure": 0, "histogram": 0, "akmv": 0, "hh": 0}
        for cs in self.columns.values():
            for kind, size in cs.size_by_kind().items():
                total[kind] += size
        return total


@dataclass
class DatasetStatistics:
    """Per-partition statistics plus dataset-level artifacts."""

    schema: Schema
    config: SketchConfig
    partitions: list[PartitionStatistics]
    # column -> ordered tuple of global heavy-hitter values (most frequent
    # first, capped at config.bitmap_k). Basis of occurrence bitmaps.
    global_heavy_hitters: dict[str, tuple] = field(default_factory=dict)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def average_partition_size_bytes(self) -> float:
        if not self.partitions:
            return 0.0
        return float(np.mean([p.size_bytes() for p in self.partitions]))


def build_column_statistics(
    column: Column, values: np.ndarray, config: SketchConfig
) -> ColumnStatistics:
    """Construct every applicable sketch for one column of one partition."""
    stats = ColumnStatistics(column=column)
    if column.is_categorical:
        stats.histogram = EquiDepthHistogram.build_for_strings(
            values, buckets=config.histogram_buckets
        )
        stats.akmv = AKMVSketch.build(values, k=config.akmv_k)
        stats.heavy_hitter = HeavyHitterSketch.build(
            values, support=config.hh_support, epsilon=config.hh_epsilon
        )
        if column.low_cardinality:
            stats.exact_dict = ExactDictionary.build(
                values, limit=config.exact_dict_limit
            )
        return stats

    numeric = values.astype(np.float64)
    stats.measures = MeasuresSketch(track_log=column.positive)
    stats.measures.update(numeric)
    stats.histogram = EquiDepthHistogram.build(
        numeric, buckets=config.histogram_buckets
    )
    stats.akmv = AKMVSketch.build(numeric, k=config.akmv_k)
    stats.heavy_hitter = HeavyHitterSketch.build(
        numeric, support=config.hh_support, epsilon=config.hh_epsilon
    )
    return stats


def _breaks_dedup(numeric: np.ndarray) -> bool:
    """Whether a float column holds NaN or ``-0.0`` (see the kernel)."""
    return bool(
        np.any((numeric == 0.0) & np.signbit(numeric)) or np.isnan(numeric).any()
    )


def _seal_columns(
    schema: Schema, columns: dict[str, np.ndarray], index: int, config: SketchConfig
) -> PartitionStatistics:
    """Sketches for every column of one partition's rows.

    The columns are stacked as the segments of one
    :func:`build_column_statistics_batch` call per kind: numeric and date
    columns as float64, categorical columns by string dtype kind. A float
    column holding NaN or ``-0.0`` is sealed alone, so only it goes to
    the scalar oracle.
    """
    num_rows = len(columns[schema.names[0]])
    groups: dict[object, list[Column]] = {}
    for column in schema:
        values = columns[column.name]
        if column.is_categorical:
            key: object = values.dtype.kind
        elif values.dtype.kind == "f" and _breaks_dedup(values):
            key = (column.name,)
        else:
            key = "numeric"
        groups.setdefault(key, []).append(column)
    sealed: dict[str, ColumnStatistics] = {}
    for group in groups.values():
        values = np.concatenate(
            [columns[column.name] for column in group],
            dtype=None if group[0].is_categorical else np.float64,
        )
        offsets = np.arange(len(group) + 1, dtype=np.int64) * num_rows
        batch = build_column_statistics_batch(group, values, offsets, config)
        sealed.update(zip([column.name for column in group], batch))
    return PartitionStatistics(
        partition_index=index,
        num_rows=num_rows,
        columns={name: sealed[name] for name in schema.names},
    )


def build_partition_statistics(
    partition: Partition, config: SketchConfig | None = None
) -> PartitionStatistics:
    """One pass over a partition: sketches for every column."""
    return _seal_columns(
        partition.table.schema,
        partition.columns,
        partition.index,
        config or SketchConfig(),
    )


def _global_heavy_hitters(
    stats: list[PartitionStatistics], column: str, config: SketchConfig
) -> tuple:
    """Combine per-partition HH sketches into the top global values."""
    sketches = [
        sketch
        for pstats in stats
        if (sketch := pstats.columns[column].heavy_hitter) is not None
    ]
    if not sketches:
        return ()
    merged = HeavyHitterSketch(
        support=sketches[0].support, epsilon=sketches[0].epsilon
    )
    merged.merge(*sketches)
    ranked = sorted(merged.items().items(), key=lambda kv: -kv[1])
    return tuple(value for value, __ in ranked[: config.bitmap_k])


def seal_appended_columns(
    dataset: DatasetStatistics, columns: dict[str, np.ndarray]
) -> PartitionStatistics:
    """Seal one validated batch of rows as the dataset's next partition.

    The one place an appended batch becomes statistics: a live append
    (:func:`append_partition_statistics`) and journal replay both end
    here. The new partition's sketches are added to the dataset; the
    *global* heavy hitters are deliberately left frozen so feature
    schemas (and hence trained models) stay valid. Use
    :func:`recompute_global_heavy_hitters` to measure drift and decide on
    retraining.
    """
    pstats = _seal_columns(
        dataset.schema, columns, dataset.num_partitions, dataset.config
    )
    dataset.partitions.append(pstats)
    return pstats


def append_partition_statistics(
    dataset: DatasetStatistics, partition: Partition
) -> PartitionStatistics:
    """Seal a table's newly appended partition (the live append call)."""
    return seal_appended_columns(dataset, partition.columns)


def recompute_global_heavy_hitters(
    dataset: DatasetStatistics,
) -> dict[str, tuple]:
    """Fresh global heavy hitters over *all* current partitions.

    Returned instead of applied: callers compare against the frozen
    ``dataset.global_heavy_hitters`` to quantify drift (``PS3.staleness``)
    and only swap them in when retraining.
    """
    return {
        column.name: _global_heavy_hitters(
            dataset.partitions, column.name, dataset.config
        )
        for column in dataset.schema
    }


def build_dataset_statistics(
    ptable: PartitionedTable,
    config: SketchConfig | None = None,
) -> DatasetStatistics:
    """Build statistics for every partition plus global artifacts.

    Each column's sketches are built for all partitions in one chunked
    numpy pass over the fused table view — bit-identical to
    :func:`build_column_statistics` per partition slice.
    """
    config = config or SketchConfig()
    partitions = _build_partitions(ptable, config)
    dataset = DatasetStatistics(
        schema=ptable.schema, config=config, partitions=partitions
    )
    for column in ptable.schema:
        dataset.global_heavy_hitters[column.name] = _global_heavy_hitters(
            partitions, column.name, config
        )
    return dataset


_HASH_CHUNK = 8192  # distinct values hashed per joined digest buffer


@dataclass(frozen=True)
class _SegmentedDistincts:
    """Every segment's sorted distinct values, stacked.

    ``uniques`` holds the distinct values of all segments (sorted); each
    segment's distincts are ``codes[offsets[p]:offsets[p+1]]`` indexed
    into it, sorted ascending within the segment, with exact
    multiplicities in ``counts``. One segmented-unique pass replaces the
    per-segment ``np.unique`` calls of every sketch constructor.
    """

    uniques: np.ndarray  # (G,) global distinct values, sorted
    codes: np.ndarray  # (D,) per-partition distinct entries -> uniques
    counts: np.ndarray  # (D,) int64 multiplicities
    offsets: np.ndarray  # (N+1,) partition boundaries into codes/counts

    def values(self) -> np.ndarray:
        """The distinct values themselves (segment-sorted)."""
        return self.uniques[self.codes]

    def hashes(self) -> np.ndarray:
        """Stable 64-bit hash of each global distinct value.

        Hashing is per distinct of all segments — the scalar plane's
        ``hash_array`` hashes each distinct once per segment it appears
        in. The digests are the same blake2b-64 as ``hash_value``, with
        the per-value payload packing batched.
        """
        import hashlib

        from repro.sketches.hashing import hash_value

        uniques = self.uniques
        if uniques.dtype.kind in "fiu":
            # Each float64 as its 8 packed bytes, identical to the
            # per-value struct.pack("<d", ...) in hash_value; the digests
            # are joined and read back as little-endian uint64, a chunk
            # at a time so the temporaries stay bounded.
            packed = np.ascontiguousarray(uniques, dtype="<f8").view("V8")
            blake2b = hashlib.blake2b
            out = np.empty(len(packed), dtype=np.uint64)
            for start in range(0, len(packed), _HASH_CHUNK):
                chunk = packed[start : start + _HASH_CHUNK].tolist()
                digests = b"".join([blake2b(v, digest_size=8).digest() for v in chunk])
                out[start : start + len(chunk)] = np.frombuffer(digests, "<u8")
            return out
        # Strings, bytes, everything else: defer to hash_value per global
        # distinct, so the payload rules (np.str_ -> utf-8, any other
        # scalar -> float pack) can never drift from the scalar plane's
        # hash_array — including its failure mode on unconvertible values.
        return np.fromiter(
            (hash_value(value) for value in uniques),
            dtype=np.uint64,
            count=len(uniques),
        )


def _segment_column(
    values: np.ndarray, offsets: np.ndarray, config: SketchConfig
) -> tuple[_SegmentedDistincts, list[HeavyHitterSketch]]:
    """One pass: per-partition sorted distincts with counts, and the
    per-partition heavy hitters counted on the same keys."""
    uniques, inverse = np.unique(values, return_inverse=True)
    heavy_hitters, distincts = HeavyHitterSketch.build_segmented(
        uniques,
        inverse,
        offsets,
        support=config.hh_support,
        epsilon=config.hh_epsilon,
    )
    return _SegmentedDistincts(uniques, *distincts), heavy_hitters


def _merge_equal_runs(
    keys: np.ndarray, counts: np.ndarray, seg_offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge adjacent equal keys within each segment, summing counts.

    Used twice: collapsing hash collisions after re-sorting a partition's
    distincts by hash (what ``np.unique`` over the hashed rows would
    do), and collapsing uint64 hashes that become equal under the
    float64 cast the hashed histograms are built on.
    """
    total = len(keys)
    n = len(seg_offsets) - 1
    if total == 0:
        return keys, counts, seg_offsets
    part_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(seg_offsets))
    change = np.empty(total, dtype=bool)
    change[0] = True
    change[1:] = (part_ids[1:] != part_ids[:-1]) | (keys[1:] != keys[:-1])
    starts = np.flatnonzero(change)
    cum = np.concatenate(([0], np.cumsum(counts)))
    bounds = np.append(starts, total)
    merged_counts = cum[bounds[1:]] - cum[bounds[:-1]]
    merged_offsets = np.searchsorted(part_ids[starts], np.arange(n + 1))
    return keys[starts], merged_counts.astype(np.int64), merged_offsets


def _sort_segments_by_hash(
    seg: _SegmentedDistincts, hashes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each partition's distinct hashes sorted ascending, collisions merged.

    Mirrors ``np.unique(hash_array(slice), return_counts=True)`` per
    partition: distinct values re-keyed by hash, re-sorted within the
    segment, equal hashes (collisions) summed.
    """
    n = len(seg.offsets) - 1
    entry_hashes = hashes[seg.codes]
    part_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(seg.offsets))
    order = np.lexsort((entry_hashes, part_ids))
    sorted_hashes = entry_hashes[order]
    sorted_counts = seg.counts[order]
    return _merge_equal_runs(sorted_hashes, sorted_counts, seg.offsets)


def build_column_statistics_batch(
    columns: Sequence[Column],
    values: np.ndarray,
    offsets: np.ndarray,
    config: SketchConfig,
) -> list[ColumnStatistics]:
    """Every segment's :class:`ColumnStatistics`.

    ``values`` is the concatenation of the segments, ``offsets`` their
    boundaries and ``columns`` the column of each segment: one column's
    partitions in the offline build, one partition's columns in a seal
    (all categorical, or none). Bit-identical to calling
    :func:`build_column_statistics` per segment.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(offsets) - 1
    if n == 0:
        return []
    if columns[0].is_categorical:
        seg, heavy_hitters = _segment_column(values, offsets, config)
        hashes = seg.hashes()
        hashed_keys, hashed_counts, hashed_offsets = _sort_segments_by_hash(
            seg, hashes
        )
        float_keys, float_counts, float_offsets = _merge_equal_runs(
            hashed_keys.astype(np.float64), hashed_counts, hashed_offsets
        )
        histograms = EquiDepthHistogram.build_segmented(
            float_keys,
            float_counts,
            float_offsets,
            buckets=config.histogram_buckets,
            hashed=True,
        )
        distinct_values = seg.values()
        out = []
        for p in range(n):
            stats = ColumnStatistics(column=columns[p])
            stats.histogram = histograms[p]
            lo, hi = int(hashed_offsets[p]), int(hashed_offsets[p + 1])
            stats.akmv = AKMVSketch.from_hash_counts(
                hashed_keys[lo:hi], hashed_counts[lo:hi], k=config.akmv_k
            )
            stats.heavy_hitter = heavy_hitters[p]
            if columns[p].low_cardinality:
                dlo, dhi = int(seg.offsets[p]), int(seg.offsets[p + 1])
                stats.exact_dict = ExactDictionary.from_distinct_counts(
                    distinct_values[dlo:dhi],
                    seg.counts[dlo:dhi],
                    limit=config.exact_dict_limit,
                )
            out.append(stats)
        return out

    numeric = values.astype(np.float64)
    if _breaks_dedup(numeric):
        # Two float families break the "same value, same bits" premise of
        # a dataset-global dedup: -0.0 compares equal to 0.0 but has
        # different bits (np.unique's run representative depends on sort
        # internals), and NaNs never compare equal yet np.unique
        # collapses them to one representative regardless of payload
        # bits. Either way the global pass cannot replay each
        # partition's per-slice np.unique pick; both are rare enough to
        # hand the whole column to the scalar oracle instead of
        # guessing.
        return [
            build_column_statistics(
                columns[p], numeric[offsets[p] : offsets[p + 1]], config
            )
            for p in range(n)
        ]
    seg, heavy_hitters = _segment_column(numeric, offsets, config)
    measures = MeasuresSketch.build_segmented(
        numeric, offsets, track_log=[c.positive for c in columns]
    )
    distinct_values = seg.values()
    histograms = EquiDepthHistogram.build_segmented(
        distinct_values, seg.counts, seg.offsets, buckets=config.histogram_buckets
    )
    hashed_keys, hashed_counts, hashed_offsets = _sort_segments_by_hash(
        seg, seg.hashes()
    )
    out = []
    for p in range(n):
        stats = ColumnStatistics(column=columns[p])
        stats.measures = measures[p]
        stats.histogram = histograms[p]
        lo, hi = int(hashed_offsets[p]), int(hashed_offsets[p + 1])
        stats.akmv = AKMVSketch.from_hash_counts(
            hashed_keys[lo:hi], hashed_counts[lo:hi], k=config.akmv_k
        )
        stats.heavy_hitter = heavy_hitters[p]
        out.append(stats)
    return out


def _build_partitions(
    ptable: PartitionedTable, config: SketchConfig
) -> list[PartitionStatistics]:
    """All partitions' statistics via per-column chunked passes."""
    # Imported lazily: the engine package pulls in stats.plan -> columnar,
    # which imports this module.
    from repro.engine.batch_executor import fused_view

    view = fused_view(ptable)
    offsets = view.offsets
    schema = ptable.schema
    by_column = {
        column.name: build_column_statistics_batch(
            [column] * ptable.num_partitions, view.columns[column.name], offsets, config
        )
        for column in schema
    }
    sizes = np.diff(offsets)
    return [
        PartitionStatistics(
            partition_index=p,
            num_rows=int(sizes[p]),
            columns={column.name: by_column[column.name][p] for column in schema},
        )
        for p in range(ptable.num_partitions)
    ]
