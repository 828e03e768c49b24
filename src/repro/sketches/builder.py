"""Statistics builder: the seal, one pass over each partition.

This is the offline half of PS3's statistics builder (paper Figure 1 and
section 2.3.1). For every partition and every column it computes the
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

and writes them straight into the one form everything reads: the rows of
the columnar index (:class:`~repro.sketches.columnar.ColumnIndex`, the 17
Table 2 statistics plus the histogram, heavy-hitter and exact-dictionary
tables), each partition's row count, and its Table 4 byte count per
sketch family (the size of each sketch's encoding). No per-partition
sketch object outlives its seal: each partition's heavy-hitter automaton
is merged into one running global :class:`HeavyHitterSketch` per column
and dropped. The running sketch's top values, frozen when the dataset is
built, are the *global* heavy hitters behind the occurrence bitmaps
(section 3.2); :func:`recompute_global_heavy_hitters` reads its current
top values to measure drift.

There is one seal plane. ``build_column_statistics_batch`` seals any
number of segments in one chunked numpy pass over their concatenation: a
single counting pass (``segmented_hitters``) yields every segment's
sorted distinct values *and* its lossy-counting automaton, whatever the
segment length; each distinct value is hashed once per call. In the
offline build (``build_dataset_statistics``) the segments are one
column's partitions; in a seal (``seal_appended_columns``, which
``PS3.append`` and WAL replay both call) they are one partition's
columns, stacked by kind. Build, append and recovery seal identically. A
float column holding NaN or ``-0.0`` is deduplicated one segment at a
time, on the slice's own ``np.unique``, since a dataset-global dedup
cannot replay which NaN payload or zero sign each slice keeps.
"""

from __future__ import annotations

import dataclasses
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.engine.schema import Column, Schema
from repro.engine.table import Partition, PartitionedTable
from repro.rowbuffers import RowBuffers, grow
from repro.sketches.columnar import (
    NUM_COLUMN_STATS,
    ColumnarSketchIndex,
    ColumnIndex,
    IndexRows,
)
from repro.sketches.hashing import hash_distinct, hash_value, normalize_hashes
from repro.sketches.heavy_hitter import (
    HeavyHitterSketch,
    SegmentedHitters,
    merge_pairwise,
    segmented_hitters,
)
from repro.sketches.histogram import segmented_histograms
from repro.sketches.measures import MeasuresSketch

#: Table 4's sketch families, the columns of ``DatasetStatistics.sizes``
#: (an exact dictionary counts with the heavy hitters).
FAMILIES = ("measure", "histogram", "akmv", "hh")

# Encoded sizes, as each sketch's ``size_bytes`` counts them: fixed
# headers plus per-bucket, per-hash and per-entry bytes.
_MEASURE_BYTES = struct.calcsize("<Q10d?")
_HISTOGRAM_HEADER = struct.calcsize("<QI?")
_AKMV_HEADER = struct.calcsize("<II")
_HH_HEADER = struct.calcsize("<ddQI")
_HH_ENTRY = struct.calcsize("<Id") + 1  # + a one-byte type tag
_ED_HEADER = struct.calcsize("<IQ?I")
_ED_ENTRY = struct.calcsize("<IQ")


@dataclass(frozen=True)
class SketchConfig:
    """Knobs for sketch construction (paper defaults)."""

    histogram_buckets: int = 10
    akmv_k: int = 128
    hh_support: float = 0.01
    hh_epsilon: float | None = None
    exact_dict_limit: int = 256
    bitmap_k: int = 25  # cap on global heavy hitters per column (section 3.2)

    def heavy_hitter_sketch(self) -> HeavyHitterSketch:
        """An empty heavy-hitter sketch at these parameters."""
        return HeavyHitterSketch(support=self.hh_support, epsilon=self.hh_epsilon)


@dataclass
class DatasetStatistics:
    """A dataset's statistics: the columnar index plus dataset artifacts.

    ``num_rows`` and ``sizes`` have a row per partition; ``sizes`` holds
    each partition's encoded sketch bytes per :data:`FAMILIES` entry.
    ``global_heavy_hitters`` (column -> values, most frequent first,
    capped at ``config.bitmap_k``) are frozen when the dataset is built,
    so feature schemas and trained models stay valid across appends;
    ``running_heavy_hitters`` keeps merging every sealed partition.
    """

    schema: Schema
    config: SketchConfig
    index: ColumnarSketchIndex
    num_rows: np.ndarray  # (N,) int64
    sizes: np.ndarray  # (N, len(FAMILIES)) int64
    global_heavy_hitters: dict[str, tuple] = field(default_factory=dict)
    running_heavy_hitters: dict[str, HeavyHitterSketch] = field(default_factory=dict)
    # What ``num_rows`` and ``sizes`` view once an append grew them.
    _buffers: RowBuffers | None = field(default=None, repr=False, compare=False)

    @property
    def num_partitions(self) -> int:
        return self.index.num_partitions

    def size_by_kind(self) -> dict[str, np.ndarray]:
        """Per-partition encoded bytes of each sketch family (Table 4)."""
        return {kind: self.sizes[:, i] for i, kind in enumerate(FAMILIES)}


def top_heavy_hitters(sketch: HeavyHitterSketch, k: int) -> tuple:
    """A merged sketch's ``k`` most frequent values (ties: entry order)."""
    ranked = sorted(sketch.items().items(), key=lambda kv: -kv[1])
    return tuple(value for value, __ in ranked[:k])


def recompute_global_heavy_hitters(dataset: DatasetStatistics) -> dict[str, tuple]:
    """Current global heavy hitters over *all* sealed partitions.

    Returned instead of applied: callers compare against the frozen
    ``dataset.global_heavy_hitters`` to quantify drift (``PS3.staleness``)
    and only swap them in when retraining.
    """
    k = dataset.config.bitmap_k
    return {
        name: top_heavy_hitters(sketch, k)
        for name, sketch in dataset.running_heavy_hitters.items()
    }


@dataclass
class SealedSegments:
    """What one seal kernel call emits, a row per segment.

    Per-segment arrays are indexed by segment; entry arrays (``hh_*``,
    ``ed_*``) list every segment's entries, segment after segment, in
    the order the scalar sketches would iterate them. :meth:`rows`
    cuts a run of segments out as the rows a :class:`ColumnIndex` grows
    by.
    """

    stats: np.ndarray  # (n, NUM_COLUMN_STATS)
    edges: np.ndarray  # (n, W+1) histogram edges, padded
    depths: np.ndarray  # (n, W) float64
    distincts: np.ndarray  # (n, W) float64
    buckets: np.ndarray  # (n,) real buckets per histogram
    totals: np.ndarray  # (n,) float64 rows per segment
    hh_rows: np.ndarray  # (H,) segment of each reported heavy hitter
    hh_keys: np.ndarray  # (H,) blake2b key
    hh_freqs: np.ndarray  # (H,) fraction of the segment's rows
    hh_text: list  # the values as ``str`` for categorical columns, else []
    hh_covered: np.ndarray  # (n,) summed reported fractions
    ed_usable: np.ndarray  # (n,) bool
    ed_rows: np.ndarray  # (D,) segment of each exact-dictionary entry
    ed_keys: np.ndarray  # (D,)
    ed_fracs: np.ndarray  # (D,)
    ed_text: list  # (D,) the values
    ed_counts: np.ndarray  # (D,) float64 row counts
    sizes: np.ndarray  # (n, len(FAMILIES)) int64 encoded bytes
    hitters: list[HeavyHitterSketch]  # each segment's automaton

    def __post_init__(self) -> None:
        # What every ``rows`` call cuts from: a seal cuts a row per segment.
        segments = np.arange(len(self.totals) + 1)
        self._hh_bounds = np.searchsorted(self.hh_rows, segments).tolist()
        self._ed_bounds = np.searchsorted(self.ed_rows, segments).tolist()
        self._ed_totals = np.where(self.ed_usable, self.totals, 0.0)
        self._has = np.ones(len(self.totals), dtype=bool)

    def rows(self, lo: int, hi: int, first_part: int) -> IndexRows:
        """Segments ``[lo, hi)`` as the index rows of partitions
        ``first_part, first_part + 1, ...``."""
        ha, hb = self._hh_bounds[lo], self._hh_bounds[hi]
        ea, eb = self._ed_bounds[lo], self._ed_bounds[hi]
        width = max(int(self.buckets[lo:hi].max()), 1)
        hh = (
            self.hh_keys[ha:hb],
            self.hh_rows[ha:hb] + (first_part - lo),
            self.hh_freqs[ha:hb],
        )
        ed_parts = self.ed_rows[ea:eb] + (first_part - lo)
        return IndexRows(
            rows={
                "stats": self.stats[lo:hi],
                "hist.edges": self.edges[lo:hi, : width + 1],
                "hist.depths": self.depths[lo:hi, :width],
                "hist.distincts": self.distincts[lo:hi, :width],
                "hist.totals": self.totals[lo:hi],
                "hist.has": self._has[lo:hi],
                "hh_covered": self.hh_covered[lo:hi],
                "ed_usable": self.ed_usable[lo:hi],
                "ed_totals": self._ed_totals[lo:hi],
            },
            hh=hh,
            # Only a column of string values has substring entries.
            hh_strings=(
                (self.hh_text[ha:hb], hh[1], hh[2])
                if self.hh_text
                else ([], hh[1][:0], hh[2][:0])
            ),
            ed=(self.ed_keys[ea:eb], ed_parts, self.ed_fracs[ea:eb]),
            ed_strings=(self.ed_text[ea:eb], ed_parts, self.ed_counts[ea:eb]),
        )


def _breaks_dedup(numeric: np.ndarray) -> bool:
    """Whether a float column holds NaN or ``-0.0`` (see the module doc)."""
    return bool(
        np.any((numeric == 0.0) & np.signbit(numeric)) or np.isnan(numeric).any()
    )


@dataclass(frozen=True)
class _SegmentedDistincts:
    """Every segment's sorted distinct values, stacked.

    Segment ``p``'s distincts are ``uniques[codes[offsets[p]:offsets[p+1]]]``,
    ascending, with exact multiplicities in ``counts``. ``uniques`` is
    the sorted dataset-global dedup, or (NaN / ``-0.0`` columns) each
    segment's own dedup one after the other.
    """

    uniques: np.ndarray  # (G,) distinct values
    codes: np.ndarray  # (D,) per-segment distinct entries -> uniques
    counts: np.ndarray  # (D,) int64 multiplicities
    offsets: np.ndarray  # (N+1,) segment boundaries into codes/counts
    # The histograms' distinct values where they may differ from
    # ``uniques[codes]``: a scalar histogram dedups with ``np.unique``'s
    # sort, not its argsort, and keeps that pass's NaN and zero picks.
    sorted_values: np.ndarray | None = None

    def values(self) -> np.ndarray:
        """The distinct values themselves (segment-sorted)."""
        return self.uniques[self.codes]

    def histogram_values(self) -> np.ndarray:
        """The distinct values the histograms are built on."""
        return self.values() if self.sorted_values is None else self.sorted_values


def _segment_column(
    values: np.ndarray, offsets: np.ndarray, config: SketchConfig
) -> tuple[_SegmentedDistincts, SegmentedHitters]:
    """One pass: per-segment sorted distincts with counts, and the
    per-segment heavy-hitter automata counted on the same keys."""
    alone = values.dtype.kind == "f" and _breaks_dedup(values)
    if len(offsets) > 2 and alone:
        return _stitch(
            [
                _segment_column(values[lo:hi], np.array([0, hi - lo]), config)
                for lo, hi in zip(offsets[:-1], offsets[1:])
            ]
        )
    uniques, inverse = _unique_inverse(values)
    hitters, distincts = segmented_hitters(
        uniques, inverse, offsets, config.hh_support, config.hh_epsilon
    )
    seg = _SegmentedDistincts(uniques, *distincts)
    if alone:
        seg = dataclasses.replace(seg, sorted_values=np.unique(values))
    return seg, hitters


def _unique_inverse(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)``, sorting integers for
    strings of at most nine ASCII characters: seven bits a character,
    the first highest, pack each into one uint64 whose order is the
    strings' (a shorter string is padded with NUL, as numpy compares)."""
    if values.dtype.kind == "U" and len(values) and values.dtype.itemsize <= 36:
        chars = np.ascontiguousarray(values).view(np.uint32).reshape(len(values), -1)
        if chars.max() < 128:
            keys = np.zeros(len(values), dtype=np.uint64)
            for j in range(chars.shape[1]):
                keys |= chars[:, j].astype(np.uint64) << np.uint64(56 - 7 * j)
            __, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            return values[first], inverse
    return np.unique(values, return_inverse=True)


def _stitch(
    pieces: list[tuple[_SegmentedDistincts, SegmentedHitters]],
) -> tuple[_SegmentedDistincts, SegmentedHitters]:
    """Single-segment passes laid end to end, codes rebased (``uniques``
    then repeat values across segments; nothing reads them sorted)."""
    bases = np.cumsum([0] + [len(seg.uniques) for seg, __ in pieces])

    def cat(arrays, rebase=None):
        if rebase is not None:
            arrays = [a + base for a, base in zip(arrays, rebase)]
        return np.concatenate(arrays)

    def bounds(sizes):
        return np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)

    segs, hits = zip(*pieces)
    return (
        _SegmentedDistincts(
            cat([s.uniques for s in segs]),
            cat([s.codes for s in segs], bases),
            cat([s.counts for s in segs]),
            bounds([len(s.codes) for s in segs]),
            cat([s.histogram_values() for s in segs]),
        ),
        SegmentedHitters(
            cat([h.codes for h in hits], bases),
            cat([h.counts for h in hits]),
            cat([h.deltas for h in hits]),
            bounds([len(h.codes) for h in hits]),
            cat([h.totals for h in hits]),
        ),
    )


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
    """Each segment's distinct hashes sorted ascending, collisions merged.

    Mirrors ``np.unique(hash_array(slice), return_counts=True)`` per
    segment; ``hashes`` are ``hash_distinct(seg.uniques)``.
    """
    n = len(seg.offsets) - 1
    entry_hashes = hashes[seg.codes]
    part_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(seg.offsets))
    order = np.lexsort((entry_hashes, part_ids))
    return _merge_equal_runs(entry_hashes[order], seg.counts[order], seg.offsets)


def _akmv_rows(
    hashes: np.ndarray, counts: np.ndarray, offsets: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Table 2's five AKMV statistics per segment, and the encoded size.

    Each segment keeps its ``k`` smallest distinct hashes. The counts are
    integers, so their sums are exact in any order.
    """
    n = len(offsets) - 1
    held = np.diff(offsets)
    kept = np.minimum(held, k)
    seg = np.repeat(np.arange(n), held)
    take = np.arange(len(hashes)) - offsets[seg] < k
    tracked = counts[take].astype(np.float64)
    out = np.zeros((n, 5), dtype=np.float64)
    out[:, 4] = np.bincount(seg[take], weights=tracked, minlength=n)
    some = kept > 0
    starts = np.concatenate(([0], np.cumsum(kept)))[:-1][some]
    if starts.size:
        out[some, 2] = np.maximum.reduceat(tracked, starts)
        out[some, 3] = np.minimum.reduceat(tracked, starts)
        out[some, 1] = out[some, 4] / kept[some]
    out[:, 0] = kept
    full = kept == k
    if full.any():
        kth = normalize_hashes(hashes[offsets[:-1][full] + k - 1])
        out[full, 0] = np.where(kth <= 0.0, float(k), (k - 1) / kth)
    return out, _AKMV_HEADER + 16 * kept


def _blake_keys(uniques: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """``hash_value`` of each ``uniques[codes]``, once per distinct code."""
    needed, inverse = np.unique(codes, return_inverse=True)
    keys = np.fromiter(
        (hash_value(v) for v in uniques[needed].tolist()),
        dtype=np.uint64,
        count=len(needed),
    )
    return keys[inverse]


def build_column_statistics_batch(
    columns: Sequence[Column],
    values: np.ndarray,
    offsets: np.ndarray,
    config: SketchConfig,
) -> SealedSegments:
    """Seal every segment: its index row, sizes and automaton.

    ``values`` is the concatenation of the segments, ``offsets`` their
    boundaries and ``columns`` the column of each segment: one column's
    partitions in the offline build, one partition's columns in a seal
    (all categorical, or none).
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(offsets) - 1
    categorical = columns[0].is_categorical
    if not categorical:
        values = values.astype(np.float64)
    seg, hitters = _segment_column(values, offsets, config)
    hashes = hash_distinct(seg.uniques)
    hashed_keys, hashed_counts, hashed_offsets = _sort_segments_by_hash(seg, hashes)
    rows = np.diff(offsets)
    stats = np.zeros((n, NUM_COLUMN_STATS), dtype=np.float64)
    sizes = np.zeros((n, len(FAMILIES)), dtype=np.int64)
    if categorical:
        # Hashed histograms are built on the float64 cast of the hashes,
        # under which distinct uint64 hashes can become equal.
        histograms = segmented_histograms(
            *_merge_equal_runs(
                hashed_keys.astype(np.float64), hashed_counts, hashed_offsets
            ),
            buckets=config.histogram_buckets,
        )
    else:
        histograms = segmented_histograms(
            seg.histogram_values(),
            seg.counts,
            seg.offsets,
            buckets=config.histogram_buckets,
        )
        measures = MeasuresSketch.build_segmented(
            values, offsets, track_log=[c.positive for c in columns]
        )
        stats[:, :9] = [sketch.table2() for sketch in measures]
        sizes[:, 0] = _MEASURE_BYTES
    edges, depths, distincts, buckets = histograms
    sizes[:, 1] = _HISTOGRAM_HEADER + 8 * (buckets + 1) + 16 * buckets
    stats[:, 9:14], sizes[:, 2] = _akmv_rows(
        hashed_keys, hashed_counts, hashed_offsets, config.akmv_k
    )

    # Reported heavy hitters: entries at the support level (``items()``).
    sketch = config.heavy_hitter_sketch()
    entry_rows = np.repeat(np.arange(n), np.diff(hitters.bounds))
    floor = (sketch.support - sketch.epsilon) * hitters.totals[entry_rows]
    keep = hitters.counts >= floor
    hh_rows, hh_codes = entry_rows[keep], hitters.codes[keep]
    hh_freqs = hitters.counts[keep] / hitters.totals[hh_rows]
    # Strings encode as utf-8; anything else (numbers, bytes) as a float.
    text = seg.uniques.dtype.kind == "U"
    hh_keys = hashes[hh_codes] if categorical else _blake_keys(seg.uniques, hh_codes)
    hh_text = seg.uniques[hh_codes].tolist() if text else []
    hh_bytes = (
        [_HH_ENTRY + len(value.encode("utf-8")) for value in hh_text]
        if text
        else np.full(len(hh_rows), _HH_ENTRY + 8)
    )
    sizes[:, 3] = _HH_HEADER + np.bincount(hh_rows, hh_bytes, n).astype(np.int64)
    covered = np.zeros(n, dtype=np.float64)
    bounds = np.searchsorted(hh_rows, np.arange(n + 1))
    for p in np.flatnonzero(np.diff(bounds)):
        freqs = hh_freqs[bounds[p] : bounds[p + 1]]
        stats[p, 14:] = (len(freqs), float(np.mean(freqs)), float(np.max(freqs)))
        covered[p] = sum(freqs.tolist())

    # Exact dictionaries: every distinct value of a low-cardinality
    # categorical segment, unless it holds more than the limit.
    low = np.array([c.low_cardinality for c in columns], dtype=bool) & categorical
    held = np.diff(seg.offsets)
    usable = low & (held <= config.exact_dict_limit)
    in_dict = usable[np.repeat(np.arange(n), held)]
    ed_rows = np.repeat(np.arange(n), held)[in_dict]
    ed_codes = seg.codes[in_dict]
    ed_counts = seg.counts[in_dict]
    ed_text = [str(value) for value in seg.uniques[ed_codes].tolist()]
    ed_bytes = [_ED_ENTRY + len(value.encode("utf-8")) for value in ed_text]
    sizes[:, 3] += np.where(
        low, _ED_HEADER + np.bincount(ed_rows, ed_bytes, n).astype(np.int64), 0
    )
    return SealedSegments(
        stats=stats,
        edges=edges,
        depths=depths.astype(np.float64),
        distincts=distincts.astype(np.float64),
        buckets=buckets,
        totals=rows.astype(np.float64),
        hh_rows=hh_rows,
        hh_keys=hh_keys,
        hh_freqs=hh_freqs,
        hh_text=hh_text,
        hh_covered=covered,
        ed_usable=usable,
        ed_rows=ed_rows,
        ed_keys=(
            hashes[ed_codes]
            if text
            else np.fromiter(map(hash_value, ed_text), np.uint64, len(ed_text))
        ),
        ed_fracs=ed_counts / rows[ed_rows],
        ed_text=ed_text,
        ed_counts=ed_counts.astype(np.float64),
        sizes=sizes,
        hitters=hitters.sketches(seg.uniques, sketch.support, sketch.epsilon),
    )


@dataclass
class PartitionSeal:
    """One partition's sealed statistics, ready to append."""

    rows: dict[str, IndexRows]  # column -> its index row
    sizes: np.ndarray  # (len(FAMILIES),) encoded bytes
    hitters: dict[str, HeavyHitterSketch]  # column -> automaton
    num_rows: int


def seal_partition(
    schema: Schema, columns: dict[str, np.ndarray], part: int, config: SketchConfig
) -> PartitionSeal:
    """Seal one partition's rows as partition ``part``.

    The columns are stacked as the segments of one
    :func:`build_column_statistics_batch` call per kind: numeric and date
    columns as float64, categorical columns by string dtype kind. A float
    column holding NaN or ``-0.0`` is sealed alone.
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
    rows, hitters = {}, {}
    sizes = np.zeros(len(FAMILIES), dtype=np.int64)
    for group in groups.values():
        values = np.concatenate(
            [columns[column.name] for column in group],
            dtype=None if group[0].is_categorical else np.float64,
        )
        offsets = np.arange(len(group) + 1, dtype=np.int64) * num_rows
        sealed = build_column_statistics_batch(group, values, offsets, config)
        for i, column in enumerate(group):
            rows[column.name] = sealed.rows(i, i + 1, part)
            hitters[column.name] = sealed.hitters[i]
        sizes += sealed.sizes.sum(axis=0)
    return PartitionSeal(
        rows={name: rows[name] for name in schema.names},
        sizes=sizes,
        hitters=hitters,
        num_rows=num_rows,
    )


def seal_appended_columns(
    dataset: DatasetStatistics, columns: dict[str, np.ndarray]
) -> int:
    """Seal one validated batch of rows as the dataset's next partition.

    The one place an appended batch becomes statistics: a live append
    (:func:`append_partition_statistics`) and journal replay both end
    here. The new rows are written behind the index's rows, row counts
    and sizes (:mod:`repro.rowbuffers`), and every column's automaton
    joins its running global sketch in one pass
    (:func:`~repro.sketches.heavy_hitter.merge_pairwise`); the *frozen*
    global heavy hitters stay as they are, so feature schemas (and hence
    trained models) stay valid. Returns the new partition's index.
    """
    part = dataset.num_partitions
    sealed = seal_partition(dataset.schema, columns, part, dataset.config)
    dataset.index.append(sealed.rows, 1)
    grown, dataset._buffers = grow(
        {"num_rows": dataset.num_rows, "sizes": dataset.sizes},
        {"num_rows": np.array([sealed.num_rows]), "sizes": sealed.sizes[None]},
        dataset._buffers,
    )
    dataset.num_rows, dataset.sizes = grown["num_rows"], grown["sizes"]
    running = dataset.running_heavy_hitters
    merge_pairwise(
        [running[name] for name in sealed.hitters], list(sealed.hitters.values())
    )
    return part


def append_partition_statistics(
    dataset: DatasetStatistics, partition: Partition
) -> int:
    """Seal a table's newly appended partition (the live append call)."""
    return seal_appended_columns(dataset, partition.columns)


def build_dataset_statistics(
    ptable: PartitionedTable,
    config: SketchConfig | None = None,
) -> DatasetStatistics:
    """Seal every partition: one chunked numpy pass per column over the
    fused table view, then the global heavy hitters."""
    # Imported lazily: the engine package pulls in stats.plan -> columnar.
    from repro.engine.batch_executor import fused_view

    config = config or SketchConfig()
    view = fused_view(ptable)
    n = ptable.num_partitions
    columns, running = {}, {}
    sizes = np.zeros((n, len(FAMILIES)), dtype=np.int64)
    for column in ptable.schema:
        sealed = build_column_statistics_batch(
            [column] * n, view.columns[column.name], view.offsets, config
        )
        columns[column.name] = ColumnIndex.empty(column.name).extended(
            sealed.rows(0, n, 0)
        )
        sizes += sealed.sizes
        running[column.name] = config.heavy_hitter_sketch()
        running[column.name].merge(*sealed.hitters)
    dataset = DatasetStatistics(
        schema=ptable.schema,
        config=config,
        index=ColumnarSketchIndex(columns, n),
        num_rows=np.diff(view.offsets).astype(np.int64),
        sizes=sizes,
        running_heavy_hitters=running,
    )
    dataset.global_heavy_hitters = recompute_global_heavy_hitters(dataset)
    return dataset
