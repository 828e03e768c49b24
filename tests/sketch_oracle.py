"""The object layer of the statistics: the tests' oracle.

Production seals partitions straight into the columnar index
(``repro.sketches.builder``). This module keeps what that replaced, as
the reference the index is held to:

* the scalar per-partition builder — every sketch of one partition slice
  built on its own (``build_column_statistics``,
  ``build_partition_statistics``, :func:`oracle_dataset`) — and each
  sketch's Table 4 size;
* the object -> index transposition (:func:`column_index`,
  :func:`sketch_index`), which the seal's arrays must equal array for
  array;
* the scalar selectivity walk (:func:`estimate_selectivity`), the
  oracle of ``repro.stats.plan``;
* the scalar occurrence bitmaps (:func:`occurrence_bitmaps`,
  :func:`bitmap_signature`), the oracle of the index's occurrence
  matrix and signature codes.

Import it with ``tests`` on ``sys.path`` (``from sketch_oracle import
...``), as ``scalar_oracle`` is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.engine.predicates import (
    And,
    Comparison,
    Contains,
    InSet,
    Not,
    Or,
    Predicate,
)
from repro.engine.schema import Column, Schema
from repro.engine.table import Partition, PartitionedTable
from repro.errors import QueryScopeError
from repro.sketches.akmv import AKMVSketch
from repro.sketches.builder import SketchConfig
from repro.sketches.columnar import (
    NUM_COLUMN_STATS,
    ColumnarSketchIndex,
    ColumnIndex,
    HistogramArrays,
    IndexRows,
    KeyedFrequencyTable,
    SubstringTable,
)
from repro.sketches.exact_dict import ExactDictionary
from repro.sketches.hashing import hash_value
from repro.sketches.heavy_hitter import HeavyHitterSketch
from repro.sketches.histogram import EquiDepthHistogram
from repro.sketches.measures import MeasuresSketch
from repro.stats.plan import _Interval

#: Every sketch field of a :class:`ColumnStatistics`, in encoding order.
SKETCH_FIELDS = ("measures", "histogram", "akmv", "heavy_hitter", "exact_dict")


# -- sketch objects -----------------------------------------------------------


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

    def size_bytes(self) -> int:
        return sum(cs.size_bytes() for cs in self.columns.values())

    def size_by_kind(self) -> dict[str, int]:
        total = {"measure": 0, "histogram": 0, "akmv": 0, "hh": 0}
        for cs in self.columns.values():
            for kind, size in cs.size_by_kind().items():
                total[kind] += size
        return total


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


def build_partition_statistics(
    partition: Partition, config: SketchConfig | None = None
) -> PartitionStatistics:
    """Every sketch of every column of one partition, each on its own."""
    config = config or SketchConfig()
    return PartitionStatistics(
        partition_index=partition.index,
        num_rows=partition.num_rows,
        columns={
            column.name: build_column_statistics(
                column, partition.columns[column.name], config
            )
            for column in partition.table.schema
        },
    )


@dataclass
class OracleDataset:
    """Per-partition sketch objects plus the global heavy hitters."""

    schema: Schema
    config: SketchConfig
    partitions: list[PartitionStatistics]
    global_heavy_hitters: dict[str, tuple] = field(default_factory=dict)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def average_partition_size_bytes(self) -> float:
        if not self.partitions:
            return 0.0
        return float(np.mean([p.size_bytes() for p in self.partitions]))

    def append(self, partition: Partition) -> PartitionStatistics:
        """Seal one more partition (global heavy hitters stay frozen)."""
        pstats = build_partition_statistics(partition, self.config)
        pstats.partition_index = self.num_partitions
        self.partitions.append(pstats)
        return pstats


def merged_heavy_hitters(
    partitions: list[PartitionStatistics], column: str, config: SketchConfig
) -> HeavyHitterSketch:
    """Every partition's heavy-hitter sketch of ``column``, merged."""
    merged = config.heavy_hitter_sketch()
    merged.merge(*(p.columns[column].heavy_hitter for p in partitions))
    return merged


def global_heavy_hitters(
    partitions: list[PartitionStatistics], schema: Schema, config: SketchConfig
) -> dict[str, tuple]:
    out = {}
    for column in schema:
        merged = merged_heavy_hitters(partitions, column.name, config)
        ranked = sorted(merged.items().items(), key=lambda kv: -kv[1])
        out[column.name] = tuple(value for value, __ in ranked[: config.bitmap_k])
    return out


def oracle_dataset(
    ptable: PartitionedTable, config: SketchConfig | None = None
) -> OracleDataset:
    """Every partition sealed by the scalar builder, one at a time."""
    config = config or SketchConfig()
    partitions = [build_partition_statistics(p, config) for p in ptable]
    return OracleDataset(
        ptable.schema,
        config,
        partitions,
        global_heavy_hitters(partitions, ptable.schema, config),
    )


# -- the object -> index transposition ----------------------------------------


def column_stat_vector(cstats: ColumnStatistics) -> np.ndarray:
    """The 17 per-column statistics of one partition (Table 2)."""
    out = np.zeros(NUM_COLUMN_STATS, dtype=np.float64)
    measures = cstats.measures
    if measures is not None:
        out[0] = measures.mean
        out[1] = measures.mean_sq
        out[2] = measures.std
        out[3] = measures.min_value()
        out[4] = measures.max_value()
        out[5] = measures.log_mean
        out[6] = measures.log_mean_sq
        out[7] = measures.log_min_value()
        out[8] = measures.log_max_value()
    if cstats.akmv is not None:
        avg, mx, mn, total = cstats.akmv.freq_stats()
        out[9] = cstats.akmv.distinct_estimate()
        out[10] = avg
        out[11] = mx
        out[12] = mn
        out[13] = total
    if cstats.heavy_hitter is not None:
        count, avg, mx = cstats.heavy_hitter.stats()
        out[14] = count
        out[15] = avg
        out[16] = mx
    return out


def histogram_arrays(stats_list: list[ColumnStatistics]) -> HistogramArrays:
    """``HistogramArrays`` of the partitions' histograms, padded."""
    n = len(stats_list)
    hists = [cs.histogram for cs in stats_list]
    max_buckets = max(
        (h.num_buckets for h in hists if h is not None), default=1
    )
    edges = np.zeros((n, max_buckets + 1), dtype=np.float64)
    depths = np.zeros((n, max_buckets), dtype=np.float64)
    distincts = np.zeros((n, max_buckets), dtype=np.float64)
    totals = np.zeros(n, dtype=np.float64)
    has = np.zeros(n, dtype=bool)
    for i, hist in enumerate(hists):
        if hist is None:
            continue
        has[i] = True
        b = hist.num_buckets
        edges[i, : b + 1] = hist.edges
        edges[i, b + 1 :] = hist.edges[-1]
        depths[i, :b] = hist.depths
        distincts[i, :b] = hist.distincts
        totals[i] = hist.total
    return HistogramArrays(edges, depths, distincts, totals, has)


def column_index(
    name: str, stats_list: list[ColumnStatistics], part_offset: int = 0
) -> ColumnIndex:
    """The old object -> index transposition of one column."""
    n = len(stats_list)
    stats = np.zeros((n, NUM_COLUMN_STATS), dtype=np.float64)
    hh_keys: list[int] = []
    hh_parts: list[int] = []
    hh_freqs: list[float] = []
    hhs_values: list[str] = []
    hhs_parts: list[int] = []
    hhs_freqs: list[float] = []
    hh_covered = np.zeros(n, dtype=np.float64)
    ed_usable = np.zeros(n, dtype=bool)
    ed_totals = np.zeros(n, dtype=np.float64)
    ed_keys: list[int] = []
    ed_parts: list[int] = []
    ed_fracs: list[float] = []
    eds_values: list[str] = []
    eds_parts: list[int] = []
    eds_counts: list[float] = []
    for i, cstats in enumerate(stats_list):
        part = part_offset + i
        stats[i] = column_stat_vector(cstats)
        if cstats.heavy_hitter is not None:
            freqs = cstats.heavy_hitter.frequencies()
            hh_covered[i] = sum(freqs.values())
            for value, freq in freqs.items():
                hh_keys.append(hash_value(value))
                hh_parts.append(part)
                hh_freqs.append(freq)
                if isinstance(value, str):
                    hhs_values.append(value)
                    hhs_parts.append(part)
                    hhs_freqs.append(freq)
        dictionary = cstats.exact_dict
        if dictionary is not None and dictionary.usable:
            ed_usable[i] = True
            ed_totals[i] = dictionary.total
            for value, fraction in dictionary.fractions().items():
                ed_keys.append(hash_value(value))
                ed_parts.append(part)
                ed_fracs.append(fraction)
            for value, count in dictionary.counts.items():
                eds_values.append(value)
                eds_parts.append(part)
                eds_counts.append(float(count))
    return ColumnIndex(
        name=name,
        stats=stats,
        hist=histogram_arrays(stats_list),
        hh_lookup=keyed_table(hh_keys, hh_parts, hh_freqs),
        hh_strings=substring_table(hhs_values, hhs_parts, hhs_freqs),
        hh_covered=hh_covered,
        ed_usable=ed_usable,
        ed_totals=ed_totals,
        ed_lookup=keyed_table(ed_keys, ed_parts, ed_fracs),
        ed_strings=substring_table(eds_values, eds_parts, eds_counts),
    )

def sketch_index(dataset: OracleDataset) -> ColumnarSketchIndex:
    """The whole dataset transposed into a columnar index."""
    columns = {
        column.name: column_index(
            column.name, [p.columns[column.name] for p in dataset.partitions]
        )
        for column in dataset.schema
    }
    return ColumnarSketchIndex(columns, dataset.num_partitions)


def keyed_table(keys, parts, values) -> KeyedFrequencyTable:
    """Entries sorted by key at once (stable: partition order on ties)."""
    key_arr = np.asarray(keys, dtype=np.uint64)
    order = np.argsort(key_arr, kind="stable")
    return KeyedFrequencyTable(
        key_arr[order],
        np.asarray(parts, dtype=np.intp)[order],
        np.asarray(values, dtype=np.float64)[order],
    )


def substring_table(values, parts, weights) -> SubstringTable:
    """String entries deduplicated at once by ``np.unique``."""
    value_arr = np.asarray(values, dtype=np.str_)
    if value_arr.size == 0:
        uniques = np.asarray([], dtype=np.str_)
        codes = np.asarray([], dtype=np.intp)
    else:
        uniques, codes = np.unique(value_arr, return_inverse=True)
    return SubstringTable(
        uniques,
        codes.astype(np.intp),
        np.asarray(parts, dtype=np.intp),
        np.asarray(weights, dtype=np.float64),
    )


def extend_index(index: ColumnarSketchIndex, dataset: OracleDataset) -> None:
    """Transpose the partitions appended since ``index`` was built and
    append them through the index's own append."""
    start = index.num_partitions
    rows = {
        column.name: index_rows(
            column_index(
                column.name,
                [p.columns[column.name] for p in dataset.partitions[start:]],
                part_offset=start,
            )
        )
        for column in dataset.schema
    }
    index.append(rows, dataset.num_partitions - start)


def index_rows(block: ColumnIndex) -> IndexRows:
    """A block's rows as the seal emits them, to extend a column by."""

    def strings(table: SubstringTable) -> tuple:
        values = table.unique_values[table.codes].tolist()
        return values, table.parts, table.weights

    lookups = block.hh_lookup, block.ed_lookup
    hh, ed = ((t.keys, t.parts, t.values) for t in lookups)
    return IndexRows(
        rows={key: block.array_state()[key] for key in ColumnIndex.ROW_FIELDS},
        hh=hh,
        hh_strings=strings(block.hh_strings),
        ed=ed,
        ed_strings=strings(block.ed_strings),
    )


def seal_blocks(sealed) -> dict[str, ColumnIndex]:
    """A :class:`PartitionSeal`'s rows laid out as one-partition columns."""
    return {
        name: ColumnIndex.empty(name).extended(rows)
        for name, rows in sealed.rows.items()
    }


# -- the scalar selectivity walk ----------------------------------------------


@dataclass(frozen=True)
class SelectivityEstimate:
    """The five selectivity features for one (query, partition) pair."""

    upper: float
    lower: float
    indep: float
    clause_min: float
    clause_max: float

    @classmethod
    def exact(cls, value: float) -> SelectivityEstimate:
        return cls(value, value, value, value, value)


_FULL = SelectivityEstimate.exact(1.0)


def _clip(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _interval_estimate(self: _Interval, stats: ColumnStatistics) -> float:
        if self.nan_bound:
            return 0.0
        hist = stats.histogram
        if hist is None:
            return 1.0
        if self.point is not None:
            if math.isnan(self.point):  # conflicting equalities
                return 0.0
            inside_low = self.point > self.low or (
                self.point == self.low and self.low_inclusive
            )
            inside_high = self.point < self.high or (
                self.point == self.high and self.high_inclusive
            )
            if not (inside_low and inside_high):
                return 0.0
            return hist.fraction_eq(self.point)
        return hist.fraction_in_interval(
            self.low, self.high, self.low_inclusive, self.high_inclusive
        )


def _comparison_estimate(clause: Comparison, stats: ColumnStatistics) -> float:
    hist = stats.histogram
    if hist is None and clause.op in ("==", "!="):  # ranges: _Interval.estimate
        return 1.0
    if clause.op == "==":
        return hist.fraction_eq(clause.value)
    if clause.op == "!=":
        return _clip(1.0 - hist.fraction_eq(clause.value))
    interval = _Interval()
    interval.add(clause.op, clause.value)
    return _interval_estimate(interval, stats)


def _categorical_eq_estimate(value, stats: ColumnStatistics) -> float:
    """Estimated fraction of rows equal to one categorical value."""
    if stats.exact_dict is not None and stats.exact_dict.usable:
        return stats.exact_dict.fraction_eq(str(value))
    if stats.heavy_hitter is not None:
        freq = stats.heavy_hitter.frequencies().get(value)
        if freq is not None:
            return freq
    hist = stats.histogram
    if hist is None:
        return 1.0
    return hist.fraction_eq(float(hash_value(value)))


def _in_estimate(clause: InSet, stats: ColumnStatistics) -> float:
    # Sorted, as the compiled plan probes: set order follows the hash seed.
    total = sum(_categorical_eq_estimate(v, stats) for v in sorted(clause.values))
    return _clip(total)


def _contains_estimate(
    clause: Contains, stats: ColumnStatistics
) -> tuple[float, float]:
    """(estimate, upper) for a substring filter.

    With an exact dictionary the answer is exact. Otherwise we can only
    check heavy hitters: matched heavy-hitter mass is a lower/point
    estimate, and the non-heavy-hitter remainder could all match, which
    bounds the upper.
    """
    if stats.exact_dict is not None and stats.exact_dict.usable:
        exact = stats.exact_dict.fraction_containing(clause.text)
        return exact, exact
    matched = 0.0
    covered = 0.0
    if stats.heavy_hitter is not None:
        for value, freq in stats.heavy_hitter.frequencies().items():
            covered += freq
            if isinstance(value, str) and clause.text in value:
                matched += freq
    upper = _clip(matched + max(1.0 - covered, 0.0))
    return _clip(matched), upper


@dataclass(frozen=True)
class _Result:
    low: float
    high: float
    indep: float
    leaves: tuple[float, ...]


def _leaf(clause: Predicate, stats: PartitionStatistics) -> _Result:
    name = next(iter(clause.columns()))
    cstats = stats.columns.get(name)
    if cstats is None:
        raise QueryScopeError(f"no statistics for column {name!r}")
    if isinstance(clause, Comparison):
        est = _comparison_estimate(clause, cstats)
        return _Result(_clip(est), _clip(est), _clip(est), (_clip(est),))
    if isinstance(clause, InSet):
        est = _in_estimate(clause, cstats)
        return _Result(est, est, est, (est,))
    if isinstance(clause, Contains):
        est, upper = _contains_estimate(clause, cstats)
        return _Result(est, upper, est, (est,))
    raise QueryScopeError(f"unsupported clause {type(clause).__name__}")


def _joint_comparison_groups(
    node: And, stats: PartitionStatistics
) -> tuple[list[_Result], list[Predicate]]:
    """Evaluate same-column comparison children of an AND jointly.

    Returns joint results (one per column with >= 2 mergeable comparisons)
    plus the children that were *not* merged and still need evaluation.
    """
    mergeable: dict[str, list[Comparison]] = {}
    rest: list[Predicate] = []
    for child in node.children:
        if isinstance(child, Comparison) and child.op != "!=":
            mergeable.setdefault(child.column, []).append(child)
        else:
            rest.append(child)
    joint: list[_Result] = []
    for column, clauses in mergeable.items():
        if len(clauses) == 1:
            rest.append(clauses[0])
            continue
        interval = _Interval()
        for clause in clauses:
            interval.add(clause.op, clause.value)
        cstats = stats.columns[column]
        est = _clip(_interval_estimate(interval, cstats))
        individual = tuple(
            _clip(_comparison_estimate(c, cstats)) for c in clauses
        )
        joint.append(_Result(est, est, est, individual))
    return joint, rest


def _evaluate(node: Predicate, stats: PartitionStatistics) -> _Result:
    if isinstance(node, Not):
        inner = _evaluate(node.child, stats)
        return _Result(
            _clip(1.0 - inner.high),
            _clip(1.0 - inner.low),
            _clip(1.0 - inner.indep),
            tuple(_clip(1.0 - e) for e in inner.leaves),
        )
    if isinstance(node, And):
        joint, rest = _joint_comparison_groups(node, stats)
        results = joint + [_evaluate(child, stats) for child in rest]
        m = len(results)
        low = _clip(sum(r.low for r in results) - (m - 1))
        high = min(r.high for r in results)
        indep = math.prod(r.indep for r in results)
        leaves = tuple(e for r in results for e in r.leaves)
        return _Result(low, _clip(high), _clip(indep), leaves)
    if isinstance(node, Or):
        results = [_evaluate(child, stats) for child in node.children]
        low = max(r.low for r in results)
        high = _clip(sum(r.high for r in results))
        indep = min(r.indep for r in results)  # the paper's OR rule
        leaves = tuple(e for r in results for e in r.leaves)
        return _Result(_clip(low), high, _clip(indep), leaves)
    return _leaf(node, stats)


def estimate_selectivity(
    predicate: Predicate | None, stats: PartitionStatistics
) -> SelectivityEstimate:
    """The five selectivity features of a predicate on one partition."""
    if predicate is None:
        return _FULL
    result = _evaluate(predicate, stats)
    leaves = result.leaves or (result.indep,)
    return SelectivityEstimate(
        upper=result.high,
        lower=result.low,
        indep=result.indep,
        clause_min=min(leaves),
        clause_max=max(leaves),
    )


# -- occurrence bitmaps ---------------------------------------------------------


def occurrence_bitmap(
    dataset: OracleDataset, partition: int, column: str
) -> np.ndarray:
    """Bitmap (0/1 float vector) for one partition and column."""
    global_hitters = dataset.global_heavy_hitters.get(column, ())
    sketch = dataset.partitions[partition].columns[column].heavy_hitter
    local = set(sketch.items()) if sketch is not None else set()
    return np.array(
        [1.0 if value in local else 0.0 for value in global_hitters],
        dtype=np.float64,
    )


def occurrence_bitmaps(dataset: OracleDataset, column: str) -> np.ndarray:
    """Bitmap matrix, shape ``(num_partitions, k)``, for one column."""
    width = len(dataset.global_heavy_hitters.get(column, ()))
    out = np.zeros((dataset.num_partitions, width), dtype=np.float64)
    for p in range(dataset.num_partitions):
        if width:
            out[p] = occurrence_bitmap(dataset, p, column)
    return out


def bitmap_signature(
    dataset: OracleDataset, partition: int, columns: tuple[str, ...]
) -> tuple:
    """Hashable concatenated-bitmap signature over several columns.

    Used to group partitions for outlier detection: partitions with
    identical signatures carry the same mix of frequent group values.
    This is the scalar reference; the picker's select path combines the
    per-column codes of ``ColumnarSketchIndex.signature_codes`` instead.
    """
    parts: list[int] = []
    for column in columns:
        bits = occurrence_bitmap(dataset, partition, column)
        parts.extend(int(b) for b in bits)
    return tuple(parts)


# -- comparisons -----------------------------------------------------------------


def values_identical(a, b) -> bool:
    """Equality that treats NaN as equal to itself (bitwise intent)."""
    return a == b or (a != a and b != b)


def assert_entries_identical(expected, actual, label) -> None:
    """Two heavy-hitter sketches' raw automaton state, NaN-aware."""
    actual_entries, expected_entries = actual.entries(), expected.entries()
    assert len(actual_entries) == len(expected_entries), label
    assert all(
        values_identical(x, y)
        for a, e in zip(actual_entries, expected_entries)
        for x, y in zip(a, e)
    ), label
    assert actual.total == expected.total and actual.bucket == expected.bucket


def assert_indexes_identical(expected, actual):
    """Byte-for-byte comparison of two ColumnarSketchIndex array sets."""
    assert actual.num_partitions == expected.num_partitions
    assert list(actual.columns) == list(expected.columns)
    for name, column in expected.columns.items():
        other = actual.columns[name].array_state()
        for key, arr in column.array_state().items():
            assert arr.dtype == other[key].dtype, (name, key)
            assert arr.shape == other[key].shape, (name, key)
            assert arr.tobytes() == np.ascontiguousarray(other[key]).tobytes(), (
                name,
                key,
            )
