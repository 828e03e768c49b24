"""Columnar (struct-of-arrays) export of per-partition sketches.

The scalar selectivity estimator walks Python sketch objects once per
partition per query; at thousands of partitions that Python loop is the
picker's dominant cost. :class:`ColumnarSketchIndex` transposes the
per-partition sketch state into per-column arrays once per dataset —
and incrementally on append — so a whole clause can be evaluated across
all N partitions with a handful of numpy operations:

* equi-depth histograms stack into padded ``(N, B+1)`` edge / ``(N, B)``
  depth and distinct-count matrices (:class:`HistogramArrays`), with the
  four selectivity primitives reimplemented as array passes that match
  the scalar :class:`~repro.sketches.histogram.EquiDepthHistogram`
  methods value-for-value;
* heavy-hitter and exact-dictionary tables flatten into hashed
  key / partition / value triples sorted by key
  (:class:`KeyedFrequencyTable`), so one binary search resolves a probe
  value against every partition at once;
* string-valued entries additionally flatten into a deduplicated
  substring table (:class:`SubstringTable`) so ``Contains`` filters scan
  each distinct value once instead of once per partition;
* the 17 per-column statistics of paper Table 2 stack into an
  ``(N, 17)`` block, turning the static half of the feature matrix into
  plain array assignments.

Hash collisions (blake2b-64 over distinct in-partition values) are the
only semantic difference from the dict-backed scalar path and are
negligible at these cardinalities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, QueryScopeError
from repro.sketches.builder import ColumnStatistics, DatasetStatistics
from repro.sketches.hashing import hash_value

#: Width of the per-column statistic block (must match
#: ``repro.stats.features.NUM_STATS``; asserted there on import).
NUM_COLUMN_STATS = 17


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


@dataclass
class HistogramArrays:
    """All partitions' equi-depth histograms for one column, stacked.

    Rows with fewer buckets are padded: edges repeat the last real edge,
    depths and distinct counts pad with zero, so padded buckets are
    degenerate ``(e, e]`` spans that never match a probe. The estimate
    methods mirror ``EquiDepthHistogram`` exactly, including the scalar
    code's check order (``total == 0`` before the full-range shortcut)
    and the recall floor of ``1/total``.
    """

    edges: np.ndarray  # (N, B+1), padded with the last edge
    depths: np.ndarray  # (N, B) float64, zero-padded
    distincts: np.ndarray  # (N, B) float64, zero-padded
    totals: np.ndarray  # (N,) float64
    has: np.ndarray  # (N,) bool — partition has a histogram at all

    @classmethod
    def build(cls, stats_list: list[ColumnStatistics]) -> HistogramArrays:
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
        return cls(edges, depths, distincts, totals, has)

    @property
    def num_partitions(self) -> int:
        return len(self.totals)

    def concat(self, other: HistogramArrays) -> HistogramArrays:
        """Stack another block below this one (append-time extension)."""
        width = max(self.edges.shape[1], other.edges.shape[1])
        return HistogramArrays(
            np.vstack([_pad_edges(self.edges, width), _pad_edges(other.edges, width)]),
            np.vstack(
                [
                    _pad_zeros(self.depths, width - 1),
                    _pad_zeros(other.depths, width - 1),
                ]
            ),
            np.vstack(
                [
                    _pad_zeros(self.distincts, width - 1),
                    _pad_zeros(other.distincts, width - 1),
                ]
            ),
            np.concatenate([self.totals, other.totals]),
            np.concatenate([self.has, other.has]),
        )

    # -- vectorized selectivity primitives ---------------------------------
    # Valid only where ``has``; callers substitute 1.0 elsewhere, mirroring
    # the scalar estimators' ``hist is None`` fallbacks.

    def fraction_leq(self, value: float) -> np.ndarray:
        """Per-partition estimated fraction with ``x <= value``."""
        n = self.num_partitions
        his = self.edges[:, 1:]
        zero = (self.totals == 0) | (value < self.edges[:, 0])
        full = value >= self.edges[:, -1]
        # Whole buckets below the probe: depths are exact integer counts,
        # so this sum is exact regardless of summation order.
        cumulative = np.sum(self.depths * (value >= his), axis=1)
        rows = np.arange(n)
        j = np.argmax(value < his, axis=1)  # first bucket with value < hi
        lo_j = self.edges[rows, j]
        hi_j = his[rows, j]
        span = hi_j - lo_j
        interp = (self.distincts[rows, j] > 1) & (span > 0)
        with np.errstate(invalid="ignore"):
            partial = np.where(
                interp,
                self.depths[rows, j]
                * (value - lo_j)
                / np.where(span > 0, span, 1.0),
                0.0,
            )
        est = np.minimum(
            np.maximum(cumulative + partial, 1.0) / np.maximum(self.totals, 1.0),
            1.0,
        )
        return np.where(zero, 0.0, np.where(full, 1.0, est))

    def fraction_eq(self, value: float) -> np.ndarray:
        """Per-partition estimated fraction with ``x == value``."""
        n = self.num_partitions
        los = self.edges[:, :-1]
        his = self.edges[:, 1:]
        out_of_range = (
            (self.totals == 0)
            | (value < self.edges[:, 0])
            | (value > self.edges[:, -1])
        )
        inside = (los < value) & (value <= his)
        # Bucket 0 is inclusive on its lower edge (scalar bucket rule).
        inside[:, 0] = (los[:, 0] <= value) & (value <= his[:, 0])
        hit = inside.any(axis=1)
        rows = np.arange(n)
        j = np.argmax(inside, axis=1)  # first matching bucket, as in the loop
        depth_fraction = self.depths[rows, j] / np.maximum(self.totals, 1.0)
        dist = self.distincts[rows, j]
        est = np.where(
            dist == 1,
            np.where(his[rows, j] == value, depth_fraction, 0.0),
            depth_fraction / np.maximum(dist, 1.0),
        )
        return np.where(out_of_range | ~hit, 0.0, est)

    def fraction_lt(self, value: float) -> np.ndarray:
        """Per-partition estimated fraction with ``x < value``."""
        zero = (self.totals == 0) | (value <= self.edges[:, 0])
        base = self.fraction_leq(value) - self.fraction_eq(value)
        est = np.maximum(base, 1.0 / np.maximum(self.totals, 1.0))
        return np.where(zero, 0.0, est)

    def fraction_in_interval(
        self,
        low: float = -np.inf,
        high: float = np.inf,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> np.ndarray:
        """Per-partition estimated fraction of rows in an interval."""
        n = self.num_partitions
        if low > high:
            return np.zeros(n, dtype=np.float64)
        upper = (
            self.fraction_leq(high) if high_inclusive else self.fraction_lt(high)
        )
        lower = self.fraction_lt(low) if low_inclusive else self.fraction_leq(low)
        return np.where(
            self.totals == 0, 0.0, np.clip(upper - lower, 0.0, 1.0)
        )


@dataclass
class KeyedFrequencyTable:
    """Flat ``hash(value) -> per-partition scalar`` lookup table.

    Entries from every partition's dictionary sit in one array triple
    sorted by key, so resolving a probe against all N partitions is one
    binary search plus a scatter.
    """

    keys: np.ndarray  # (T,) uint64, sorted ascending
    parts: np.ndarray  # (T,) intp — owning partition of each entry
    values: np.ndarray  # (T,) float64

    @classmethod
    def build(
        cls, keys: list[int], parts: list[int], values: list[float]
    ) -> KeyedFrequencyTable:
        key_arr = np.asarray(keys, dtype=np.uint64)
        order = np.argsort(key_arr, kind="stable")
        return cls(
            key_arr[order],
            np.asarray(parts, dtype=np.intp)[order],
            np.asarray(values, dtype=np.float64)[order],
        )

    def concat(self, other: KeyedFrequencyTable) -> KeyedFrequencyTable:
        keys = np.concatenate([self.keys, other.keys])
        order = np.argsort(keys, kind="stable")
        return KeyedFrequencyTable(
            keys[order],
            np.concatenate([self.parts, other.parts])[order],
            np.concatenate([self.values, other.values])[order],
        )

    def lookup(self, key: int, num_partitions: int) -> tuple[np.ndarray, np.ndarray]:
        """``(values, found)`` arrays of length ``num_partitions``."""
        out = np.zeros(num_partitions, dtype=np.float64)
        found = np.zeros(num_partitions, dtype=bool)
        probe = np.uint64(key)
        lo = int(np.searchsorted(self.keys, probe, side="left"))
        hi = int(np.searchsorted(self.keys, probe, side="right"))
        if hi > lo:
            hits = self.parts[lo:hi]
            out[hits] = self.values[lo:hi]
            found[hits] = True
        return out, found


@dataclass
class SubstringTable:
    """String-valued dictionary entries, deduplicated for substring scans.

    ``matched_weight(text)`` sums each partition's entry weights whose
    value contains ``text``. Entries are stored in per-partition
    dictionary order so the per-bin accumulation matches the scalar
    iteration order exactly.
    """

    unique_values: np.ndarray  # (U,) unicode
    codes: np.ndarray  # (T,) intp into unique_values
    parts: np.ndarray  # (T,) intp
    weights: np.ndarray  # (T,) float64

    @classmethod
    def build(
        cls, values: list[str], parts: list[int], weights: list[float]
    ) -> SubstringTable:
        value_arr = np.asarray(values, dtype=np.str_)
        if value_arr.size == 0:
            uniques = np.asarray([], dtype=np.str_)
            codes = np.asarray([], dtype=np.intp)
        else:
            uniques, codes = np.unique(value_arr, return_inverse=True)
        return cls(
            uniques,
            codes.astype(np.intp),
            np.asarray(parts, dtype=np.intp),
            np.asarray(weights, dtype=np.float64),
        )

    def concat(self, other: SubstringTable) -> SubstringTable:
        """Stack another table's entries below this one's.

        The two sorted dictionaries merge and both code vectors are
        remapped into the union, so only the distinct values are sorted,
        never every entry. Equal to :meth:`build` over the concatenated
        values, parts and weights.
        """
        uniques = np.union1d(self.unique_values, other.unique_values)
        return SubstringTable(
            uniques,
            np.concatenate([self._codes_into(uniques), other._codes_into(uniques)]),
            np.concatenate([self.parts, other.parts]),
            np.concatenate([self.weights, other.weights]),
        )

    def _codes_into(self, uniques: np.ndarray) -> np.ndarray:
        """This table's entry codes into a sorted superset dictionary."""
        return np.searchsorted(uniques, self.unique_values)[self.codes]

    def matched_weight(self, text: str, num_partitions: int) -> np.ndarray:
        """Per-partition total weight of entries containing ``text``."""
        if self.unique_values.size == 0:
            return np.zeros(num_partitions, dtype=np.float64)
        matched = np.char.find(self.unique_values, text) >= 0
        mask = matched[self.codes]
        return np.bincount(
            self.parts[mask], weights=self.weights[mask], minlength=num_partitions
        ).astype(np.float64)


@dataclass
class ColumnIndex:
    """Struct-of-arrays sketch state for one column across N partitions."""

    name: str
    stats: np.ndarray  # (N, NUM_COLUMN_STATS) — Table 2 statistics
    hist: HistogramArrays
    hh_lookup: KeyedFrequencyTable  # hash(value) -> frequency fraction
    hh_strings: SubstringTable  # string heavy hitters, fraction weights
    hh_covered: np.ndarray  # (N,) summed heavy-hitter fraction mass
    ed_usable: np.ndarray  # (N,) exact dictionary present and usable
    ed_totals: np.ndarray  # (N,) exact dictionary row totals
    ed_lookup: KeyedFrequencyTable  # hash(str(value)) -> exact fraction
    ed_strings: SubstringTable  # dictionary values, raw count weights

    @classmethod
    def build(
        cls, name: str, stats_list: list[ColumnStatistics], part_offset: int = 0
    ) -> ColumnIndex:
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
        return cls(
            name=name,
            stats=stats,
            hist=HistogramArrays.build(stats_list),
            hh_lookup=KeyedFrequencyTable.build(hh_keys, hh_parts, hh_freqs),
            hh_strings=SubstringTable.build(hhs_values, hhs_parts, hhs_freqs),
            hh_covered=hh_covered,
            ed_usable=ed_usable,
            ed_totals=ed_totals,
            ed_lookup=KeyedFrequencyTable.build(ed_keys, ed_parts, ed_fracs),
            ed_strings=SubstringTable.build(eds_values, eds_parts, eds_counts),
        )

    @property
    def num_partitions(self) -> int:
        return self.stats.shape[0]

    def concat(self, other: ColumnIndex) -> ColumnIndex:
        """Append another block (whose parts continue this one's range)."""
        return ColumnIndex(
            name=self.name,
            stats=np.vstack([self.stats, other.stats]),
            hist=self.hist.concat(other.hist),
            hh_lookup=self.hh_lookup.concat(other.hh_lookup),
            hh_strings=self.hh_strings.concat(other.hh_strings),
            hh_covered=np.concatenate([self.hh_covered, other.hh_covered]),
            ed_usable=np.concatenate([self.ed_usable, other.ed_usable]),
            ed_totals=np.concatenate([self.ed_totals, other.ed_totals]),
            ed_lookup=self.ed_lookup.concat(other.ed_lookup),
            ed_strings=self.ed_strings.concat(other.ed_strings),
        )

    #: Flattened array fields, in serialization order. Keys are
    #: ``field`` or ``field.subfield`` for the nested array bundles.
    ARRAY_FIELDS = (
        "stats",
        "hist.edges",
        "hist.depths",
        "hist.distincts",
        "hist.totals",
        "hist.has",
        "hh_lookup.keys",
        "hh_lookup.parts",
        "hh_lookup.values",
        "hh_strings.unique_values",
        "hh_strings.codes",
        "hh_strings.parts",
        "hh_strings.weights",
        "hh_covered",
        "ed_usable",
        "ed_totals",
        "ed_lookup.keys",
        "ed_lookup.parts",
        "ed_lookup.values",
        "ed_strings.unique_values",
        "ed_strings.codes",
        "ed_strings.parts",
        "ed_strings.weights",
    )

    def array_state(self) -> dict[str, np.ndarray]:
        """Flat ``field -> array`` view of the whole index column.

        The inverse of :meth:`from_array_state`; this is what
        ``repro.storage.stats_io`` persists so cold starts can rehydrate
        the index without re-exporting the sketch objects.
        """
        out: dict[str, np.ndarray] = {}
        for key in self.ARRAY_FIELDS:
            if "." in key:
                owner_name, field = key.split(".", 1)
                out[key] = getattr(getattr(self, owner_name), field)
            else:
                out[key] = getattr(self, key)
        return out

    @classmethod
    def from_array_state(
        cls, name: str, state: dict[str, np.ndarray]
    ) -> ColumnIndex:
        """Rebuild a column index from :meth:`array_state` arrays."""
        missing = [key for key in cls.ARRAY_FIELDS if key not in state]
        if missing:
            raise ConfigError(
                f"column index state for {name!r} is missing {missing}"
            )
        get = state.__getitem__
        return cls(
            name=name,
            stats=get("stats"),
            hist=HistogramArrays(
                edges=get("hist.edges"),
                depths=get("hist.depths"),
                distincts=get("hist.distincts"),
                totals=get("hist.totals"),
                has=get("hist.has"),
            ),
            hh_lookup=KeyedFrequencyTable(
                keys=get("hh_lookup.keys"),
                parts=get("hh_lookup.parts"),
                values=get("hh_lookup.values"),
            ),
            hh_strings=SubstringTable(
                unique_values=get("hh_strings.unique_values"),
                codes=get("hh_strings.codes"),
                parts=get("hh_strings.parts"),
                weights=get("hh_strings.weights"),
            ),
            hh_covered=get("hh_covered"),
            ed_usable=get("ed_usable"),
            ed_totals=get("ed_totals"),
            ed_lookup=KeyedFrequencyTable(
                keys=get("ed_lookup.keys"),
                parts=get("ed_lookup.parts"),
                values=get("ed_lookup.values"),
            ),
            ed_strings=SubstringTable(
                unique_values=get("ed_strings.unique_values"),
                codes=get("ed_strings.codes"),
                parts=get("ed_strings.parts"),
                weights=get("ed_strings.weights"),
            ),
        )

    def occurrence_matrix(
        self, values: tuple, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """0/1 matrix: value j is a local heavy hitter of partition i.

        Matches :func:`repro.stats.bitmap.occurrence_bitmaps` (membership
        in the partition's reported heavy-hitter set) via hashed lookup.
        Restricted to partitions ``[start, stop)`` so incremental refresh
        only pays for the appended rows.
        """
        if stop is None:
            stop = self.num_partitions
        out = np.zeros((stop - start, len(values)), dtype=np.float64)
        table = self.hh_lookup
        for j, value in enumerate(values):
            probe = np.uint64(hash_value(value))
            lo = int(np.searchsorted(table.keys, probe, side="left"))
            hi = int(np.searchsorted(table.keys, probe, side="right"))
            if hi > lo:
                hits = table.parts[lo:hi]
                hits = hits[(hits >= start) & (hits < stop)]
                out[hits - start, j] = 1.0
        return out


class ColumnarSketchIndex:
    """Columnar view of a :class:`DatasetStatistics` for batch estimation."""

    def __init__(self, columns: dict[str, ColumnIndex], num_partitions: int) -> None:
        self.columns = columns
        self.num_partitions = num_partitions
        # column -> (hitters, bitmap bytes -> code, codes so far): derived
        # in memory by ``signature_codes``, never part of ``array_state``.
        self._signatures: dict[str, tuple] = {}

    @classmethod
    def build(cls, dataset: DatasetStatistics) -> ColumnarSketchIndex:
        columns = {
            column.name: ColumnIndex.build(
                column.name,
                [p.columns[column.name] for p in dataset.partitions],
            )
            for column in dataset.schema
        }
        return cls(columns, dataset.num_partitions)

    def column(self, name: str) -> ColumnIndex:
        try:
            return self.columns[name]
        except KeyError:
            raise QueryScopeError(f"no statistics for column {name!r}") from None

    def signature_codes(self, column: str, hitters: tuple) -> tuple[np.ndarray, int]:
        """``(codes, distinct)``: each partition's occurrence bitmap as an id.

        Partitions share a code exactly when ``occurrence_matrix(hitters)``
        gives them the same row; codes count the distinct rows in order of
        first appearance, so build-at-once and build-then-append agree.
        Kept per column for ``find_outliers`` and, after :meth:`extend`,
        caught up from the appended partitions only.
        """
        known = self._signatures.get(column)
        if known is None or known[0] != hitters:
            known = (hitters, {}, np.empty(0, dtype=np.int64))
        __, seen, codes = known
        if codes.size < self.num_partitions:
            bitmaps = self.column(column).occurrence_matrix(
                hitters, codes.size, self.num_partitions
            )
            fresh = [
                seen.setdefault(row.tobytes(), len(seen)) for row in bitmaps != 0.0
            ]
            codes = np.concatenate([codes, np.asarray(fresh, dtype=np.int64)])
            self._signatures[column] = (hitters, seen, codes)
        return codes, len(seen)

    def array_state(self) -> dict[str, dict[str, np.ndarray]]:
        """Flat ``column -> field -> array`` view of the whole index."""
        return {
            name: column.array_state() for name, column in self.columns.items()
        }

    @classmethod
    def from_array_state(
        cls, state: dict[str, dict[str, np.ndarray]], num_partitions: int
    ) -> ColumnarSketchIndex:
        """Rebuild an index from persisted :meth:`array_state` arrays.

        The arrays are adopted as-is. Nothing in the index mutates its
        arrays in place: queries only read, and :meth:`extend` goes
        through :meth:`ColumnIndex.concat`, which stacks into fresh
        arrays (copy-on-append; string dictionaries are merged into a
        fresh union and both code vectors remapped into it, never edited
        in place) — older generations keep reading theirs.
        """
        columns = {
            name: ColumnIndex.from_array_state(name, column_state)
            for name, column_state in state.items()
        }
        return cls(columns, num_partitions)

    def extend(self, dataset: DatasetStatistics) -> int:
        """Absorb partitions appended to ``dataset`` since the last build.

        Only the new partitions' sketches are visited — the existing
        arrays are padded/stacked into *new* arrays, not recomputed or
        written in place (older generations and non-writeable
        dictionaries rely on it). Signature codes catch up on their next
        lookup. Returns the number of partitions added.
        """
        added = dataset.num_partitions - self.num_partitions
        if added <= 0:
            return 0
        new_slice = dataset.partitions[self.num_partitions :]
        for column in dataset.schema:
            block = ColumnIndex.build(
                column.name,
                [p.columns[column.name] for p in new_slice],
                part_offset=self.num_partitions,
            )
            self.columns[column.name] = self.columns[column.name].concat(block)
        self.num_partitions = dataset.num_partitions
        return added


def _pad_edges(edges: np.ndarray, width: int) -> np.ndarray:
    if edges.shape[1] == width:
        return edges
    pad = np.repeat(edges[:, -1:], width - edges.shape[1], axis=1)
    return np.hstack([edges, pad])


def _pad_zeros(matrix: np.ndarray, width: int) -> np.ndarray:
    if matrix.shape[1] == width:
        return matrix
    pad = np.zeros((matrix.shape[0], width - matrix.shape[1]), dtype=matrix.dtype)
    return np.hstack([matrix, pad])
