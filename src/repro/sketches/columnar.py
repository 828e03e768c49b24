"""Columnar (struct-of-arrays) sketch state: the one statistics form.

The seal (:mod:`repro.sketches.builder`) writes each partition's
statistics straight into these per-column arrays, and queries, features,
outliers and the statistics bundle read nothing else, so a whole clause
is evaluated across all N partitions with a handful of numpy operations:

* equi-depth histograms stack into padded ``(N, B+1)`` edge / ``(N, B)``
  depth and distinct-count matrices (:class:`HistogramArrays`), with the
  four selectivity primitives as array passes that match the scalar
  :class:`~repro.sketches.histogram.EquiDepthHistogram` methods
  value-for-value;
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
only semantic difference from a dict-backed walk and are negligible at
these cardinalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from repro.errors import ConfigError, QueryScopeError
from repro.sketches.hashing import hash_value

#: Width of the per-column statistic block (must match
#: ``repro.stats.features.NUM_STATS``; asserted there on import).
NUM_COLUMN_STATS = 17


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

    @cached_property
    def _probe(self) -> SimpleNamespace:
        """What the kernels read, derived once per block (so per
        generation: ``concat`` and ``from_array_state`` make new blocks)
        and never persisted. Buckets are flat, row ``i``'s bucket ``j``
        at ``offsets[i] + j``; each row ends in a sentinel bucket with a
        NaN high edge, where a probe at or above every edge stops, at
        the estimate 1. ``cum`` is the depth before each bucket: depths
        are integer counts, so the prefix sum is exact, like the walk's.
        """
        edges, (n, width) = self.edges, self.depths.shape
        his, first, last = edges[:, 1:], edges[:, 0], edges[:, -1]
        # The first bucket not below a probe is the only one that can
        # hold it only while each row's high edges ascend, NaN last.
        nan = np.isnan(his)
        if ((his[:, 1:] < his[:, :-1]) | (nan[:, :-1] & ~nan[:, 1:])).any():
            raise ConfigError("histogram edges must ascend, NaN only at the end")
        total1 = np.maximum(self.totals, 1.0)

        def rows(body: np.ndarray, sentinel) -> np.ndarray:
            out = np.empty((n, width + 1), dtype=body.dtype)
            out[:, :width], out[:, width] = body, sentinel
            return out

        highs = rows(his, np.nan)
        lo = rows(edges[:, :-1], last).ravel()
        depth, dist = rows(self.depths, 0.0).ravel(), rows(self.distincts, 0.0).ravel()
        with np.errstate(invalid="ignore"):  # inf - inf on infinite edges
            span = highs.ravel() - lo
        ends = {  # (+inf?, inclusive): rows where the primitive is 1 / 0
            (True, True): np.inf >= last,
            (True, False): np.inf > last,
            (False, True): -np.inf < first,
            (False, False): -np.inf <= first,
        }
        head = np.zeros((n, width + 1), dtype=bool)
        head[:, 0] = True
        interp = (dist > 1) & (span > 0)
        unbounded = interp & (lo == -np.inf)
        # A NaN high edge tops a bucket of NaN rows (one distinct) and
        # values above its low edge (``EquiDepthHistogram.fraction_leq``).
        nan_top = np.isnan(highs.ravel()) & (dist > 0)
        return SimpleNamespace(
            highs=highs,
            eq_highs=np.where((nan_top & (dist > 1)).reshape(n, -1), np.inf, highs),
            first=first.copy(),
            offsets=np.arange(n) * (width + 1),
            lo=lo,
            hi=highs.ravel(),
            depth=depth,
            cum=rows(np.cumsum(self.depths, axis=1) - self.depths, total1).ravel(),
            interp=interp,
            # Buckets spanning from -inf count whole (see ``_below``).
            unbounded=unbounded if unbounded.any() else None,
            unbounded_head=unbounded & head.ravel(),
            nan_top=nan_top if nan_top.any() else None,
            span=np.where(span > 0, span, 1.0),
            single=dist == 1,
            dist=dist,
            mass=depth / np.repeat(total1, width + 1) / np.maximum(dist, 1.0),
            empty=self.totals == 0,
            total1=total1,
            floor=1.0 / total1,
            complete=bool(self.has.all()),
            ends={
                key: np.full(n, float(key[0])) if closed.all() else None
                for key, closed in ends.items()
            },
        )

    # -- vectorized selectivity primitives ---------------------------------
    # Valid only where ``has``; callers substitute 1.0 elsewhere, mirroring
    # the scalar estimators' ``hist is None`` fallbacks (``or_full``).

    def or_full(self, values: np.ndarray) -> np.ndarray:
        """``values`` where a partition has a histogram, 1.0 elsewhere."""
        return values if self._probe.complete else np.where(self.has, values, 1.0)

    def fraction_leq(self, value: float) -> np.ndarray:
        """Per-partition estimated fraction with ``x <= value``."""
        return self._below(value, True)

    def fraction_lt(self, value: float) -> np.ndarray:
        """Per-partition estimated fraction with ``x < value``."""
        return self._below(value, False)

    def fraction_eq(self, value: float) -> np.ndarray:
        """Per-partition estimated fraction with ``x == value``."""
        p = self._probe
        hit, mass = self._point(value, p)
        return np.where(hit & ~(p.empty | (value < p.first)), mass, 0.0)

    def _point(self, value: float, p: SimpleNamespace) -> tuple:
        """``(hit, mass)`` of the scalar ``fraction_eq`` walk, less its
        ``total == 0`` and first-edge tests: the first bucket whose high
        edge is not below the probe is the only one that can hold it,
        and a single-distinct bucket holds only its high edge."""
        k = p.offsets + (value <= p.eq_highs).argmax(axis=1)
        hit = np.where(
            p.single.take(k), p.hi.take(k) == value, value <= p.eq_highs.ravel().take(k)
        )
        return hit, p.mass.take(k)

    def _below(self, value: float, inclusive: bool) -> np.ndarray:
        """``fraction_leq(value)``, or ``fraction_lt(value)`` in the same
        pass (the ``leq`` and ``eq`` range tests zero only rows the
        ``lt`` test zeroes too)."""
        p = self._probe
        # The bucket the scalar walk stops in: the first whose high edge
        # the probe is not ``>=`` (a NaN probe or edge stops it).
        k = p.offsets + (value >= p.highs).argmin(axis=1)
        with np.errstate(invalid="ignore"):
            partial = np.where(
                p.interp.take(k),
                p.depth.take(k) * (value - p.lo.take(k)) / p.span.take(k),
                0.0,
            )
        if p.unbounded is not None:
            # No interpolation from -inf: the whole bucket counts, save a
            # -inf probe past the first (the only inclusive) bucket.
            whole = p.unbounded if value > -np.inf else p.unbounded_head
            partial = np.where(
                p.unbounded.take(k), p.depth.take(k) * whole.take(k), partial
            )
        if p.nan_top is not None and value == np.inf:
            dist = p.dist.take(k)
            with np.errstate(divide="ignore", invalid="ignore"):
                share = p.depth.take(k) * (dist - 1) / dist
            partial = np.where(p.nan_top.take(k), share, partial)
        est = np.minimum(np.maximum(p.cum.take(k) + partial, 1.0) / p.total1, 1.0)
        if inclusive:
            return np.where(p.empty | (value < p.first), 0.0, est)
        hit, mass = self._point(value, p)
        zero = p.empty | (value <= p.first)
        return np.where(zero, 0.0, np.maximum(est - np.where(hit, mass, 0.0), p.floor))

    def fraction_in_interval(
        self,
        low: float = -np.inf,
        high: float = np.inf,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> np.ndarray:
        """Per-partition estimated fraction of rows in an interval."""
        if low > high:
            return np.zeros(self.num_partitions, dtype=np.float64)
        upper = self._fraction_below(high, high_inclusive)
        lower = self._fraction_below(low, not low_inclusive)
        return np.where(self._probe.empty, 0.0, (upper - lower).clip(0.0, 1.0))

    def _fraction_below(self, value: float, inclusive: bool) -> np.ndarray:
        """``fraction_leq(value)`` if ``inclusive``, else ``fraction_lt``.

        An infinite ``value`` — the open side of a one-sided range —
        takes its closed form, 1 at ``+inf`` and 0 at ``-inf``, when
        every row's own range test returns exactly that: ``+inf >= last
        edge`` (``>`` for ``lt``, which estimates the equality mass at an
        infinite last edge) and ``-inf < first edge`` (``<=`` for
        ``lt``). NaN and equal-infinite end edges fail those tests. Rows
        with ``totals == 0`` differ, but :meth:`fraction_in_interval`
        zeroes them.
        """
        form = self._probe.ends[value > 0, inclusive] if math.isinf(value) else None
        return self._below(value, inclusive) if form is None else form


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
        lo = int(self.keys.searchsorted(probe, side="left"))
        hi = int(self.keys.searchsorted(probe, side="right"))
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

    @property
    def num_partitions(self) -> int:
        return self.stats.shape[0]

    @cached_property
    def exact_everywhere(self) -> bool:
        """Every partition's exact dictionary is usable, so it alone
        answers an ``IN`` or ``Contains`` clause on this column."""
        return bool(self.ed_usable.all())

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

        Matches the scalar occurrence bitmaps (membership
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
    """Every column's :class:`ColumnIndex`: a dataset's statistics."""

    def __init__(self, columns: dict[str, ColumnIndex], num_partitions: int) -> None:
        self.columns = columns
        self.num_partitions = num_partitions
        # column -> (hitters, bitmap bytes -> code, codes so far): derived
        # in memory by ``signature_codes``, never part of ``array_state``.
        self._signatures: dict[str, tuple] = {}

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
        Kept per column for ``find_outliers`` and, after :meth:`append`,
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
        arrays in place: queries only read, and :meth:`append` goes
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

    def append(self, blocks: dict[str, ColumnIndex], added: int) -> None:
        """Absorb ``added`` sealed partitions, one block per column.

        The existing arrays are padded/stacked into *new* arrays, never
        written in place (older generations and non-writeable arrays
        rely on it). Signature codes catch up on their next lookup.
        """
        for name, block in blocks.items():
            self.columns[name] = self.columns[name].concat(block)
        self.num_partitions += added


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
