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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigError, QueryScopeError
from repro.rowbuffers import RowBuffers, grow
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

    # The probe rows an older generation derived over a prefix of these
    # rows, as ``(rows, buffers)``: set by ``ColumnIndex.extended`` when
    # the width holds, never persisted.
    _grown_from: tuple | None = field(default=None, repr=False, compare=False)

    def _probe_source(self) -> tuple | None:
        """What a block extending this one grows its probe from: this
        block's probe rows once derived, else what it grows from."""
        return self.__dict__.get("_probe_rows", self._grown_from)

    @cached_property
    def _probe(self) -> SimpleNamespace:
        """What the kernels read, derived once per block and never
        persisted. Buckets are flat, row ``i``'s bucket ``j`` at
        ``offsets[i] + j``; each row ends in a sentinel bucket with a NaN
        high edge, where a probe at or above every edge stops, at the
        estimate 1. ``cum`` is the depth before each bucket: depths are
        integer counts, so the prefix sum is exact, like the walk's.

        Every array is row by row (:func:`_probe_rows`), so a block an
        append extended derives only its new rows and writes them behind
        the older generation's (:func:`repro.rowbuffers.grow`).
        """
        source, buffers = self._grown_from, None
        start = 0 if source is None else len(source[0]["first"])
        rows = _probe_rows(
            self.edges[start:],
            self.depths[start:],
            self.distincts[start:],
            self.totals[start:],
            start,
        )
        if source is not None:
            rows, buffers = grow(source[0], rows, source[1])
        self._probe_rows, self._grown_from = (rows, buffers), None
        probe = SimpleNamespace(**rows, hi=rows["highs"].ravel())
        for key in _FLAT_PROBE_ROWS:
            setattr(probe, key, rows[key].ravel())
        # Buckets spanning from -inf count whole (see ``_below``).
        probe.unbounded = probe.unbounded if probe.unbounded.any() else None
        probe.nan_top = probe.nan_top if probe.nan_top.any() else None
        probe.complete = bool(self.has.all())
        first, last = probe.first, self.edges[:, -1]
        closed = {  # (+inf?, inclusive): rows where the primitive is 1 / 0
            (True, True): np.inf >= last,
            (True, False): np.inf > last,
            (False, True): -np.inf < first,
            (False, False): -np.inf <= first,
        }
        probe.ends = {
            key: np.full(len(first), float(key[0])) if mask.all() else None
            for key, mask in closed.items()
        }
        return probe

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
        """Per-partition estimated fraction of rows in an interval.

        Floored at ``1/total`` where the interval reaches the partition's
        first–last edge range, like ``EquiDepthHistogram``: both sides
        carry the one-row floor, so their difference alone can cancel to
        0 on real rows.
        """
        if low > high or (low == high and not (low_inclusive and high_inclusive)):
            return np.zeros(self.num_partitions, dtype=np.float64)
        p = self._probe
        upper = self._fraction_below(high, high_inclusive)
        lower = self._fraction_below(low, not low_inclusive)
        est = (upper - lower).clip(0.0, 1.0)
        last = self.edges[:, -1]
        reaches = (high >= p.first if high_inclusive else high > p.first) & ~(
            low > last if low_inclusive else low >= last
        )
        est = np.where(reaches, np.maximum(est, p.floor), est)
        return np.where(p.empty, 0.0, est)

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


#: Per-bucket probe arrays the kernels read flat.
_FLAT_PROBE_ROWS = (
    "lo",
    "depth",
    "cum",
    "interp",
    "unbounded",
    "unbounded_head",
    "nan_top",
    "span",
    "single",
    "dist",
    "mass",
)


def _probe_rows(
    edges: np.ndarray,
    depths: np.ndarray,
    distincts: np.ndarray,
    totals: np.ndarray,
    start: int,
) -> dict[str, np.ndarray]:
    """The probe arrays of histogram rows ``start, start + 1, ...``, a
    row each (per-bucket ones with the sentinel bucket last)."""
    (n, width) = depths.shape
    his = edges[:, 1:]
    # The first bucket not below a probe is the only one that can hold
    # it only while each row's high edges ascend, NaN last.
    nan = np.isnan(his)
    if ((his[:, 1:] < his[:, :-1]) | (nan[:, :-1] & ~nan[:, 1:])).any():
        raise ConfigError("histogram edges must ascend, NaN only at the end")
    total1 = np.maximum(totals, 1.0)

    def rows(body: np.ndarray, sentinel) -> np.ndarray:
        out = np.empty((n, width + 1), dtype=body.dtype)
        out[:, :width], out[:, width] = body, sentinel
        return out

    highs = rows(his, np.nan)
    lo = rows(edges[:, :-1], edges[:, -1])
    depth, dist = rows(depths, 0.0), rows(distincts, 0.0)
    with np.errstate(invalid="ignore"):  # inf - inf on infinite edges
        span = highs - lo
    head = np.zeros((n, width + 1), dtype=bool)
    head[:, 0] = True
    interp = (dist > 1) & (span > 0)
    unbounded = interp & (lo == -np.inf)
    # A NaN high edge tops a bucket of NaN rows (one distinct) and
    # values above its low edge (``EquiDepthHistogram.fraction_leq``).
    nan_top = np.isnan(highs) & (dist > 0)
    return {
        "highs": highs,
        "eq_highs": np.where(nan_top & (dist > 1), np.inf, highs),
        "first": edges[:, 0].copy(),
        "offsets": np.arange(start, start + n) * (width + 1),
        "lo": lo,
        "depth": depth,
        "cum": rows(np.cumsum(depths, axis=1) - depths, total1),
        "interp": interp,
        "unbounded": unbounded,
        "unbounded_head": unbounded & head,
        "nan_top": nan_top,
        "span": np.where(span > 0, span, 1.0),
        "single": dist == 1,
        "dist": dist,
        "mass": depth / total1[:, None] / np.maximum(dist, 1.0),
        "empty": totals == 0,
        "total1": total1,
        "floor": 1.0 / total1,
    }


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

    def inserted(
        self, keys: np.ndarray, parts: np.ndarray, values: np.ndarray
    ) -> KeyedFrequencyTable:
        """This table with more entries, in fresh arrays: each new key
        lands after the entries already held under it, the new ones in
        the order given, so the result equals a stable sort by key of the
        old entries followed by the new. Nothing is sorted but the new
        keys."""
        if not len(keys):
            return self
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        at = self.keys.searchsorted(keys, side="right") + np.arange(len(keys))
        held = np.ones(len(self.keys) + len(keys), dtype=bool)
        held[at] = False
        out = []
        for mine, theirs in (
            (self.keys, keys),
            (self.parts, parts[order]),
            (self.values, values[order]),
        ):
            merged = np.empty(len(held), dtype=np.result_type(mine, theirs))
            merged[held], merged[at] = mine, theirs
            out.append(merged)
        return KeyedFrequencyTable(*out)

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

    def extended(
        self, values: list[str], parts: np.ndarray, weights: np.ndarray
    ) -> SubstringTable:
        """This table with more entries below, in fresh arrays; equal to
        deduplicating the old values followed by the new at once.

        The new values are looked up in the sorted dictionary; only a
        value it lacks merges it into a fresh union (remapping the old
        codes into it), so no entry is ever sorted.
        """
        if not values:
            return self
        value_arr = np.asarray(values, dtype=np.str_)
        uniques, codes = self.unique_values, self.codes
        at = np.searchsorted(uniques, value_arr)
        known = at < len(uniques)
        known[known] = uniques[at[known]] == value_arr[known]
        if not known.all():
            merged = np.union1d(uniques, value_arr[~known])
            codes = np.searchsorted(merged, uniques)[codes]
            uniques, at = merged, np.searchsorted(merged, value_arr)
        return SubstringTable(
            uniques,
            np.concatenate([codes, at], dtype=np.intp),
            np.concatenate([self.parts, parts], dtype=np.intp),
            np.concatenate([self.weights, weights], dtype=np.float64),
        )

    def matched_weight(self, text: str, num_partitions: int) -> np.ndarray:
        """Per-partition total weight of entries containing ``text``."""
        if self.unique_values.size == 0:
            return np.zeros(num_partitions, dtype=np.float64)
        matched = np.char.find(self.unique_values, text) >= 0
        mask = matched[self.codes]
        return np.bincount(
            self.parts[mask], weights=self.weights[mask], minlength=num_partitions
        ).astype(np.float64)


#: ``HistogramArrays`` fields in constructor order.
_HIST_FIELDS = ("edges", "depths", "distincts", "totals", "has")


class IndexRows(NamedTuple):
    """Appended partitions' rows of one column's index, as the seal
    emits them (:meth:`ColumnIndex.extended` lays them out).

    ``rows`` holds the new rows of each :attr:`ColumnIndex.ROW_FIELDS`
    array, histograms at their own width. The entry triples list the new
    partitions' entries in partition order, unsorted: ``hh`` / ``ed`` as
    (hashed key, partition, fraction of its rows) for the lookup tables,
    ``hh_strings`` / ``ed_strings`` as (string value, partition, weight)
    for the substring tables.
    """

    rows: dict[str, np.ndarray]
    hh: tuple[np.ndarray, np.ndarray, np.ndarray]
    hh_strings: tuple[list, np.ndarray, np.ndarray]
    ed: tuple[np.ndarray, np.ndarray, np.ndarray]
    ed_strings: tuple[list, np.ndarray, np.ndarray]


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
    # The buffers the row arrays are views of, once an append grew them.
    _buffers: RowBuffers | None = field(default=None, repr=False, compare=False)

    @property
    def num_partitions(self) -> int:
        return self.stats.shape[0]

    @cached_property
    def exact_everywhere(self) -> bool:
        """Every partition's exact dictionary is usable, so it alone
        answers an ``IN`` or ``Contains`` clause on this column."""
        return bool(self.ed_usable.all())

    @classmethod
    def empty(cls, name: str) -> ColumnIndex:
        """A column of no partitions, which a build extends by all of
        them at once (the same layout as an append's)."""
        floats, ids = np.empty(0, dtype=np.float64), np.empty(0, dtype=np.intp)
        no_entries = KeyedFrequencyTable(np.empty(0, dtype=np.uint64), ids, floats)
        no_strings = SubstringTable(np.empty(0, dtype=np.str_), ids, ids, floats)
        return cls(
            name=name,
            stats=np.empty((0, NUM_COLUMN_STATS)),
            hist=HistogramArrays(
                np.empty((0, 1)),
                np.empty((0, 0)),
                np.empty((0, 0)),
                floats,
                np.empty(0, dtype=bool),
            ),
            hh_lookup=no_entries,
            hh_strings=no_strings,
            hh_covered=floats,
            ed_usable=np.empty(0, dtype=bool),
            ed_totals=floats,
            ed_lookup=no_entries,
            ed_strings=no_strings,
        )

    def extended(self, new: IndexRows) -> ColumnIndex:
        """This column with the appended partitions' rows below.

        The row arrays (:attr:`ROW_FIELDS`) grow into the spare rows of
        this column's buffers (:func:`repro.rowbuffers.grow`): copied
        only when the spare runs out, this is not the newest generation,
        or a new histogram is wider than every held one (all rows are
        then padded to it). Entry tables take the new entries in fresh
        arrays. Nothing this column holds is written, so it keeps
        reading its own rows; its histograms' probe rows carry over
        while the width holds.
        """
        held = {key: self._field(key) for key in self.ROW_FIELDS}
        rows = dict(new.rows)
        width = max(held["hist.edges"].shape[1], rows["hist.edges"].shape[1])
        for side in (held, rows):
            side["hist.edges"] = _pad_edges(side["hist.edges"], width)
            for key in ("hist.depths", "hist.distincts"):
                side[key] = _pad_zeros(side[key], width - 1)
        arrays, buffers = grow(held, rows, self._buffers)
        hist = HistogramArrays(*(arrays[f"hist.{key}"] for key in _HIST_FIELDS))
        if width == self.hist.edges.shape[1]:
            hist._grown_from = self.hist._probe_source()
        return ColumnIndex(
            name=self.name,
            stats=arrays["stats"],
            hist=hist,
            hh_lookup=self.hh_lookup.inserted(*new.hh),
            hh_strings=self.hh_strings.extended(*new.hh_strings),
            hh_covered=arrays["hh_covered"],
            ed_usable=arrays["ed_usable"],
            ed_totals=arrays["ed_totals"],
            ed_lookup=self.ed_lookup.inserted(*new.ed),
            ed_strings=self.ed_strings.extended(*new.ed_strings),
            _buffers=buffers,
        )

    #: The arrays with a row per partition, which appends grow in place.
    ROW_FIELDS = (
        "stats",
        "hist.edges",
        "hist.depths",
        "hist.distincts",
        "hist.totals",
        "hist.has",
        "hh_covered",
        "ed_usable",
        "ed_totals",
    )

    def _field(self, key: str) -> np.ndarray:
        """The array :attr:`ARRAY_FIELDS` names ``key``."""
        owner, __, name = key.rpartition(".")
        return getattr(getattr(self, owner) if owner else self, name)

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
        return {key: self._field(key) for key in self.ARRAY_FIELDS}

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
        keys = _hitter_keys(values)
        los = table.keys.searchsorted(keys, side="left").tolist()
        his = table.keys.searchsorted(keys, side="right").tolist()
        for j, (lo, hi) in enumerate(zip(los, his)):
            if hi > lo:
                hits = table.parts[lo:hi]
                hits = hits[(hits >= start) & (hits < stop)]
                out[hits - start, j] = 1.0
        return out


@lru_cache(maxsize=256)
def _hitter_keys(values: tuple) -> np.ndarray:
    """The heavy-hitter lookup keys of a (frozen) tuple of global heavy
    hitters, hashed once: every refresh and outlier catch-up probes the
    same few tuples."""
    keys = np.fromiter(map(hash_value, values), dtype=np.uint64, count=len(values))
    keys.flags.writeable = False
    return keys


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

        The arrays are adopted as-is and nothing writes them: queries
        only read, and :meth:`append` grows the row arrays by the buffer
        rule (:mod:`repro.rowbuffers`) — arrays that are no views of a
        growth buffer, as these are, are copied into one with spare rows
        on the first append, and later appends write only rows past
        every older generation's views — while entry tables take new
        entries in fresh arrays (a new string merges into a fresh
        dictionary union). Older generations keep reading theirs.
        """
        columns = {
            name: ColumnIndex.from_array_state(name, column_state)
            for name, column_state in state.items()
        }
        return cls(columns, num_partitions)

    def append(self, rows: dict[str, IndexRows], added: int) -> None:
        """Absorb ``added`` sealed partitions, their rows per column
        (:meth:`ColumnIndex.extended`). Signature codes catch up on
        their next lookup."""
        for name, new in rows.items():
            self.columns[name] = self.columns[name].extended(new)
        self.num_partitions += added


def _pad_edges(edges: np.ndarray, width: int) -> np.ndarray:
    """``edges`` widened to ``width`` by repeating each row's last edge."""
    if edges.shape[1] == width:
        return edges
    out = np.empty((edges.shape[0], width), dtype=edges.dtype)
    out[:, : edges.shape[1]], out[:, edges.shape[1] :] = edges, edges[:, -1:]
    return out


def _pad_zeros(matrix: np.ndarray, width: int) -> np.ndarray:
    """``matrix`` widened to ``width`` with zero columns."""
    if matrix.shape[1] == width:
        return matrix
    out = np.zeros((matrix.shape[0], width), dtype=matrix.dtype)
    out[:, : matrix.shape[1]] = matrix
    return out
