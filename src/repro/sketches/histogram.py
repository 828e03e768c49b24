"""Equal-depth histograms for selectivity estimation.

One histogram per column per partition (paper section 3.1), 10 buckets by
default. Numeric and date columns are bucketed on raw values; string
columns are bucketed on stable 64-bit hashes (equality selectivity then
works through the hash; range selectivity on strings is out of scope).

Construction sorts the distinct values once — the O(R log R) of Table 1 —
then walks them accumulating counts: a bucket closes when it reaches the
target depth, and a single value heavy enough to fill a bucket on its own
gets one to itself. Buckets therefore store exact depths *and* exact
distinct counts, which makes equality estimates exact for heavy ties and
keeps range estimates on the classical uniform-within-bucket assumption.

Bucket semantics: bucket 0 covers ``[edges[0], edges[1]]``; bucket ``i>0``
covers ``(edges[i], edges[i+1]]``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.sketches.hashing import hash_array


@dataclass
class EquiDepthHistogram:
    """Equal-depth histogram with exact per-bucket depth and distinct count."""

    edges: np.ndarray  # length num_buckets + 1, strictly increasing
    depths: np.ndarray  # exact rows per bucket
    distincts: np.ndarray  # exact distinct values per bucket
    total: int
    hashed: bool = False

    @classmethod
    def build(
        cls, values: np.ndarray, buckets: int = 10, hashed: bool = False
    ) -> EquiDepthHistogram:
        if buckets < 1:
            raise ConfigError("histogram needs at least one bucket")
        values = np.asarray(values, dtype=np.float64)
        total = int(values.size)
        if total == 0:
            return cls(
                np.zeros(2), np.zeros(1, np.int64), np.zeros(1, np.int64), 0, hashed
            )
        uniques, counts = np.unique(values, return_counts=True)
        if len(uniques) == 1:
            return cls(
                np.array([uniques[0], uniques[0]]),
                np.array([total], np.int64),
                np.array([1], np.int64),
                total,
                hashed,
            )
        target = max(int(np.ceil(total / buckets)), 1)
        edges = [float(uniques[0])]
        depths: list[int] = []
        distincts: list[int] = []
        acc_count = 0
        acc_distinct = 0
        for value, count in zip(uniques, counts):
            acc_count += int(count)
            acc_distinct += 1
            if acc_count >= target:
                edges.append(float(value))
                depths.append(acc_count)
                distincts.append(acc_distinct)
                acc_count = 0
                acc_distinct = 0
        if acc_count > 0:
            edges.append(float(uniques[-1]))
            depths.append(acc_count)
            distincts.append(acc_distinct)
        # A heavy minimum yields edges starting [v, v, ...]: bucket 0 is the
        # degenerate [v, v] holding exactly that value's rows, which the
        # estimate methods handle through the inclusive-first-bucket rule.
        return cls(
            np.asarray(edges, np.float64),
            np.asarray(depths, np.int64),
            np.asarray(distincts, np.int64),
            total,
            hashed,
        )

    @classmethod
    def build_for_strings(
        cls, values: np.ndarray, buckets: int = 10
    ) -> EquiDepthHistogram:
        """Build over the 64-bit hashes of a string column."""
        return cls.build(
            hash_array(values).astype(np.float64), buckets=buckets, hashed=True
        )

    @property
    def num_buckets(self) -> int:
        return len(self.depths)

    @property
    def min_value(self) -> float:
        return float(self.edges[0])

    @property
    def max_value(self) -> float:
        return float(self.edges[-1])

    def _bucket_bounds(self, index: int) -> tuple[float, float, bool]:
        """(lo, hi, lo_inclusive) for bucket ``index``."""
        return (
            float(self.edges[index]),
            float(self.edges[index + 1]),
            index == 0,
        )

    # -- selectivity primitives --------------------------------------------

    def fraction_leq(self, value: float) -> float:
        """Estimated fraction of rows with ``x <= value``.

        Recall-safe: ``value >= min`` guarantees the minimum row
        qualifies, so the estimate is floored at ``1/total``. Never NaN,
        infinite and NaN edges included.
        """
        if self.total == 0 or value < self.edges[0]:
            return 0.0
        if value >= self.edges[-1]:
            return 1.0
        cumulative = 0.0
        for i in range(self.num_buckets):
            lo, hi, __ = self._bucket_bounds(i)
            depth = float(self.depths[i])
            if value >= hi:
                cumulative += depth
                continue
            # value inside this bucket: interpolate, except single-distinct
            # buckets whose mass sits entirely at hi. A span from -inf has
            # no interpolation: the whole bucket counts, save the -inf
            # probe itself past the first (the only inclusive) bucket. A
            # NaN high edge tops a bucket of NaN rows (one distinct) and
            # values above lo, which only +inf is sure to cover.
            if hi != hi:
                if value == np.inf:
                    cumulative += depth * (self.distincts[i] - 1) / self.distincts[i]
            elif self.distincts[i] > 1 and hi > lo:
                if lo == -np.inf:
                    cumulative += depth if (value > lo or i == 0) else 0.0
                else:
                    cumulative += depth * (value - lo) / (hi - lo)
            break
        return min(max(cumulative, 1.0) / self.total, 1.0)

    def fraction_eq(self, value: float) -> float:
        """Estimated fraction with ``x == value`` (exact for heavy ties)."""
        if self.total == 0 or value < self.edges[0] or value > self.edges[-1]:
            return 0.0
        for i in range(self.num_buckets):
            lo, hi, lo_inclusive = self._bucket_bounds(i)
            if hi != hi and self.distincts[i] > 1:
                hi = np.inf  # a NaN high edge: NaN rows and values above lo
            inside = (lo < value <= hi) or (lo_inclusive and lo <= value <= hi)
            if not inside:
                continue
            depth_fraction = float(self.depths[i]) / self.total
            if self.distincts[i] == 1:
                # The bucket holds exactly one distinct value, and by
                # construction that value is its upper edge: anything else
                # probing inside the span is definitively absent.
                return depth_fraction if value == hi else 0.0
            return depth_fraction / float(self.distincts[i])
        return 0.0

    def fraction_lt(self, value: float) -> float:
        """Estimated fraction with ``x < value``.

        Recall-safe: ``value > min`` guarantees the minimum row qualifies,
        so the estimate is floored at ``1/total`` — the interpolation and
        the per-distinct equality mass are separate approximations whose
        difference could otherwise cancel to zero on real rows.
        """
        if self.total == 0 or value <= self.edges[0]:
            return 0.0
        base = self.fraction_leq(value) - self.fraction_eq(value)
        return max(base, 1.0 / self.total)

    def fraction_in_interval(
        self,
        low: float = -np.inf,
        high: float = np.inf,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> float:
        """Estimated fraction of rows in an interval (for joint clauses)."""
        if self.total == 0 or low > high:
            return 0.0
        upper = self.fraction_leq(high) if high_inclusive else self.fraction_lt(high)
        lower = self.fraction_lt(low) if low_inclusive else self.fraction_leq(low)
        return float(np.clip(upper - lower, 0.0, 1.0))

    # -- serialization -----------------------------------------------------

    def size_bytes(self) -> int:
        header = struct.calcsize("<QI?")
        return header + 8 * len(self.edges) + 16 * len(self.depths)

    def to_bytes(self) -> bytes:
        header = struct.pack("<QI?", self.total, len(self.edges), self.hashed)
        return (
            header
            + self.edges.astype("<f8").tobytes()
            + self.depths.astype("<i8").tobytes()
            + self.distincts.astype("<i8").tobytes()
        )

    @classmethod
    def from_bytes(cls, payload: bytes) -> EquiDepthHistogram:
        header_size = struct.calcsize("<QI?")
        total, num_edges, hashed = struct.unpack("<QI?", payload[:header_size])
        body = payload[header_size:]
        num_buckets = max(num_edges - 1, 1)
        expected = 8 * num_edges + 16 * num_buckets
        if len(body) != expected:
            raise ConfigError("corrupt EquiDepthHistogram payload")
        edges = np.frombuffer(body[: 8 * num_edges], dtype="<f8").copy()
        offset = 8 * num_edges
        depths = np.frombuffer(
            body[offset : offset + 8 * num_buckets], dtype="<i8"
        ).copy()
        distincts = np.frombuffer(body[offset + 8 * num_buckets :], dtype="<i8").copy()
        return cls(edges, depths, distincts, int(total), bool(hashed))


def segmented_histograms(
    values: np.ndarray,
    counts: np.ndarray,
    seg_offsets: np.ndarray,
    buckets: int = 10,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Many partitions' histograms from per-partition sorted distincts.

    ``values`` and ``counts`` hold every partition's distinct values
    (sorted ascending within each partition, each with multiplicity
    >= 1); partition ``p`` owns ``seg_offsets[p]:seg_offsets[p+1]``.
    Returns ``(edges, depths, distincts, num_buckets)``: row ``p`` holds
    ``EquiDepthHistogram.build``'s edges, depths and distinct counts for
    that partition bit for bit, padded to the widest row (edges repeat
    the last real edge, depths and distincts pad with zero). The greedy
    bucket-closing walk is replayed with one vectorized ``searchsorted``
    per bucket level across *all* partitions: the cumulative count
    vector is strictly increasing globally, so "first distinct where
    the running count reaches the target" is a binary search.
    """
    if buckets < 1:
        raise ConfigError("histogram needs at least one bucket")
    seg_offsets = np.asarray(seg_offsets, dtype=np.int64)
    n = len(seg_offsets) - 1
    values = np.asarray(values, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    starts, ends = seg_offsets[:-1], seg_offsets[1:]
    ndistinct = ends - starts
    cum = np.cumsum(counts)
    cum0 = np.concatenate(([0], cum))
    base = cum0[starts]
    totals = cum0[ends] - base
    targets = np.maximum(np.ceil(totals / buckets).astype(np.int64), 1)
    # Replay the greedy walk, one bucket level at a time: every still-
    # building partition finds its next closing distinct via one shared
    # searchsorted over the global cumulative-count vector.
    closes = np.full((n, buckets), -1, dtype=np.int64)
    n_closes = np.zeros(n, dtype=np.int64)
    threshold = base + targets
    active = np.flatnonzero((ndistinct >= 2) & (totals > 0))
    while active.size:
        j = np.searchsorted(cum, threshold[active], side="left")
        within = j < ends[active]
        closed = active[within]
        jc = j[within]
        closes[closed, n_closes[closed]] = jc
        n_closes[closed] += 1
        threshold[closed] = cum[jc] + targets[closed]
        active = closed[jc < ends[closed] - 1]
    # Each partition's closing distincts, then its last distinct when rows
    # are left after the last close (a single-distinct partition has only
    # that one); the padding repeats the last distinct.
    last = np.maximum(ends - 1, 0)
    rows = np.arange(n)
    tail = closes[rows, np.maximum(n_closes - 1, 0)]
    num_buckets = n_closes + ((n_closes == 0) | (tail != ends - 1))
    empty = totals == 0
    num_buckets[empty] = 1
    width = int(num_buckets.max(initial=1))
    js = np.repeat(last[:, None], width, axis=1)
    held = np.arange(width)[None, :] < n_closes[:, None]
    js[held] = closes[:, :width][held]
    if len(values):
        edges = values[np.column_stack((np.minimum(starts, last), js))]
        depths = np.diff(np.column_stack((base, cum[js])), axis=1)
    else:
        edges = np.zeros((n, width + 1))
        depths = np.zeros((n, width), dtype=np.int64)
    distincts = np.diff(np.column_stack((starts - 1, js)), axis=1)
    edges[empty], depths[empty], distincts[empty] = 0.0, 0, 0
    return edges, depths, distincts, num_buckets
