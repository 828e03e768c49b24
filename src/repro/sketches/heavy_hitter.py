"""Heavy-hitter sketch via lossy counting (Manku & Motwani, VLDB'02).

Maintains the frequent values of a column and their approximate counts
(paper section 3.1). The default support of 1% bounds the reported
dictionary at 100 items; the internal error bound ``epsilon`` defaults to
``support / 10``, the standard recommendation, so reported counts
undercount the truth by at most ``epsilon * N``.

There is one lossy-counting implementation, and it runs on arrays. A
stream is cut into blocks of ``ceil(1/epsilon)`` rows; within a block a
value that is absent enters with ``delta = bucket - 1``, a present one
adds its count, and when a block carries ``total // width + 1`` (the
bucket) forward every entry with ``count + delta <= bucket`` is pruned.
:func:`_count_blocks` counts each ``(partition, value, block)`` once for
a whole column — all partitions, all blocks, one integer sort (or a dense
``bincount`` when the key space is small) — and :func:`_walk` advances
block 0, 1, 2, … *of every partition at once* on :class:`_Automaton`
arrays. :func:`segmented_hitters` is that kernel over a column's
partitions, ``build`` / ``update`` are the same kernel over one
segment, and ``merge`` runs the automaton's add-then-prune step over
whole sketches (the global heavy hitters of section 3.2);
:func:`merge_pairwise` runs that step for many sketches at once.

Two written rules:

* **Insertion order.** A sketch keeps its entries in the order a
  dictionary would: by the block (or merge step) of their last
  insertion, then by value order within it. ``items()`` iterates in
  that order, a statistics bundle persists it, and a merge breaks count ties
  with it, so it is part of the state.
* **NaN is one value.** ``np.unique`` collapses NaNs within a block; the
  same holds across blocks, ``update`` calls and merges: NaN counts add
  into a single entry. ``-0.0`` and ``0.0`` are one key as well (they
  compare equal); which sign the stored key carries is ``np.unique``'s
  pick and nothing may depend on it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigError


def _no_floats() -> np.ndarray:
    return np.empty(0, dtype=np.float64)


class _BlockCounts(NamedTuple):
    """A column's rows counted once per ``(partition, value, block)`` triple.

    A *pair* is one ``(partition, value)``: partition ``p``'s sorted
    distinct values are pairs ``offsets[p]:offsets[p + 1]``.
    """

    codes: np.ndarray  # (D,) value code of each pair, ascending per partition
    counts: np.ndarray  # (D,) int64 rows of each pair
    offsets: np.ndarray  # (N+1,) int64 partition boundaries into the pairs
    parts: np.ndarray  # (D,) partition of each pair
    slot: np.ndarray  # (T,) automaton slot of each triple: its pair
    block: np.ndarray  # (T,) block of each triple, within its partition
    rows: np.ndarray  # (T,) rows of each triple
    sizes: np.ndarray  # (N,) rows per partition
    width: int  # rows per block
    blocks: int  # blocks of the longest partition


def _count_keys(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``keys`` (each in ``[0, size)``) with multiplicities."""
    if size <= 2 * keys.size:
        dense = np.bincount(keys, minlength=size)
        present = np.flatnonzero(dense)
        return present, dense[present]
    return np.unique(keys, return_counts=True)


def _count_blocks(
    inverse: np.ndarray, offsets: np.ndarray, width: int, num_distinct: int
) -> _BlockCounts:
    """Count a column's rows per ``(partition, value, block)`` in one pass.

    ``inverse`` maps each row to its value's code in ``[0, num_distinct)``
    and ``offsets`` are the partition boundaries; blocks are runs of
    ``width`` rows restarting at every partition.
    """
    sizes = np.diff(offsets)
    n = len(sizes)
    blocks = max(-(-int(sizes.max(initial=0)) // width), 1)
    row_parts = np.repeat(np.arange(n, dtype=np.int64), sizes)
    within = np.arange(len(inverse), dtype=np.int64) - np.repeat(offsets[:-1], sizes)
    keys = (row_parts * num_distinct + inverse) * blocks + within // width
    keys, rows = _count_keys(keys, n * num_distinct * blocks)
    pair_keys, block = np.divmod(keys, blocks)
    opens = np.ones(len(keys), dtype=bool)
    opens[1:] = pair_keys[1:] != pair_keys[:-1]
    starts = np.flatnonzero(opens)
    parts, codes = np.divmod(pair_keys[starts], num_distinct)
    return _BlockCounts(
        codes,
        np.add.reduceat(rows, starts),
        np.searchsorted(parts, np.arange(n + 1)),
        parts,
        np.cumsum(opens) - 1,
        block,
        rows,
        sizes,
        width,
        blocks,
    )


class _Automaton:
    """Lossy-counting state of many segments at once, on arrays.

    A *slot* is one ``(segment, value)``; ``count`` / ``delta`` / ``alive``
    are indexed by slot and ``live`` lists the alive slots in insertion
    order — what a dictionary of entries keeps implicitly.
    """

    def __init__(self, segment: np.ndarray) -> None:
        self.segment = segment  # (S,) segment of each slot
        self.count = np.zeros(len(segment), dtype=np.float64)
        self.delta = np.zeros(len(segment), dtype=np.float64)
        self.alive = np.zeros(len(segment), dtype=bool)
        self.live = np.empty(0, dtype=np.int64)

    def add(
        self,
        slots: np.ndarray,
        counts: np.ndarray,
        deltas: np.ndarray,
        *,
        raise_deltas: bool = False,
    ) -> None:
        """Absent slots enter (in the order given) with their ``deltas``;
        present ones add their counts and, when merging, keep the larger
        delta. ``slots`` holds no duplicates."""
        absent = ~self.alive[slots]
        self.count[slots] += counts
        entering = slots[absent]
        self.delta[entering] = deltas[absent]
        if raise_deltas:
            present = slots[~absent]
            self.delta[present] = np.maximum(self.delta[present], deltas[~absent])
        self.alive[entering] = True
        self.live = np.concatenate((self.live, entering))

    def prune(self, buckets: np.ndarray, advanced: np.ndarray | None = None) -> None:
        """Drop entries with ``count + delta <= bucket`` of their segment
        (only in segments whose bucket ``advanced``, when given)."""
        live = self.live
        segment = self.segment[live]
        doomed = self.count[live] + self.delta[live] <= buckets[segment]
        if advanced is not None:
            doomed &= advanced[segment]
        dead = live[doomed]
        self.alive[dead] = False
        self.count[dead] = 0.0
        self.live = live[~doomed]


def _walk(
    automaton: _Automaton, counted: _BlockCounts, totals: np.ndarray
) -> np.ndarray:
    """Stream every segment's blocks through ``automaton``, block 0 of
    all segments first. ``totals`` are the rows each segment had seen
    before this stream; the new totals are returned."""
    width = counted.width
    # The narrowest dtype: numpy's stable sort is a radix sort up to 16 bits.
    order = np.argsort(
        counted.block.astype(np.min_scalar_type(counted.blocks)), kind="stable"
    )
    bounds = np.searchsorted(counted.block[order], np.arange(counted.blocks + 1))
    for b in range(counted.blocks):
        take = order[bounds[b] : bounds[b + 1]]
        slots = counted.slot[take]
        before = totals // width + 1
        automaton.add(
            slots, counted.rows[take], (before - 1.0)[automaton.segment[slots]]
        )
        totals = totals + np.clip(counted.sizes - b * width, 0, width)
        buckets = totals // width + 1
        automaton.prune(buckets, buckets != before)
    return totals


def _unique_values(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(..., return_inverse=True)`` over the arrays, stacked.

    Empty ones are dropped first: an empty sketch holds a float
    placeholder that must not promote a string column's dtype.
    """
    held = [array for array in arrays if len(array)] or [_no_floats()]
    return np.unique(np.concatenate(held), return_inverse=True)


@dataclass(eq=False)
class HeavyHitterSketch:
    """Lossy-counting frequency sketch with value payloads.

    State is three aligned arrays — values, counts, deltas — in
    insertion order (the module docstring has the rule); :meth:`entries`
    exposes it. NaN is one value: its counts add across blocks, ``update``
    calls and merges into a single entry, as ``-0.0`` / ``0.0`` do.

    Parameters
    ----------
    support:
        Report values appearing in at least this fraction of rows.
    epsilon:
        Lossy-counting error bound; ``None`` means ``support / 10``.
    """

    support: float = 0.01
    epsilon: float | None = None
    total: int = 0
    _values: np.ndarray = field(default_factory=_no_floats, repr=False)
    _counts: np.ndarray = field(default_factory=_no_floats, repr=False)
    _deltas: np.ndarray = field(default_factory=_no_floats, repr=False)
    # Memoized results: items()/frequencies() are re-read by the per-clause
    # estimators and the columnar exporter; the dicts only change on
    # update/merge, so they are cached until the next mutation.
    _items_cache: dict[object, float] | None = field(default=None, repr=False)
    _freq_cache: dict[object, float] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.support < 1.0:
            raise ConfigError("support must be in (0, 1)")
        if self.epsilon is None:
            self.epsilon = self.support / 10.0
        if not 0.0 < self.epsilon <= self.support:
            raise ConfigError("epsilon must be in (0, support]")
        self._width = max(int(math.ceil(1.0 / self.epsilon)), 1)

    @property
    def bucket(self) -> int:
        """The current lossy-counting bucket, ``total // width + 1``."""
        return self.total // self._width + 1

    def entries(self) -> list[tuple[object, float, float]]:
        """Raw automaton state: ``(value, count, delta)`` in insertion order."""
        return list(
            zip(self._values.tolist(), self._counts.tolist(), self._deltas.tolist())
        )

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw automaton state as ``(values, counts, deltas)`` arrays."""
        return self._values, self._counts, self._deltas

    def _adopt(self, values: np.ndarray, automaton: _Automaton) -> None:
        live = automaton.live
        self._values = values[live]
        self._counts = automaton.count[live]
        self._deltas = automaton.delta[live]
        self._items_cache = self._freq_cache = None

    @classmethod
    def build(
        cls, values: np.ndarray, support: float = 0.01, epsilon: float | None = None
    ) -> HeavyHitterSketch:
        sketch = cls(support=support, epsilon=epsilon)
        sketch.update(values)
        return sketch

    def update(self, values: np.ndarray) -> None:
        """Stream a batch of values through the lossy-counting automaton.

        Blocks restart at the head of every call; pruning fires where
        ``total`` crosses a multiple of the block width.
        """
        values = np.asarray(values)
        if values.size == 0:
            return
        held = len(self._counts)
        uniques, inverse = _unique_values([self._values, values])
        counted = _count_blocks(
            inverse[held:], np.array([0, values.size]), self._width, len(uniques)
        )
        # One segment: a slot per distinct value, so the entries already
        # held (which the new rows need not mention) have one too.
        counted = counted._replace(slot=counted.codes[counted.slot])
        automaton = _Automaton(np.zeros(len(uniques), dtype=np.int64))
        automaton.add(inverse[:held], self._counts, self._deltas)
        self.total = int(_walk(automaton, counted, np.array([self.total]))[0])
        self._adopt(uniques, automaton)

    def merge(self, *others: HeavyHitterSketch) -> None:
        """Merge other sketches, left to right (counts add; deltas take
        the max; every step prunes at the merged bucket).

        Keeps a column's running *global* heavy hitters (paper section
        3.2, occurrence bitmaps): each sealed partition's automaton merges
        in as it is sealed, which equals one merge of them all.
        """
        uniques, inverse = _unique_values(
            [self._values, *(other._values for other in others)]
        )
        automaton = _Automaton(np.zeros(len(uniques), dtype=np.int64))
        stop = len(self._counts)
        automaton.add(inverse[:stop], self._counts, self._deltas)
        for other in others:
            start, stop = stop, stop + len(other._counts)
            automaton.add(
                inverse[start:stop], other._counts, other._deltas, raise_deltas=True
            )
            self.total += other.total
            automaton.prune(np.array([self.bucket]))
        self._adopt(uniques, automaton)

    # -- results -------------------------------------------------------------

    def items(self) -> dict[object, float]:
        """Heavy hitters: value -> estimated count, at the support level."""
        if self.total == 0:
            return {}
        if self._items_cache is None:
            keep = self._counts >= (self.support - self.epsilon) * self.total
            self._items_cache = dict(
                zip(self._values[keep].tolist(), self._counts[keep].tolist())
            )
        return self._items_cache

    def frequencies(self) -> dict[object, float]:
        """Heavy hitters: value -> estimated fraction of rows."""
        if self.total == 0:
            return {}
        if self._freq_cache is None:
            self._freq_cache = {
                key: count / self.total for key, count in self.items().items()
            }
        return self._freq_cache

    def stats(self) -> tuple[float, float, float]:
        """(number of heavy hitters, avg frequency, max frequency)."""
        freqs = list(self.frequencies().values())
        if not freqs:
            return (0.0, 0.0, 0.0)
        return (float(len(freqs)), float(np.mean(freqs)), float(np.max(freqs)))

    # -- serialization -----------------------------------------------------

    def size_bytes(self) -> int:
        size = struct.calcsize("<ddQ I")
        for key, count in self.items().items():
            encoded = _encode_value(key)
            size += struct.calcsize("<Id") + len(encoded)
        return size

    def to_bytes(self) -> bytes:
        items = self.items()
        out = [struct.pack("<ddQI", self.support, self.epsilon, self.total, len(items))]
        for key, count in items.items():
            encoded = _encode_value(key)
            out.append(struct.pack("<Id", len(encoded), count))
            out.append(encoded)
        return b"".join(out)

    @classmethod
    def from_bytes(cls, payload: bytes) -> HeavyHitterSketch:
        header_size = struct.calcsize("<ddQI")
        support, epsilon, total, size = struct.unpack("<ddQI", payload[:header_size])
        sketch = cls(support=support, epsilon=epsilon)
        sketch.total = int(total)
        offset = header_size
        values, counts = [], []
        for __ in range(size):
            length, count = struct.unpack_from("<Id", payload, offset)
            offset += struct.calcsize("<Id")
            values.append(_decode_value(payload[offset : offset + length]))
            counts.append(count)
            offset += length
        if size:
            # Lossy counting keeps every value once; bundles written before
            # the NaN rule may hold one NaN entry per block, so fold them.
            values, counts = np.array(values), np.array(counts, dtype=np.float64)
            nan = values != values
            if nan.sum() > 1:
                first = nan.argmax()
                counts[first] = counts[nan].sum()
                nan[first] = False
                values, counts = values[~nan], counts[~nan]
            sketch._values, sketch._counts = values, counts
            sketch._deltas = np.zeros(len(counts), dtype=np.float64)
        return sketch


def merge_pairwise(
    targets: list[HeavyHitterSketch], others: list[HeavyHitterSketch]
) -> None:
    """``target.merge(other)`` for each pair, in one automaton pass.

    Each pair's values are deduplicated as its own merge would
    (:func:`_unique_values`), then every pair's slots share one
    :class:`_Automaton`, segmented by pair: the held entries enter, the
    other sketches' add (deltas take the max) and every segment prunes
    at its merged bucket. The insertion order within a segment is the
    one merge's, so each target ends entry for entry as if merged alone.
    """
    held = [len(target._counts) for target in targets]
    pairs = [
        _unique_values([target._values, other._values])
        for target, other in zip(targets, others)
    ]
    bases = np.cumsum([0] + [len(uniques) for uniques, __ in pairs])
    automaton = _Automaton(
        np.repeat(np.arange(len(pairs)), np.diff(bases)).astype(np.int64)
    )
    slots = [inverse + base for (__, inverse), base in zip(pairs, bases)]
    automaton.add(
        np.concatenate([s[:h] for s, h in zip(slots, held)]),
        np.concatenate([target._counts for target in targets]),
        np.concatenate([target._deltas for target in targets]),
    )
    automaton.add(
        np.concatenate([s[h:] for s, h in zip(slots, held)]),
        np.concatenate([other._counts for other in others]),
        np.concatenate([other._deltas for other in others]),
        raise_deltas=True,
    )
    for target, other in zip(targets, others):
        target.total += other.total
    automaton.prune(np.array([target.bucket for target in targets]))
    live = automaton.live
    live = live[np.argsort(automaton.segment[live], kind="stable")]
    cuts = np.searchsorted(automaton.segment[live], np.arange(len(pairs) + 1))
    for i, (target, (uniques, __)) in enumerate(zip(targets, pairs)):
        mine = live[cuts[i] : cuts[i + 1]]
        target._values = uniques[mine - bases[i]]
        target._counts = automaton.count[mine]
        target._deltas = automaton.delta[mine]
        target._items_cache = target._freq_cache = None


class SegmentedHitters(NamedTuple):
    """Every segment's lossy-counting automaton, as flat arrays.

    Segment ``p``'s entries are ``bounds[p]:bounds[p + 1]``, in the
    insertion order of the module docstring; ``codes`` index the
    ``uniques`` the pass counted on.
    """

    codes: np.ndarray  # (E,) value code of each entry
    counts: np.ndarray  # (E,) float64
    deltas: np.ndarray  # (E,) float64
    bounds: np.ndarray  # (N+1,) segment boundaries into the entries
    totals: np.ndarray  # (N,) rows per segment

    def sketches(
        self, uniques: np.ndarray, support: float, epsilon: float | None
    ) -> list[HeavyHitterSketch]:
        """One :class:`HeavyHitterSketch` per segment."""
        values = uniques[self.codes]
        bounds = self.bounds
        return [
            HeavyHitterSketch(
                support=support,
                epsilon=epsilon,
                total=int(size),
                _values=values[lo:hi],
                _counts=self.counts[lo:hi],
                _deltas=self.deltas[lo:hi],
            )
            for size, lo, hi in zip(self.totals, bounds[:-1], bounds[1:])
        ]


def segmented_hitters(
    uniques: np.ndarray,
    inverse: np.ndarray,
    offsets: np.ndarray,
    support: float = 0.01,
    epsilon: float | None = None,
) -> tuple[SegmentedHitters, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every segment's automaton of one column, from one counting pass.

    ``uniques, inverse = np.unique(column, return_inverse=True)`` over
    the fused column and ``offsets`` are the segment boundaries; segment
    ``p``'s automaton equals ``HeavyHitterSketch.build(column[offsets[p]:
    offsets[p + 1]])`` entry for entry. The per-segment distincts the
    pass counted on the way come back for the other sketch families as
    ``(codes, counts, bounds)``: segment ``p`` holds the values
    ``uniques[codes[bounds[p]:bounds[p + 1]]]``, ascending, with those
    multiplicities.
    """
    width = HeavyHitterSketch(support=support, epsilon=epsilon)._width
    counted = _count_blocks(inverse, offsets, width, len(uniques))
    automaton = _Automaton(counted.parts)
    _walk(automaton, counted, np.zeros(len(counted.sizes), dtype=np.int64))
    live = automaton.live
    live = live[np.argsort(counted.parts[live], kind="stable")]
    hitters = SegmentedHitters(
        counted.codes[live],
        automaton.count[live],
        automaton.delta[live],
        np.searchsorted(counted.parts[live], np.arange(len(offsets))),
        counted.sizes,
    )
    return hitters, (counted.codes, counted.counts, counted.offsets)


def _encode_value(value: object) -> bytes:
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    return b"f" + struct.pack("<d", float(value))


def _decode_value(payload: bytes) -> object:
    tag, body = payload[:1], payload[1:]
    if tag == b"s":
        return body.decode("utf-8")
    return struct.unpack("<d", body)[0]
