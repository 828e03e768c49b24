"""Batch columnar executor: per-partition answers in one numpy pass.

A scalar executor re-runs predicate masking and group-by factorization
once per partition per query; training needs every (query, partition)
pair, so such a loop would make exact answer computation the dominant
offline cost. This module is the one executor: every answer — online,
offline and :meth:`PS3.execute_exact <repro.api.PS3.execute_exact>` — is
read from its blocks.

Layout — the fused view
-----------------------
A :class:`PartitionedTable` already stores every partition as a
contiguous row range of one columnar table, so the "concatenation" of
all partitions is the table's own column arrays. :class:`FusedTableView`
captures that fact explicitly: zero-copy references to the fused column
arrays, the partition-offset index (``offsets[p] .. offsets[p+1]`` is
partition ``p``'s row range), and a per-row owning-partition id vector.
The view is cached on the table (:func:`fused_view`) and extended
incrementally when partitions are appended: only the new rows' ids and
codes are materialized, written behind the older view's rows in spare
buffer rows (:mod:`repro.rowbuffers`), as the table's columns and the
columnar index's rows are.

The view also owns each column's one dictionary encoding per table
generation (:meth:`FusedTableView.encoded`). Raw columns stay the source
of truth; execution gathers, filters and groups on the codes, so no query
sorts or compares row-length strings. An append encodes only its own rows
and writes nothing an older view can reach: an answer picked before it
keeps its table *and* dictionary.

Execution — one pass over integer codes, late materialization
--------------------------------------------------------------
:meth:`BatchExecutor.partition_answers` evaluates a query over *all*
partitions, or over a selected subset — the single-query subset pass is
the execution step of every online answer
(:func:`repro.engine.serving.answer_selections`) — with a handful of
array passes:

1. one predicate mask (:meth:`FusedTableView.mask`) reading only the
   predicate's columns — ``InSet`` / ``Contains`` are decided once per
   *distinct value* on the dictionary and mapped through the codes —
   then one surviving-row index (row-order preserving, so each
   partition's rows stay contiguous and in ingest order) at which every
   other column is gathered. A subset's reads before the mask (all of
   them without a predicate) copy its partitions' row ranges; rows are
   gathered by id only after it, at the kept rows;
2. one group-by factorization (:func:`factorize`): the columns' global
   codes combined mixed-radix, occupied codes found by a presence
   ``bincount`` (an integer ``np.unique`` when the radix product dwarfs
   the row count), keys decoded from the dictionaries;
3. one segmented aggregation: group codes are combined with partition
   ids into segment ids ``partition * G + group`` and reduced with
   ``np.bincount`` (dense) or a compacted ``np.unique`` + ``bincount``
   pass when the ``partitions x groups`` grid would dwarf the row count;
4. no scatter: the occupied segments and their totals *are* the answer
   (:class:`QueryAnswerBlock`). Training and serving read the arrays;
   the weighted combine (:mod:`repro.engine.combiner`) reduces the
   selected segments without building a dict per partition.

Bit-for-bit parity with the scalar oracle
-----------------------------------------
The scalar, string-based executor lives with the tests as the reference
oracle (``tests/scalar_oracle.py``) — the differential suites compose it
as ``[execute_on_partition(p, query) for p in ptable]`` — and the batch
path is engineered to match it *bit for bit*, not just approximately:

* a dictionary lookup decides a row as the clause decides its value, and
  aggregate expressions are elementwise, so fused evaluation keeps the
  same rows with the same float64 values;
* ``np.bincount`` accumulates weights sequentially in row order, and the
  fused row order within each (partition, group) segment is identical to
  the scalar per-partition row order, so every segment total is the same
  chain of float64 additions;
* ungrouped SUM components are *not* bincounted: the scalar path uses
  ``values.sum()`` (pairwise summation), so the batch path slices the
  fused value vector at the partition bounds and takes the same pairwise
  sum per partition;
* global codes order a column's values as the oracle's filtered
  per-partition ``np.unique`` codes do, so the mixed-radix codes are
  order-isomorphic: same dense group ids, and keys in the same
  ascending, value-lexicographic order, globally and per partition.
  Keys compare equal to the oracle's: ``-0.0`` and ``0.0`` are one group
  keyed by whichever zero the sort kept (``==``, same hash); NaNs are
  one group, sorted last, whose key equals nothing — compare by position.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.engine.aggregates import ComponentKind
from repro.engine.predicates import And, Contains, InSet, Not, Or, Predicate, _column
from repro.engine.query import Query
from repro.engine.table import PartitionedTable
from repro.errors import ConfigError
from repro.obs import get_registry, trace_span
from repro.rowbuffers import grow

#: Densest ``partitions x groups`` grid the dense bincount path may
#: allocate, as a multiple of the (filtered) row count. Beyond this the
#: segmented reduction compacts segment ids first so memory stays O(rows);
#: :func:`factorize` bounds its presence ``bincount`` the same way.
_DENSE_GRID_FACTOR = 8

#: Guards the per-table memoizations (``ptable._fused_view``,
#: ``ptable._batch_executor``, and a view's dictionary encodings): the
#: check-then-set idiom they use is racy under concurrent queries — two
#: threads could each build an executor plus fused view for the same
#: table and leave consumers holding different cache objects. Reentrant
#: because ``for_table`` builds the executor (which builds the fused
#: view) while holding it.
TABLE_CACHE_LOCK = threading.RLock()

#: A group's key: a tuple of python scalars; ``()`` for an ungrouped query.
GroupKey = tuple


def reduce_live_segments(
    seg: np.ndarray,
    num_segments: int,
    num_rows: int,
    component_values: list[np.ndarray | None],
) -> tuple[np.ndarray, np.ndarray]:
    """Segmented reduction over occupied (partition, group) segments.

    ``seg`` assigns each row its segment id (partition-major), and
    ``component_values`` holds one ``(num_rows,)`` float64 vector per
    component slot (``None`` for COUNT slots). Returns ``(live,
    totals)``: the sorted occupied segment ids and a ``(len(live),
    num_components)`` totals matrix, every segment one ``np.bincount``
    addition chain in row order. When the segment grid would dwarf the
    row count the ids are compacted first so the reduction buffers stay
    O(rows).
    """
    compacted = num_segments > max(1024, _DENSE_GRID_FACTOR * num_rows)
    if compacted:
        live, seg = np.unique(seg, return_inverse=True)
        num_segments = int(live.size)
        seg_counts = np.bincount(seg, minlength=num_segments)
    else:
        seg_counts = np.bincount(seg, minlength=num_segments)
        live = np.flatnonzero(seg_counts)
        seg_counts = seg_counts[live]
    totals = np.zeros((live.size, len(component_values)), dtype=np.float64)
    for slot, values in enumerate(component_values):
        if values is None:  # COUNT(*) slot
            totals[:, slot] = seg_counts
            continue
        sums = np.bincount(seg, weights=values, minlength=num_segments)
        totals[:, slot] = sums if compacted else sums[live]
    return live, totals


def factorize(encodings: list[tuple]) -> tuple[list[GroupKey], np.ndarray]:
    """``(keys, gids)`` from one ``(sorted uniques, codes of the grouped
    rows)`` pair per grouping column: the occupied key tuples ascending
    and each row's index into them — what the oracle's ``_group_ids``
    derives from raw values."""
    radix = math.prod(len(uniques) for uniques, __ in encodings)
    if radix > 2**62:
        # The mixed-radix code would wrap int64 and decode to keys no row
        # has: group by the leading columns first and fold their groups
        # (at most one per row, so that product fits) in as one column.
        lead_keys, lead_ids = factorize(encodings[:-1])
        lead = (np.arange(len(lead_keys)), lead_ids)
        keys, gids = factorize([lead, encodings[-1]])
        return [lead_keys[i] + (value,) for i, value in keys], gids
    combined = encodings[0][1]
    for uniques, codes in encodings[1:]:
        combined = combined.astype(np.int64, copy=False) * len(uniques) + codes
    if radix <= max(1024, _DENSE_GRID_FACTOR * combined.size):
        present = np.bincount(combined, minlength=radix) > 0
        distinct = np.flatnonzero(present)
        # ``take``, here and in ``mask``: fancy-indexing by int32 is ~3x slower.
        gids = (np.cumsum(present) - 1).take(combined)
    else:
        distinct, gids = np.unique(combined, return_inverse=True)
    parts = []  # per-column key values, peeled off last column first
    for uniques, __ in reversed(encodings[1:]):
        distinct, code = np.divmod(distinct, len(uniques))
        parts.append(uniques[code].tolist())
    parts.append(encodings[0][0][distinct].tolist())
    return list(zip(*reversed(parts))), gids


def _encode(
    name: str, column: np.ndarray, prior: tuple | None = None, buffers=None
) -> tuple:
    """``(sorted uniques, int32 codes, buffers)`` of ``column``. ``prior``
    encodes its leading rows (the table before an append): only the rows
    after them are looked up and written behind them, into ``buffers``
    (the :class:`~repro.rowbuffers.RowBuffers` ``prior``'s codes view)
    when they are the newest codes, and no row ``prior`` holds is
    written."""
    count = get_registry().counter
    how = "built" if prior is None else "extended"
    with trace_span("engine.encode", column=name, rows=len(column), how=how) as span:
        if prior is None:
            # Two steps: ``return_inverse`` sorts a copy of every row.
            uniques = np.unique(column)
            codes = np.searchsorted(uniques, column).astype(np.int32)
            count("engine.dictionary.builds").inc()
        else:
            uniques, head = prior
            tail = column[len(head) :]
            at = np.searchsorted(uniques, tail)
            unseen = uniques[np.minimum(at, len(uniques) - 1)] != tail
            if unseen.any():
                # Merge the new values in: a sort of distinct values and
                # appended rows, never of old rows. A NaN row always reads
                # unseen yet shares the one NaN slot, hence the length test.
                merged = np.union1d(uniques, tail[unseen])
                if len(merged) > len(uniques):
                    head = np.searchsorted(merged, uniques).astype(np.int32)[head]
                    uniques, at = merged, np.searchsorted(merged, tail)
                    count("engine.dictionary.remaps").inc()
            grown, buffers = grow(
                {"codes": head}, {"codes": at.astype(np.int32)}, buffers
            )
            codes = grown["codes"]
            count("engine.dictionary.extends").inc()
        if span is not None:  # None on the disabled-registry fast path
            span.tags["distinct"] = len(uniques)
    # Shared by every thread on this generation and, unless remapped, by
    # the next generation's pair: make "never written" structural.
    uniques.flags.writeable = codes.flags.writeable = False
    return uniques, codes, buffers


def read_rows(column: np.ndarray, rows) -> np.ndarray:
    """``column`` whole, as a fresh copy of a list of slices, or gathered."""
    if rows is None:
        return column
    if isinstance(rows, list):
        return np.concatenate([column[s] for s in rows])
    return column[rows]


class RowColumns(dict):
    """``fetch(name)`` read at ``rows`` (:func:`read_rows`) on first use:
    a column is touched once, and only if something reads it. A
    ``KeyError`` from ``fetch`` passes through, which predicates and
    expressions turn into their typed ``ExecutionError``."""

    def __init__(self, fetch, rows) -> None:
        super().__init__()
        self.fetch = fetch
        self.rows = rows

    def __missing__(self, name: str) -> np.ndarray:
        self[name] = column = read_rows(self.fetch(name), self.rows)
        return column


@dataclass
class FusedTableView:
    """Concatenated-column view of a partitioned table.

    ``columns`` are zero-copy references to the underlying table's arrays
    (partitions are contiguous row ranges, so the table *is* the fused
    concatenation). ``offsets`` is the partition-offset index and
    ``partition_ids`` assigns each row its owning partition.
    """

    columns: dict[str, np.ndarray]
    offsets: np.ndarray  # (N+1,) int64 — partition row boundaries
    partition_ids: np.ndarray  # (num_rows,) intp — owning partition per row
    num_partitions: int
    # name -> (sorted uniques, int32 codes); a stored pair is never written.
    _encoded: dict = field(default_factory=dict, repr=False, compare=False)
    # "ids" and each encoded column -> the RowBuffers its array views.
    _buffers: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def build(
        cls, ptable: PartitionedTable, prior: FusedTableView | None = None
    ) -> FusedTableView:
        """Fuse ``ptable``; reuse ``prior``'s work when it is a prefix.

        Passing the view of the table ``ptable`` was appended to extends
        its partition-id vector and encodings incrementally: only the
        appended rows are materialized and encoded, and written behind
        ``prior``'s rows (:func:`repro.rowbuffers.grow`).
        """
        offsets = np.asarray(ptable.boundaries, dtype=np.int64)
        n = ptable.num_partitions
        columns = ptable.table.columns
        encoded, buffers = {}, {}
        if (
            prior is not None
            and 0 < prior.num_partitions <= n
            and np.array_equal(offsets[: prior.num_partitions + 1], prior.offsets)
        ):
            new_sizes = np.diff(offsets[prior.num_partitions :])
            new_ids = np.repeat(
                np.arange(prior.num_partitions, n, dtype=np.intp), new_sizes
            )
            grown, buffers["ids"] = grow(
                {"ids": prior.partition_ids},
                {"ids": new_ids},
                prior._buffers.get("ids"),
            )
            partition_ids = grown["ids"]
            with TABLE_CACHE_LOCK:  # a reader may be encoding on ``prior``
                carried = list(prior._encoded.items())
                held = dict(prior._buffers)
            for name, pair in carried:
                uniques, codes, buffers[name] = _encode(
                    name, columns[name], pair, held.get(name)
                )
                encoded[name] = uniques, codes
        else:
            partition_ids = np.repeat(
                np.arange(n, dtype=np.intp), np.diff(offsets)
            )
        return cls(columns, offsets, partition_ids, n, encoded, buffers)

    @property
    def num_rows(self) -> int:
        return len(self.partition_ids)

    def encoded(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """The column's ``(sorted uniques, int32 codes)`` for this view —
        the only place a column is factorized for execution: built on
        first use (concurrent first calls get one pair) and carried
        across appends by :meth:`build`."""
        with TABLE_CACHE_LOCK:
            pair = self._encoded.get(name)
            if pair is None:
                column = _column(self.columns, name)  # typed error when missing
                pair = self._encoded[name] = _encode(name, column)[:2]
            return pair

    def group_ids(self, group_by, rows=None) -> tuple[list[GroupKey], np.ndarray]:
        """:func:`factorize` over ``group_by``'s encodings read at ``rows``."""
        pairs = map(self.encoded, group_by)
        return factorize([(u, read_rows(c, rows)) for u, c in pairs])

    def mask(self, predicate: Predicate, rows=None) -> np.ndarray:
        """Which of ``rows`` (see :func:`read_rows`) pass ``predicate``.

        ``InSet`` / ``Contains`` leaves are decided once per distinct value
        (the clause's own ``mask`` on the column's dictionary) and mapped
        through the codes; every other leaf evaluates itself on raw
        values. Each column and code is read at ``rows`` at most once.
        """
        values = RowColumns(self.columns.__getitem__, rows)
        codes = RowColumns(lambda name: self.encoded(name)[1], rows)
        return self._mask(predicate, values, codes)

    def _mask(self, node: Predicate, values, codes) -> np.ndarray:
        # A method: a recursive closure is a reference cycle, which would
        # keep every gathered column alive until the collector next runs.
        if isinstance(node, (InSet, Contains)):
            hit = node.mask({node.column: self.encoded(node.column)[0]})
            return hit.take(codes[node.column])
        if isinstance(node, Not):
            return ~self._mask(node.child, values, codes)
        if isinstance(node, (And, Or)):
            fold = np.logical_and if isinstance(node, And) else np.logical_or
            return fold.reduce([self._mask(c, values, codes) for c in node.children])
        return node.mask(values)


def fused_view(
    ptable: PartitionedTable, prior: FusedTableView | None = None
) -> FusedTableView:
    """The (cached) fused view of ``ptable``.

    Built on first use and stored on the table object; ``prior`` (the
    previous table's view, when ``ptable`` came from ``append_rows``)
    makes the build incremental. Memoization is atomic (every caller
    gets the same view object even under concurrent first use).
    """
    with TABLE_CACHE_LOCK:
        view = getattr(ptable, "_fused_view", None)
        if view is None or view.num_partitions != ptable.num_partitions:
            view = FusedTableView.build(ptable, prior=prior)
            ptable._fused_view = view
        return view


class QueryAnswerBlock:
    """One query's per-partition answers, in compacted array form.

    ``keys`` is the group-code dictionary (``[()]`` for ungrouped
    queries), ``live`` the sorted occupied ``partition * n_groups +
    group`` segment ids, and ``totals`` the ``(len(live),
    n_components)`` float64 segment totals. ``cuts`` bounds each
    partition's run within ``live`` (partition-major order).

    Read as a sequence, the block *is* the per-partition ``{group key:
    component vector}`` dicts: ``len``, ``[p]``, iteration and ``==``
    against a plain list, keys ascending within each dict — the shape
    the tests' oracles take; no answer path builds them. A dict is
    built each time it is asked for and holds views into ``totals``;
    nothing is kept, so the block refers to nothing that refers back.
    """

    def __init__(
        self,
        query: Query,
        keys: list[GroupKey],
        live: np.ndarray,
        totals: np.ndarray,
        num_partitions: int,
    ) -> None:
        self.query = query
        self.keys = keys
        self.live = live
        self.totals = totals
        self.num_partitions = num_partitions
        self.num_groups = len(keys)
        self.live_parts, self.live_groups = np.divmod(live, max(self.num_groups, 1))
        self.cuts = np.searchsorted(self.live_parts, np.arange(num_partitions + 1))
        self._contributions: np.ndarray | None = None

    @property
    def num_components(self) -> int:
        return self.totals.shape[1]

    def __len__(self) -> int:
        return self.num_partitions

    def __iter__(self):
        keys, totals = self.keys, self.totals
        groups, cuts = self.live_groups.tolist(), self.cuts.tolist()
        for p in range(self.num_partitions):
            yield {keys[groups[i]]: totals[i] for i in range(cuts[p], cuts[p + 1])}

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        lo, hi = self.cuts[index], self.cuts[index + 1]
        groups = self.live_groups[lo:hi].tolist()
        return {self.keys[g]: self.totals[lo + i] for i, g in enumerate(groups)}

    def __eq__(self, other) -> bool:
        try:
            if len(other) != len(self):
                return False
        except TypeError:
            return NotImplemented
        # Plain dict equality would truth-test the numpy component
        # vectors; compare them with array_equal instead.
        for a, b in zip(self, other):
            if a.keys() != b.keys():
                return False
            if any(not np.array_equal(a[key], b[key]) for key in a):
                return False
        return True

    def contributions(self) -> np.ndarray:
        """Per-partition contribution scalars, computed from the arrays."""
        if self._contributions is None:
            # Imported here: core sits above engine in the layering; the
            # function itself only touches this block's arrays.
            from repro.core.contribution import segment_contributions

            self._contributions = segment_contributions(
                self.live_parts,
                self.live_groups,
                self.totals,
                self.num_partitions,
                self.num_groups,
            )
        return self._contributions


class BatchExecutor:
    """Evaluates queries over all partitions of one table in one pass."""

    def __init__(self, ptable: PartitionedTable) -> None:
        # Not ``ptable`` too: it memoizes this executor, and the cycle would
        # leave a dropped generation's columns and codes to the collector.
        self.view = fused_view(ptable)

    @classmethod
    def for_table(cls, ptable: PartitionedTable) -> BatchExecutor:
        """A process-wide executor per table (the view is the state).

        Memoization is atomic: concurrent first calls for the same table
        all receive one executor (and one fused view) rather than racing
        the check-then-set and building duplicates.
        """
        with TABLE_CACHE_LOCK:
            executor = getattr(ptable, "_batch_executor", None)
            if executor is None:
                executor = cls(ptable)
                ptable._batch_executor = executor
            return executor

    def partition_answers(self, query: Query, partitions=None) -> QueryAnswerBlock:
        """Per-partition component answers, one numpy pass over all rows.

        With ``partitions=None`` row ``p`` of the block is partition
        ``p`` (``[execute_on_partition(p, query) for p in ptable]`` bit
        for bit). With an explicit sequence of partition ids, row ``i``
        is the ``i``-th id given (duplicates allowed) — how every online
        answer executes just its selected partitions. Reads before the
        mask copy their row ranges; rows are gathered by id only after
        it, at the kept rows, in fused (ingest) order, so a partition's
        answer is bit-identical to its answer on the full view. An id
        that is not an integer (it would be truncated) or lies outside
        the table (a negative one would address a partition from the
        end) is a :class:`ConfigError`.
        """
        view = self.view
        if partitions is None:
            rows, part_ids, n = None, view.partition_ids, view.num_partitions
            if query.predicate is not None and part_ids.size:
                rows = np.flatnonzero(view.mask(query.predicate))
                part_ids = part_ids[rows]
        else:
            parts = np.asarray(partitions)
            if parts.dtype.kind not in "iu" and parts.size or any(
                isinstance(p, (bool, np.bool_)) for p in partitions
            ):
                raise ConfigError(f"partition ids must be integers, got {partitions!r}")
            parts, n = parts.astype(np.intp), int(parts.size)
            outside = parts[(parts < 0) | (parts >= view.num_partitions)]
            if outside.size:
                raise ConfigError(
                    f"partition {int(outside[0])} is outside "
                    f"0..{view.num_partitions - 1}"
                )
            starts, stops = view.offsets[parts], view.offsets[parts + 1]
            rows = list(map(slice, starts.tolist(), stops.tolist()))
            counts = stops - starts
            if query.predicate is not None and counts.sum():
                # Late materialization: the predicate read its own columns
                # as ranges; every other column is gathered at kept rows.
                keep = np.flatnonzero(view.mask(query.predicate, rows))
                ends = np.cumsum(counts)  # a partition's kept rows shift by stop - end
                kept = np.searchsorted(keep, ends)
                counts = kept - np.searchsorted(keep, ends - counts)
                rows = keep + np.repeat(stops - ends, counts)
            part_ids = np.repeat(np.arange(n, dtype=np.intp), counts)
        num_rows = int(part_ids.size)
        if num_rows == 0:
            keys: list[GroupKey] = [] if query.group_by else [()]
            live = np.empty(0, dtype=np.intp)
            totals = np.empty((0, query.num_components), dtype=np.float64)
            return QueryAnswerBlock(query, keys, live, totals, n)
        columns = RowColumns(view.columns.__getitem__, rows)
        component_values = [
            None
            if comp.kind is ComponentKind.COUNT
            else np.broadcast_to(
                np.asarray(comp.expr.evaluate(columns), dtype=np.float64),
                (num_rows,),
            )
            for comp in query.components
        ]
        if query.group_by:
            keys, gids = view.group_ids(query.group_by, rows)
            # Segment id: partition-major, group-minor, so ``live`` lists
            # each partition's groups ascending — the scalar path's order.
            live, totals = reduce_live_segments(
                part_ids * len(keys) + gids, n * len(keys), num_rows, component_values
            )
        else:
            keys = [()]
            live, totals = self._ungrouped(component_values, part_ids, n)
        return QueryAnswerBlock(query, keys, live, totals, n)

    def _ungrouped(
        self, component_values: list, part_ids: np.ndarray, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        # Row counts per partition shift under the filter; rebuild the
        # bounds from the surviving (still sorted) partition ids.
        counts = np.bincount(part_ids, minlength=n)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        live = np.flatnonzero(counts)
        totals = np.zeros((live.size, len(component_values)), dtype=np.float64)
        for slot, values in enumerate(component_values):
            if values is None:  # COUNT(*) slot
                totals[:, slot] = counts[live]
                continue
            # Per-partition pairwise sums: the scalar oracle uses
            # ``values.sum()`` per partition, whose pairwise summation is
            # not the sequential order np.bincount would use.
            for i, p in enumerate(live):
                totals[i, slot] = values[bounds[p] : bounds[p + 1]].sum()
        return live, totals
