"""Batch columnar executor: per-partition answers in one numpy pass.

The scalar executor (:func:`repro.engine.executor.execute_on_partition`)
re-runs predicate masking and group-by factorization once per partition
per query; the training loop calls it for every (query, partition) pair,
which makes exact answer computation the dominant offline cost now that
featurization is batched. This module removes that loop.

Layout — the fused view
-----------------------
A :class:`PartitionedTable` already stores every partition as a
contiguous row range of one columnar table, so the "concatenation" of
all partitions is the table's own column arrays. :class:`FusedTableView`
captures that fact explicitly: zero-copy references to the fused column
arrays, the partition-offset index (``offsets[p] .. offsets[p+1]`` is
partition ``p``'s row range), and a per-row owning-partition id vector.
The view is cached on the table (:func:`fused_view`) and extended
incrementally when partitions are appended — only the new rows' ids are
materialized, mirroring ``ColumnarSketchIndex.extend``.

Execution — one pass, segmented group-by
----------------------------------------
:meth:`BatchExecutor.partition_answers` evaluates a query over *all*
partitions, or over a gathered subset — the single-query subset pass is
the execution step of every online answer
(:func:`repro.engine.serving.answer_selections`) — with a handful of
array passes:

1. one predicate mask over the fused arrays (row-order preserving, so
   each partition's surviving rows stay contiguous and in ingest order);
2. one global group-by factorization (per-column ``np.unique`` codes
   combined mixed-radix, exactly like the scalar ``_group_ids``);
3. one segmented aggregation: group codes are combined with partition
   ids into segment ids ``partition * G + group`` and reduced with
   ``np.bincount`` (dense) or a compacted ``np.unique`` + ``bincount``
   pass when the ``partitions x groups`` grid would dwarf the row count;
4. a scatter of the per-segment totals back into per-partition
   ``ComponentAnswer`` dicts.

Bit-for-bit parity with the scalar oracle
-----------------------------------------
The scalar path remains in place as the reference oracle — the
differential suites compose it directly as ``[execute_on_partition(p,
query) for p in ptable]`` — and the batch path is engineered to match it
*bit for bit*, not just approximately:

* predicate masks and aggregate expressions are elementwise, so fused
  evaluation produces the same float64 values row for row;
* ``np.bincount`` accumulates weights sequentially in row order, and the
  fused row order within each (partition, group) segment is identical to
  the scalar per-partition row order, so every segment total is the same
  chain of float64 additions;
* ungrouped SUM components are *not* bincounted: the scalar path uses
  ``values.sum()`` (pairwise summation), so the batch path slices the
  fused value vector at the partition bounds and takes the same pairwise
  sum per partition;
* group keys are emitted in ascending mixed-radix code order, which is
  value-lexicographic both globally and per partition, so each answer
  dict carries the same keys in the same iteration order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.engine.aggregates import ComponentKind
from repro.engine.executor import ComponentAnswer, _group_ids
from repro.engine.query import Query
from repro.engine.table import PartitionedTable

#: Densest ``partitions x groups`` grid the dense bincount path may
#: allocate, as a multiple of the (filtered) row count. Beyond this the
#: segmented reduction compacts segment ids first so memory stays O(rows).
_DENSE_GRID_FACTOR = 8

#: Guards the per-table memoizations (``ptable._fused_view``,
#: ``ptable._batch_executor``, ``ptable._workload_executor``): the
#: check-then-set idiom they use is racy under concurrent queries — two
#: threads could each build an executor plus fused view for the same
#: table and leave consumers holding different cache objects. Reentrant
#: because ``for_table`` builds the executor (which builds the fused
#: view) while holding it.
TABLE_CACHE_LOCK = threading.RLock()


def reduce_live_segments(
    seg: np.ndarray,
    num_segments: int,
    num_rows: int,
    component_values: list[np.ndarray | None],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segmented reduction over occupied (partition, group) segments.

    ``seg`` assigns each row its segment id (partition-major), and
    ``component_values`` holds one ``(num_rows,)`` float64 vector per
    component slot (``None`` for COUNT slots). Returns ``(live,
    seg_counts, totals)``: the sorted occupied segment ids, their row
    counts, and a ``(len(live), num_components)`` totals matrix. Shared
    by :class:`BatchExecutor` and the workload executor so both paths
    accumulate every segment with the same ``np.bincount`` addition
    chain. When the segment grid would dwarf the row count the ids are
    compacted first so the reduction buffers stay O(rows).
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
    return live, seg_counts, totals


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

    @classmethod
    def build(
        cls, ptable: PartitionedTable, prior: FusedTableView | None = None
    ) -> FusedTableView:
        """Fuse ``ptable``; reuse ``prior``'s row ids when it is a prefix.

        Passing the previous table's view after an append extends the
        partition-id vector incrementally (only the appended rows are
        materialized), mirroring ``ColumnarSketchIndex.extend``.
        """
        offsets = np.asarray(ptable.boundaries, dtype=np.int64)
        n = ptable.num_partitions
        if (
            prior is not None
            and 0 < prior.num_partitions <= n
            and np.array_equal(offsets[: prior.num_partitions + 1], prior.offsets)
        ):
            new_sizes = np.diff(offsets[prior.num_partitions :])
            new_ids = np.repeat(
                np.arange(prior.num_partitions, n, dtype=np.intp), new_sizes
            )
            partition_ids = np.concatenate([prior.partition_ids, new_ids])
        else:
            partition_ids = np.repeat(
                np.arange(n, dtype=np.intp), np.diff(offsets)
            )
        return cls(ptable.table.columns, offsets, partition_ids, n)

    @property
    def num_rows(self) -> int:
        return len(self.partition_ids)


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


def gather_partitions(
    view: FusedTableView, partitions, column_names
) -> FusedTableView:
    """A sub-view holding ``partitions``' rows of ``column_names`` only.

    Local partition ``i`` of the result is global partition
    ``partitions[i]`` (duplicates allowed, any order); its rows keep
    their fused (ingest) order, so per-partition answers computed on the
    sub-view are bit-identical to the same partitions' answers on the
    full view. The gather is one fancy-index per column.
    """
    parts = np.asarray(partitions, dtype=np.intp)
    n = int(parts.size)
    if n == 0:
        return FusedTableView(
            {name: view.columns[name][:0] for name in column_names},
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.intp),
            0,
        )
    starts = view.offsets[parts]
    sizes = view.offsets[parts + 1] - starts
    total = int(sizes.sum())
    # Concatenated row ranges: offset each partition's aranged rows so
    # the gather stays a single fancy-index per column.
    shift = np.repeat(
        starts - np.concatenate(([0], np.cumsum(sizes[:-1]))), sizes
    )
    row_idx = shift + np.arange(total, dtype=np.int64)
    columns = {name: view.columns[name][row_idx] for name in column_names}
    part_ids = np.repeat(np.arange(n, dtype=np.intp), sizes)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    return FusedTableView(columns, bounds, part_ids, n)


class BatchExecutor:
    """Evaluates queries over all partitions of one table in one pass."""

    def __init__(self, ptable: PartitionedTable) -> None:
        self.ptable = ptable
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

    # -- public API -----------------------------------------------------------

    def partition_answers(
        self, query: Query, partitions=None
    ) -> list[ComponentAnswer]:
        """Per-partition component answers, one numpy pass over all rows.

        With ``partitions=None`` the result is indexed by partition id
        (``[execute_on_partition(p, query) for p in ptable]`` bit for
        bit). With an explicit sequence of partition ids, only those
        partitions' rows are gathered and the result aligns with the
        given order (duplicates allowed) — the picker's eval path uses
        this to execute on just the selected partitions.
        """
        view = self.view
        if partitions is None:
            columns = view.columns
            part_ids = view.partition_ids
            bounds = view.offsets
            n = view.num_partitions
        else:
            used = query.columns() | set(query.group_by)
            sub = gather_partitions(
                view, partitions, [c for c in view.columns if c in used]
            )
            if sub.num_partitions == 0:
                return []
            columns = sub.columns
            part_ids = sub.partition_ids
            bounds = sub.offsets
            n = sub.num_partitions
        return self._answers(query, columns, part_ids, bounds, n)

    # -- internals --------------------------------------------------------------

    def _answers(
        self,
        query: Query,
        columns: dict[str, np.ndarray],
        part_ids: np.ndarray,
        bounds: np.ndarray,
        n: int,
    ) -> list[ComponentAnswer]:
        num_rows = int(part_ids.size)
        if query.predicate is not None and num_rows:
            mask = query.predicate.mask(columns)
            used = query.columns() | set(query.group_by)
            columns = {
                name: arr[mask] for name, arr in columns.items() if name in used
            }
            part_ids = part_ids[mask]
            num_rows = int(part_ids.size)
            # Row counts per partition shift under the filter; rebuild the
            # bounds from the surviving (still sorted) partition ids.
            bounds = np.concatenate(
                ([0], np.cumsum(np.bincount(part_ids, minlength=n)))
            )
        if num_rows == 0:
            return [{} for __ in range(n)]
        if query.group_by:
            return self._grouped(query, columns, part_ids, n, num_rows)
        return self._ungrouped(query, columns, bounds, n)

    def _ungrouped(
        self,
        query: Query,
        columns: dict[str, np.ndarray],
        bounds: np.ndarray,
        n: int,
    ) -> list[ComponentAnswer]:
        counts = np.diff(bounds)
        num_rows = int(bounds[-1])
        totals = np.zeros((n, query.num_components), dtype=np.float64)
        for slot, comp in enumerate(query.components):
            if comp.kind is ComponentKind.COUNT:
                totals[:, slot] = counts
                continue
            values = np.broadcast_to(
                np.asarray(comp.expr.evaluate(columns), dtype=np.float64),
                (num_rows,),
            )
            # Per-partition pairwise sums: the scalar oracle uses
            # ``values.sum()`` per partition, whose pairwise summation is
            # not the sequential order np.bincount would use.
            for p in range(n):
                lo, hi = bounds[p], bounds[p + 1]
                if hi > lo:
                    totals[p, slot] = values[lo:hi].sum()
        return [
            {(): totals[p]} if counts[p] else {} for p in range(n)
        ]

    def _grouped(
        self,
        query: Query,
        columns: dict[str, np.ndarray],
        part_ids: np.ndarray,
        n: int,
        num_rows: int,
    ) -> list[ComponentAnswer]:
        keys, gids = _group_ids(columns, query.group_by)
        g = len(keys)
        seg = part_ids * g + gids  # segment id: partition-major, group-minor
        component_values = [
            None
            if comp.kind is ComponentKind.COUNT
            else np.broadcast_to(
                np.asarray(comp.expr.evaluate(columns), dtype=np.float64),
                (num_rows,),
            )
            for comp in query.components
        ]
        live, __, totals = reduce_live_segments(
            seg, n * g, num_rows, component_values
        )
        # ``live`` is sorted ascending = partition-major, group-ascending —
        # the same per-partition key order the scalar path emits.
        live_parts = live // g
        live_groups = live % g
        cuts = np.searchsorted(live_parts, np.arange(n + 1))
        return [
            {
                keys[live_groups[i]]: totals[i]
                for i in range(cuts[p], cuts[p + 1])
            }
            for p in range(n)
        ]
