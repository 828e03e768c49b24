"""Workload-level multi-query executor with array-backed answers.

:class:`~repro.engine.batch_executor.BatchExecutor` (PR 2) removed the
per-partition Python loop, but training still pays one fused pass *per
query* plus a Python scatter of every answer into per-partition
``ComponentAnswer`` dicts. A training workload is highly redundant —
queries share predicates, grouping columns, and aggregate expressions —
so this module answers the *whole workload* in one sweep over the fused
view and keeps the results in arrays end to end.

Full-table only: the sweep factorizes every grouping column and
evaluates every division-free expression over the *unfiltered* rows,
which pays when the caches persist across a workload (training sweeps,
the bench runner, the oracle baseline) and loses to one
``BatchExecutor`` subset pass per query on a few selected partitions —
so online answers do not come through here.

Sharing and dedup model
-----------------------
:meth:`WorkloadExecutor.answer_matrix` factors the per-query work into
cacheable units, each computed once per executor (the executor is cached
on the table, so sharing also spans repeated calls):

* **identical queries** — :class:`~repro.engine.query.Query` is a frozen
  value object, so duplicate queries in a workload alias one computed
  :class:`QueryAnswerBlock` outright;
* **predicate mask plans** — a :class:`~repro.stats.plan.PlanCache`
  (shared machinery with the featurization plan cache, here with a mask
  compiler) maps each distinct predicate to its filtered row set: row
  indices, surviving partition ids, and partition bounds. Queries that
  differ only in aggregates or group-by reuse the mask without rerunning
  the predicate;
* **group-by factorizations** — every grouping column is dictionary
  encoded once per table generation by the fused view (shared with the
  online executor); a query's grouping only combines those codes
  mixed-radix over its filtered rows and compacts them
  (:meth:`FusedTableView.group_ids`). Queries with the same
  ``(group_by, predicate)`` share the compacted factorization; the same
  grouping columns under different predicates still share the codes;
* **aggregate expressions** — division-free expressions are elementwise,
  so they are evaluated once over all fused rows and sliced per
  predicate (expressions containing ``/`` are evaluated on the filtered
  rows only, preserving the scalar path's division-error semantics).

``AnswerMatrix`` layout
-----------------------
Per query the matrix stores a :class:`QueryAnswerBlock`: the group-code
dictionary ``keys`` (the query's distinct group-key tuples, ascending),
the sorted occupied segment ids ``live`` (``partition * n_groups +
group``, partition-major), and a dense ``(len(live), n_components)``
float64 ``totals`` matrix. :meth:`AnswerMatrix.dense` scatters a block
into the full ``(n_partitions, n_groups, n_components)`` grid (with a
``(n_partitions, n_groups)`` presence mask) for array consumers;
:meth:`AnswerMatrix.answers` exposes the familiar per-partition
``ComponentAnswer`` dicts as a *lazy* sequence so dict materialization —
the PR 2 residual cost — happens only if a compatibility consumer
actually iterates it. Contributions (the training labels) are computed
directly from the block arrays via
:func:`repro.core.contribution.segment_contributions`, never through
dicts.

Bit-for-bit parity
------------------
The workload path reproduces the :class:`BatchExecutor` answers exactly
(which are themselves bit-identical to the scalar
``execute_on_partition`` oracle):

* masks come from the same :meth:`FusedTableView.mask` either way, and
  gathered rows preserve fused row order;
* mixed-radix group codes built from unfiltered per-column codes are
  order-isomorphic to codes built from filtered per-column codes, so the
  compacted factorization yields the same keys in the same ascending
  order with the same row assignment;
* grouped totals run through the same
  :func:`~repro.engine.batch_executor.reduce_live_segments` bincount
  chain; ungrouped SUMs take the same per-partition pairwise
  ``values[lo:hi].sum()`` the scalar path uses (see the differential
  harness in ``tests/engine/``).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.engine.aggregates import ComponentKind
from repro.engine.batch_executor import (
    TABLE_CACHE_LOCK,
    FusedTableView,
    RowColumns,
    fused_view,
    reduce_live_segments,
)
from repro.engine.executor import ComponentAnswer, GroupKey
from repro.engine.expressions import BinOp, Expression
from repro.engine.predicates import Predicate
from repro.engine.query import Query
from repro.engine.table import PartitionedTable
from repro.obs import trace_span
from repro.stats.plan import PlanCache

_UNSET = object()


def _has_division(expr: Expression) -> bool:
    """Whether ``expr`` contains a ``/`` node anywhere.

    Division raises on non-finite results, so it must only ever see the
    filtered rows (a filtered-out zero divisor must not fail the query).
    """
    if isinstance(expr, BinOp):
        return (
            expr.op == "/"
            or _has_division(expr.left)
            or _has_division(expr.right)
        )
    return False


class _FilteredRows:
    """One predicate's compiled execution plan against the fused view.

    ``rows`` is ``None`` for the trivial (no-predicate) plan — every row
    qualifies and columns are used unsliced. Otherwise it holds the
    surviving row indices in fused (= partition-major ingest) order.
    ``part_ids`` are the surviving rows' owning partitions and ``bounds``
    the per-partition ranges within the filtered order.
    """

    __slots__ = ("rows", "part_ids", "bounds", "num_rows")

    def __init__(
        self,
        rows: np.ndarray | None,
        part_ids: np.ndarray,
        bounds: np.ndarray,
    ) -> None:
        self.rows = rows
        self.part_ids = part_ids
        self.bounds = bounds
        self.num_rows = int(part_ids.size)


class QueryAnswerBlock:
    """One query's answers over all partitions, in compacted array form.

    ``keys`` is the group-code dictionary (``[()]`` for ungrouped
    queries), ``live`` the sorted occupied ``partition * n_groups +
    group`` segment ids, and ``totals`` the ``(len(live),
    n_components)`` float64 segment totals. ``cuts`` bounds each
    partition's run within ``live`` (partition-major order).
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
        radix = max(self.num_groups, 1)
        self.live_parts = live // radix
        self.live_groups = live % radix
        self.cuts = np.searchsorted(
            self.live_parts, np.arange(num_partitions + 1)
        )
        self._answers: LazyPartitionAnswers | None = None
        self._contributions: np.ndarray | None = None

    @property
    def num_components(self) -> int:
        return self.totals.shape[1]

    def partition_answer(self, partition: int) -> ComponentAnswer:
        """Materialize one partition's ``ComponentAnswer`` dict."""
        lo, hi = self.cuts[partition], self.cuts[partition + 1]
        keys = self.keys
        return {
            keys[self.live_groups[i]]: self.totals[i] for i in range(lo, hi)
        }

    def answers(self) -> LazyPartitionAnswers:
        """Lazy per-partition dict view (cached; shared by duplicates)."""
        if self._answers is None:
            self._answers = LazyPartitionAnswers(self)
        return self._answers

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


class LazyPartitionAnswers:
    """Sequence of per-partition ``ComponentAnswer`` dicts, built on demand.

    Compatibility view over a :class:`QueryAnswerBlock` for consumers
    that still index dict answers (``combiner.estimate``, the LSS sweep,
    feature selection). Materialized entries are cached, so repeated
    access costs one scatter total — and workloads whose answers are only
    consumed as arrays never pay it at all.
    """

    def __init__(self, block: QueryAnswerBlock) -> None:
        self._block = block
        self._cache: list = [_UNSET] * block.num_partitions

    @property
    def block(self) -> QueryAnswerBlock:
        """The backing array block (the hook array consumers switch on)."""
        return self._block

    def __len__(self) -> int:
        return self._block.num_partitions

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        answer = self._cache[index]
        if answer is _UNSET:
            answer = self._block.partition_answer(index)
            self._cache[index] = answer
        return answer

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

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

    def materialize(self) -> list[ComponentAnswer]:
        """The plain list of dicts (forces every partition)."""
        return list(self)


class AnswerMatrix:
    """Array-backed answers for a whole workload over one table.

    One :class:`QueryAnswerBlock` per query, with duplicate queries
    aliasing the same block. Dense grids are materialized on demand so
    high-cardinality group-bys stay compacted in memory.
    """

    def __init__(
        self,
        queries: list[Query],
        blocks: list[QueryAnswerBlock],
        num_partitions: int,
    ) -> None:
        self.queries = queries
        self.blocks = blocks
        self.num_partitions = num_partitions

    def __len__(self) -> int:
        return len(self.queries)

    def block(self, query_index: int) -> QueryAnswerBlock:
        return self.blocks[query_index]

    def group_keys(self, query_index: int) -> list[GroupKey]:
        """The query's group-code dictionary (code -> key tuple)."""
        return self.blocks[query_index].keys

    def dense(self, query_index: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``(n_partitions, n_groups, n_components)`` dense block.

        Returns ``(totals, present)`` where ``present`` is the
        ``(n_partitions, n_groups)`` occupancy mask — a zero total is
        ambiguous between "no rows" and "rows summing to zero", and the
        dict views only carry present groups.
        """
        block = self.blocks[query_index]
        totals = np.zeros(
            (self.num_partitions, block.num_groups, block.num_components),
            dtype=np.float64,
        )
        present = np.zeros(
            (self.num_partitions, block.num_groups), dtype=bool
        )
        totals[block.live_parts, block.live_groups] = block.totals
        present[block.live_parts, block.live_groups] = True
        return totals, present

    def answers(self, query_index: int) -> LazyPartitionAnswers:
        """Lazy per-partition ``ComponentAnswer`` view for one query."""
        return self.blocks[query_index].answers()

    def contributions(self, query_index: int) -> np.ndarray:
        """Training contribution scalars for one query (array path)."""
        return self.blocks[query_index].contributions()


def _compile_mask(view: FusedTableView, predicate: Predicate | None) -> _FilteredRows:
    n = view.num_partitions
    if predicate is None or view.num_rows == 0:
        return _FilteredRows(None, view.partition_ids, view.offsets)
    rows = np.flatnonzero(view.mask(predicate))
    part_ids = view.partition_ids[rows]
    bounds = np.concatenate(
        ([0], np.cumsum(np.bincount(part_ids, minlength=n)))
    )
    return _FilteredRows(rows, part_ids, bounds)


class WorkloadExecutor:
    """Answers many queries in one sweep over a table's fused view."""

    #: Entry cap for the factorization and expression caches; like
    #: ``PlanCache.limit`` they clear wholesale at the cap, so a
    #: long-lived executor serving ad-hoc queries (the oracle baseline)
    #: cannot pin unbounded O(rows) arrays to the table. (The per-column
    #: codes live on the view, bounded by the schema width.)
    CACHE_LIMIT = 256

    def __init__(self, ptable: PartitionedTable) -> None:
        # Neither ``ptable`` (it memoizes this executor) nor a bound-method
        # compiler below: either cycle keeps the whole training generation
        # waiting for the cycle collector.
        self.view = fused_view(ptable)
        # Execution twin of the featurization plan cache: same memo +
        # hit/miss machinery, compiling predicates to filtered row sets.
        self.mask_plans = PlanCache(
            limit=self.CACHE_LIMIT,
            compiler=partial(_compile_mask, self.view),
            name="mask_cache",
        )
        self._factorizations: dict[
            tuple[tuple[str, ...], Predicate | None],
            tuple[list[GroupKey], np.ndarray],
        ] = {}
        self._expr_values: dict[Expression, np.ndarray] = {}
        self.query_dedup_hits = 0

    @classmethod
    def for_table(cls, ptable: PartitionedTable) -> WorkloadExecutor:
        """A process-wide executor per table (caches are the state).

        Memoization is atomic (same lock as ``BatchExecutor.for_table``):
        concurrent first calls all receive one executor instead of racing
        the check-then-set and building duplicate cache states.
        """
        with TABLE_CACHE_LOCK:
            executor = getattr(ptable, "_workload_executor", None)
            if executor is None:
                executor = cls(ptable)
                ptable._workload_executor = executor
            return executor

    # -- public API ----------------------------------------------------------

    def answer_matrix(self, queries) -> AnswerMatrix:
        """Answers for every query, indexed by global partition id.

        One sweep over the whole table; identical queries alias one
        :class:`QueryAnswerBlock`.
        """
        queries = list(queries)
        with trace_span(
            "engine.sweep",
            queries=len(queries),
            partitions=self.view.num_partitions,
        ):
            blocks: list[QueryAnswerBlock] = []
            seen: dict[Query, QueryAnswerBlock] = {}
            for query in queries:
                block = seen.get(query)
                if block is not None:
                    self.query_dedup_hits += 1
                else:
                    block = self._answer_block(query)
                    seen[query] = block
                blocks.append(block)
            return AnswerMatrix(queries, blocks, self.view.num_partitions)

    def partition_answers(self, query: Query) -> LazyPartitionAnswers:
        """Single-query convenience: the lazy per-partition dict view."""
        return self.answer_matrix([query]).answers(0)

    # -- shared building blocks ------------------------------------------------

    def _factorization(
        self, group_by: tuple[str, ...], predicate: Predicate | None
    ) -> tuple[list[GroupKey], np.ndarray]:
        """``(keys, gids)`` over the predicate's filtered rows (memoized):
        :meth:`FusedTableView.group_ids` at those rows — the exact keys,
        ascending order, and row assignment of the oracle's ``_group_ids``.
        """
        cache_key = (group_by, predicate)
        cached = self._factorizations.get(cache_key)
        if cached is not None:
            return cached
        rows = self.mask_plans.get(predicate).rows
        result = self.view.group_ids(group_by, rows)
        if len(self._factorizations) >= self.CACHE_LIMIT:
            self._factorizations.clear()
        self._factorizations[cache_key] = result
        return result

    def _component_values(
        self, expr: Expression, filtered: _FilteredRows
    ) -> np.ndarray:
        """The expression over the filtered rows, shared across queries."""
        rows = filtered.rows
        if _has_division(expr):
            # Division-bearing expressions raise on non-finite results,
            # so they must only see surviving rows (scalar semantics).
            columns = RowColumns(self.view.columns.__getitem__, rows)
            values = np.asarray(expr.evaluate(columns), dtype=np.float64)
        else:
            values = self._expr_values.get(expr)
            if values is None:
                values = np.asarray(
                    expr.evaluate(self.view.columns), dtype=np.float64
                )
                if len(self._expr_values) >= self.CACHE_LIMIT:
                    self._expr_values.clear()
                self._expr_values[expr] = values
            if rows is not None and values.ndim:
                values = values[rows]
        return np.broadcast_to(values, (filtered.num_rows,))

    # -- per-query execution ----------------------------------------------------

    def _answer_block(self, query: Query) -> QueryAnswerBlock:
        filtered = self.mask_plans.get(query.predicate)
        n = self.view.num_partitions
        if filtered.num_rows == 0:
            keys: list[GroupKey] = [] if query.group_by else [()]
            return QueryAnswerBlock(
                query,
                keys,
                np.empty(0, dtype=np.int64),
                np.empty((0, query.num_components), dtype=np.float64),
                n,
            )
        if query.group_by:
            return self._grouped(query, filtered, n)
        return self._ungrouped(query, filtered, n)

    def _grouped(
        self, query: Query, filtered: _FilteredRows, n: int
    ) -> QueryAnswerBlock:
        keys, gids = self._factorization(query.group_by, query.predicate)
        g = len(keys)
        seg = filtered.part_ids * g + gids
        component_values = [
            None
            if comp.kind is ComponentKind.COUNT
            else self._component_values(comp.expr, filtered)
            for comp in query.components
        ]
        live, __, totals = reduce_live_segments(
            seg, n * g, filtered.num_rows, component_values
        )
        return QueryAnswerBlock(query, keys, live.astype(np.int64), totals, n)

    def _ungrouped(
        self, query: Query, filtered: _FilteredRows, n: int
    ) -> QueryAnswerBlock:
        bounds = filtered.bounds
        counts = np.diff(bounds)
        live = np.flatnonzero(counts)
        totals = np.zeros((live.size, query.num_components), dtype=np.float64)
        for slot, comp in enumerate(query.components):
            if comp.kind is ComponentKind.COUNT:
                totals[:, slot] = counts[live]
                continue
            values = self._component_values(comp.expr, filtered)
            # Pairwise per-partition slice sums — the same summation
            # order as the scalar oracle's ``values.sum()`` (and the
            # batch executor), NOT the sequential bincount chain.
            for i, p in enumerate(live):
                totals[i, slot] = values[bounds[p] : bounds[p + 1]].sum()
        return QueryAnswerBlock(query, [()], live.astype(np.int64), totals, n)
