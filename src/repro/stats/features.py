"""Feature vectors for partitions (paper Table 2 and section 3.2).

The feature schema is determined entirely by the dataset's table schema
plus the workload's group-by universe, so every query over one dataset
shares the same layout:

* one block of 17 per-column statistics for every column — 9 measure
  statistics (zeroed for categorical columns and for log-variants of
  non-positive columns), 5 distinct-value statistics from AKMV, and 3
  heavy-hitter statistics;
* one occurrence-bitmap block (k <= 25 bits) per *potential grouping
  column*;
* 5 query-specific selectivity features.

At query time a column mask is applied: statistic blocks of columns the
query does not reference are zeroed, and bitmap blocks are only live for
the query's actual group-by columns (section 3.2). The mask is a value,
not just zeros: :attr:`QueryFeatures.live_columns` lists the feature
columns it left live (about an eighth of the vector for a typical
query), so the normalizer, the funnel and the clustering step work on
those columns alone — every other column is ``+0.0`` for every
partition. A query's features are therefore its selectivity block
(N x 5) and its mask over the builder's static block; the masked
N x M matrix (:attr:`QueryFeatures.matrix`) is composed only when a
caller reads it (training, LSS), never by a pick.

The builder reads the statistics' :class:`ColumnarSketchIndex`: the
static block is assembled from per-column array stacks, and selectivity
features come from a compiled :class:`~repro.stats.plan.PredicatePlan`
evaluated across all partitions at once. A scalar walk over sketch
objects, one partition at a time, is the oracle the tests hold the plan
to; it lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.engine.predicates import Predicate
from repro.engine.query import Query
from repro.errors import ConfigError
from repro.rowbuffers import grow
from repro.sketches.builder import DatasetStatistics
from repro.sketches.columnar import NUM_COLUMN_STATS, ColumnarSketchIndex
from repro.stats.plan import SHARED_PLAN_CACHE, PlanCache, PredicatePlan

#: (stat key, category, family) — families follow Appendix B.1's feature
#: listing so feature selection can drop a statistic across all columns.
STAT_SPECS: tuple[tuple[str, str, str], ...] = (
    ("mean", "measure", "x"),
    ("mean_sq", "measure", "x2"),
    ("std", "measure", "std"),
    ("min", "measure", "min(x)"),
    ("max", "measure", "max(x)"),
    ("log_mean", "measure", "log(x)"),
    ("log_mean_sq", "measure", "log2(x)"),
    ("log_min", "measure", "min(log(x))"),
    ("log_max", "measure", "max(log(x))"),
    ("dv_count", "dv", "# dv"),
    ("dv_freq_avg", "dv", "avg dv"),
    ("dv_freq_max", "dv", "max dv"),
    ("dv_freq_min", "dv", "min dv"),
    ("dv_freq_sum", "dv", "sum dv"),
    ("hh_count", "hh", "# hh"),
    ("hh_freq_avg", "hh", "avg hh"),
    ("hh_freq_max", "hh", "max hh"),
)

SELECTIVITY_SPECS: tuple[tuple[str, str, str], ...] = (
    ("selectivity_upper", "selectivity", "selectivity_upper"),
    ("selectivity_lower", "selectivity", "selectivity_lower"),
    ("selectivity_indep", "selectivity", "selectivity_indep"),
    ("selectivity_min", "selectivity", "selectivity_min"),
    ("selectivity_max", "selectivity", "selectivity_max"),
)

NUM_STATS = len(STAT_SPECS)
NUM_SELECTIVITY = len(SELECTIVITY_SPECS)

# The columnar exporter owns the numeric extraction of the statistic
# block; the two layouts must stay in lockstep.
assert NUM_STATS == NUM_COLUMN_STATS

@dataclass(frozen=True)
class FeatureInfo:
    """Metadata for one feature dimension."""

    index: int
    name: str
    category: str  # measure | dv | hh | selectivity (Figure 5 buckets)
    family: str  # Algorithm 3 feature-selection granularity
    column: str | None  # None for selectivity features


@dataclass
class FeatureSchema:
    """Layout of the feature vector for one dataset + workload."""

    columns: tuple[str, ...]
    groupby_columns: tuple[str, ...]
    bitmap_widths: dict[str, int]
    features: tuple[FeatureInfo, ...] = field(init=False)
    stat_offsets: dict[str, int] = field(init=False)
    bitmap_offsets: dict[str, int] = field(init=False)
    selectivity_offset: int = field(init=False)

    def __post_init__(self) -> None:
        infos: list[FeatureInfo] = []
        stat_offsets: dict[str, int] = {}
        for name in self.columns:
            stat_offsets[name] = len(infos)
            for key, category, family in STAT_SPECS:
                infos.append(
                    FeatureInfo(len(infos), f"{name}:{key}", category, family, name)
                )
        bitmap_offsets: dict[str, int] = {}
        for name in self.groupby_columns:
            bitmap_offsets[name] = len(infos)
            for bit in range(self.bitmap_widths.get(name, 0)):
                infos.append(
                    FeatureInfo(
                        len(infos), f"{name}:bitmap[{bit}]", "hh", "hh bitmap", name
                    )
                )
        self.selectivity_offset = len(infos)
        for key, category, family in SELECTIVITY_SPECS:
            infos.append(FeatureInfo(len(infos), key, category, family, None))
        self.features = tuple(infos)
        self.stat_offsets = stat_offsets
        self.bitmap_offsets = bitmap_offsets

    @property
    def dimension(self) -> int:
        return len(self.features)

    @property
    def selectivity_upper_index(self) -> int:
        return self.selectivity_offset  # upper is the first selectivity slot

    def families(self) -> tuple[str, ...]:
        """Distinct feature families, in first-appearance order."""
        seen: dict[str, None] = {}
        for info in self.features:
            seen.setdefault(info.family, None)
        return tuple(seen)

    def category_indices(self, category: str) -> np.ndarray:
        return np.array(
            [info.index for info in self.features if info.category == category],
            dtype=np.intp,
        )

    def stat_slice(self, column: str) -> slice:
        offset = self.stat_offsets[column]
        return slice(offset, offset + NUM_STATS)

    def bitmap_slice(self, column: str) -> slice:
        offset = self.bitmap_offsets[column]
        return slice(offset, offset + self.bitmap_widths.get(column, 0))

    def selectivity_slice(self) -> slice:
        return slice(self.selectivity_offset, self.selectivity_offset + NUM_SELECTIVITY)


@dataclass
class QueryFeatures:
    """One query's features: its selectivity block and its mask, over
    the builder's static block; the full matrix F (N x M) on demand."""

    schema: FeatureSchema
    query: Query
    #: Selectivity estimates (N x 5), in ``SELECTIVITY_SPECS`` order.
    selectivity: np.ndarray
    #: The query mask (section 3.2), ascending: stat blocks of referenced
    #: columns, bitmap blocks of GROUP BY columns, the selectivity slots.
    #: Every other column of ``matrix`` is ``+0.0``.
    live_columns: np.ndarray
    #: The builder's unmasked static block (read-only) these rows index.
    static: np.ndarray = field(repr=False)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The masked N x M matrix, composed on first access for the
        callers that need full width (training, LSS)."""
        matrix = np.zeros((self.num_partitions, self.schema.dimension))
        masked = self.live_columns[:-NUM_SELECTIVITY]  # the static part
        matrix[:, masked] = self.static[:, masked]
        matrix[:, self.schema.selectivity_slice()] = self.selectivity
        return matrix

    @property
    def num_partitions(self) -> int:
        return self.selectivity.shape[0]

    @property
    def selectivity_upper(self) -> np.ndarray:
        """Per-partition ``selectivity_upper`` (the perfect-recall filter)."""
        return self.selectivity[:, 0]

    def passing_partitions(self) -> np.ndarray:
        """Indices of partitions that may contain qualifying rows."""
        return np.flatnonzero(self.selectivity_upper > 0.0)


def _indices(block: slice) -> np.ndarray:
    return np.arange(block.start, block.stop)


class FeatureBuilder:
    """Builds per-query feature matrices from dataset statistics.

    The static part (per-column statistics and bitmaps) is assembled once
    from the columnar sketch index and extended in place on append;
    ``features_for_query`` applies the query mask and appends fresh
    selectivity estimates from a compiled predicate plan.

    ``index``, when given, must be ``dataset.index`` (the one index a
    dataset has); anything else is a :class:`ConfigError`.
    """

    def __init__(
        self,
        dataset: DatasetStatistics,
        groupby_columns: tuple[str, ...],
        plan_cache: PlanCache | None = None,
        index: ColumnarSketchIndex | None = None,
    ) -> None:
        for name in groupby_columns:
            if name not in dataset.schema:
                raise ConfigError(f"group-by universe column {name!r} not in schema")
        self.dataset = dataset
        # Plans are dataset-independent, so builders share one process-wide
        # cache by default: baselines re-featurizing the same workload hit
        # instead of recompiling. Pass a private PlanCache to isolate.
        self.plan_cache = plan_cache if plan_cache is not None else SHARED_PLAN_CACHE
        widths = {
            name: min(
                len(dataset.global_heavy_hitters.get(name, ())),
                dataset.config.bitmap_k,
            )
            for name in groupby_columns
        }
        self.schema = FeatureSchema(
            columns=dataset.schema.names,
            groupby_columns=tuple(groupby_columns),
            bitmap_widths=widths,
        )
        if index is not None and index is not dataset.index:
            raise ConfigError(
                "FeatureBuilder reads the statistics' own index; pass "
                "index=None or index=dataset.index"
            )
        self._index = dataset.index
        self._static = self._static_rows(0, dataset.num_partitions)
        self._static.flags.writeable = False  # shared with every QueryFeatures
        self._static_buffers = None  # what ``_static`` views once grown
        self._live_memo: dict[tuple, np.ndarray] = {}
        # Each column's feature indices, concatenated for masks the memo
        # misses (most of a stream of ad-hoc queries).
        schema = self.schema
        self._stat_columns = {c: _indices(schema.stat_slice(c)) for c in schema.columns}
        self._bitmap_columns = {
            c: _indices(schema.bitmap_slice(c)) for c in schema.groupby_columns
        }
        self._selectivity_columns = _indices(schema.selectivity_slice())

    def _static_rows(self, start: int, stop: int) -> np.ndarray:
        """Static feature rows for partitions ``[start, stop)``."""
        static = np.zeros(
            (stop - start, self.schema.selectivity_offset), dtype=np.float64
        )
        for name in self.schema.columns:
            block = self.schema.stat_slice(name)
            static[:, block] = self._index.columns[name].stats[start:stop]
        for name in self.schema.groupby_columns:
            block = self.schema.bitmap_slice(name)
            width = block.stop - block.start
            if width:
                hitters = self.dataset.global_heavy_hitters.get(name, ())[:width]
                static[:, block] = self._index.columns[name].occurrence_matrix(
                    hitters, start, stop
                )
        return static

    @property
    def static_matrix(self) -> np.ndarray:
        """The unmasked static features (read-only view)."""
        return self._static

    @property
    def generation(self) -> int:
        """Partitions the static block covers. Only :meth:`refresh`
        advances it, so everything a pick reads is fixed within one."""
        return self._static.shape[0]

    @property
    def sketch_index(self) -> ColumnarSketchIndex:
        """The columnar sketch index backing the batch paths."""
        return self._index

    def refresh(self) -> None:
        """Extend static features after partitions were appended.

        Incremental: the seal already wrote the appended partitions'
        index rows; just their static rows are derived and written
        behind the existing ones (:func:`repro.rowbuffers.grow`), which
        are never recomputed or rewritten, so a ``QueryFeatures`` of an
        older generation keeps reading its own. Statistics only grow, and
        whoever grows them (``PS3.append``, journal replay) calls this
        before the next query. The feature *schema* (including bitmap
        widths, which derive from the global heavy hitters frozen at
        construction) stays fixed so trained models remain applicable.
        Retrain when the dataset drifts (see ``PS3.staleness``).
        """
        built = self._static.shape[0]
        n = self.dataset.num_partitions
        if n > built:
            grown, self._static_buffers = grow(
                {"static": self._static},
                {"static": self._static_rows(built, n)},
                self._static_buffers,
            )
            self._static = grown["static"]
            self._static.flags.writeable = False

    def _plan_for(self, predicate: Predicate | None) -> PredicatePlan:
        """Compiled plan for ``predicate``, memoized in the shared cache."""
        return self.plan_cache.get(predicate)

    def _live_columns(self, query: Query) -> np.ndarray:
        """The query mask as ascending feature indices (read-only),
        memoized per (referenced columns, GROUP BY columns)."""
        used, group_by = query.columns(), frozenset(query.group_by)
        live = self._live_memo.get((used, group_by))
        if live is None:
            blocks = [a for c, a in self._stat_columns.items() if c in used]
            blocks += [a for c, a in self._bitmap_columns.items() if c in group_by]
            blocks.append(self._selectivity_columns)
            live = np.concatenate(blocks)
            live.flags.writeable = False
            if len(self._live_memo) >= 1024:  # ad-hoc signatures: stay bounded
                self._live_memo.clear()
            self._live_memo[used, group_by] = live
        return live

    def features_for_query(self, query: Query) -> QueryFeatures:
        """Selectivity estimates and the mask for ``query``; nothing of
        the static block is copied until ``.matrix`` is read."""
        return QueryFeatures(
            schema=self.schema,
            query=query,
            selectivity=self._plan_for(query.predicate).evaluate(self._index),
            live_columns=self._live_columns(query),
            static=self._static,
        )
