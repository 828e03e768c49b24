"""The PS3 partition picker (paper Algorithm 1).

Given a query, the summary-statistics features, and a budget of ``n``
partitions, the picker:

1. filters to partitions that can satisfy the predicate
   (``selectivity_upper > 0`` — perfect recall, variable precision);
2. reserves up to 10% of the budget for *outlier* partitions with rare
   group distributions, each evaluated exactly at weight 1 (section 4.4);
3. funnels the remaining partitions through the trained regressors into
   importance groups (section 4.3);
4. splits the remaining budget across groups with decay rate ``alpha``;
5. inside each group, selects samples by KMeans-clustering the feature
   vectors and picking one weighted exemplar per cluster (section 4.2),
   falling back to uniform sampling for predicates with more than 10
   clauses (Appendix B.1).

Figure 4's lesions and Table 6's HAC linkages are experiments *on* this
one algorithm: subclasses in :mod:`repro.bench.pickers` overriding the
``_outlier_candidates``, ``_group_inliers``, ``_clusters`` or
``_sample_within_group`` step.

**Pick memo.** A pick that draws nothing from the rng (median exemplar,
every group clustered) is pure; the last :data:`PICK_MEMO_LIMIT` of them
per statistics generation (``FeatureBuilder.generation``) are kept, least
recently used out, and a repeat is a copy, not a pick. A hit never skips
a draw, so every selection is the one an unmemoized picker makes.

**Live block.** A pick reads only the query's live feature columns
(section 3.2's mask): their static part is gathered from a static block
normalized once per statistics generation, the five selectivity columns
are normalized per pick, and one last ``+0.0`` column stands in for
every masked feature a funnel tree tests. No pick builds the full
feature matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from repro.core.allocation import allocate_samples
from repro.core.cluster_sampler import cluster_sample, random_sample
from repro.core.importance import importance_groups
from repro.core.outliers import find_outliers
from repro.core.training import PickerModel
from repro.engine.combiner import WeightedChoice
from repro.engine.query import Query
from repro.errors import ConfigError
from repro.obs import get_registry
from repro.rowbuffers import grow
from repro.stats.features import NUM_SELECTIVITY, QueryFeatures

#: Pure picks remembered per statistics generation (see the module doc).
PICK_MEMO_LIMIT = 256
#: Share of the budget reserved for outliers, "up to 10%" (section 4.4).
OUTLIER_BUDGET_FRACTION = 0.10
#: Predicates with more clauses sample uniformly (Appendix B.1).
MAX_CLAUSES_FOR_CLUSTERING = 10


@dataclass(frozen=True)
class PickerConfig:
    """Online-picker knobs (paper defaults: k=4 via the model, alpha=2).

    ``alpha`` is a finite real ``>= 1``, ``exemplar`` one of ``median``
    and ``random`` and ``seed`` a non-negative, non-bool integer;
    anything else is a :class:`ConfigError`.
    """

    alpha: float = 2.0
    exemplar: str = "median"
    seed: int = 0

    def __post_init__(self) -> None:
        alpha = self.alpha
        if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real):
            raise ConfigError(f"alpha must be a real number, got {alpha!r}")
        if not (math.isfinite(alpha) and alpha >= 1.0):
            raise ConfigError(f"alpha must be finite and >= 1, got {alpha!r}")
        if self.exemplar not in ("median", "random"):
            raise ConfigError(
                f"exemplar must be 'median' or 'random', got {self.exemplar!r}"
            )
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise ConfigError(f"seed must be an integer, got {seed!r}")
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed!r}")


def _merge_unsampled_groups(
    groups: list[np.ndarray], budgets: list[int]
) -> tuple[list[np.ndarray], list[int]]:
    """Fold zero-budget, nonempty groups into a sampled neighbour.

    Preference order: the next more-important sampled group, else the
    nearest less-important one. If no group received any budget, the
    original lists are returned unchanged (outliers consumed everything).
    """
    if not any(budgets):
        return groups, budgets
    merged = [g.copy() for g in groups]
    out_budgets = list(budgets)
    for index, (members, budget) in enumerate(zip(merged, out_budgets)):
        if budget > 0 or members.size == 0:
            continue
        target = next(
            (j for j in range(index + 1, len(merged)) if out_budgets[j] > 0),
            None,
        )
        if target is None:
            target = next(
                j for j in range(index - 1, -1, -1) if out_budgets[j] > 0
            )
        merged[target] = np.concatenate([merged[target], members])
        merged[index] = members[:0]
    return merged, out_budgets


@dataclass
class PickerSelection:
    """The weighted partition choices plus diagnostics."""

    selection: list[WeightedChoice]
    outliers: list[int] = field(default_factory=list)
    group_sizes: list[int] = field(default_factory=list)
    group_budgets: list[int] = field(default_factory=list)
    used_clustering: bool = False

    @property
    def partitions(self) -> list[int]:
        return [choice.partition for choice in self.selection]

    def copy(self) -> PickerSelection:
        """The same pick in fresh lists (the choices themselves are frozen)."""
        lists = (self.selection, self.outliers, self.group_sizes, self.group_budgets)
        return PickerSelection(*map(list, lists), self.used_clustering)


class PS3Picker:
    """Online partition picker bound to a trained model and its statistics."""

    def __init__(
        self, model: PickerModel, config: PickerConfig | None = None
    ) -> None:
        self.model = model
        self.config = config or PickerConfig()
        self._rng = np.random.default_rng(self.config.seed)
        # Feature selection (Algorithm 3) may bar families from clustering.
        self._clusterable = np.isin(
            np.arange(model.feature_builder.schema.dimension),
            model.clustering_feature_indices(),
        )
        # Pure picks of one statistics generation, least recently used first.
        self._memo: dict[tuple[Query, int], PickerSelection] = {}
        self._memo_generation = model.feature_builder.generation
        width = model.feature_builder.static_matrix.shape[1]
        self._normalized_static = np.empty((0, width))
        self._normalized_buffers = None
        self._normalize_static()
        registry = get_registry()
        self._memo_hits = registry.counter("picker.memo.hits")
        self._memo_misses = registry.counter("picker.memo.misses")
        self._memo_evictions = registry.counter("picker.memo.evictions")

    # -- internals ------------------------------------------------------------

    def _normalize_static(self) -> None:
        """Normalize the static block of the current statistics
        generation: what every pick of it gathers its live columns from.

        Static rows never change once built and the transform is
        elementwise, so only the rows a generation added are normalized,
        written behind the older generations' (:func:`repro.rowbuffers
        .grow`)."""
        static = self.model.feature_builder.static_matrix
        done = len(self._normalized_static)
        rows = self.model.normalizer.transform(
            static[done:], live=np.arange(static.shape[1])
        )
        grown, self._normalized_buffers = grow(
            {"static": self._normalized_static},
            {"static": rows},
            self._normalized_buffers,
        )
        self._normalized_static = grown["static"]

    def _live_block(self, features: QueryFeatures) -> np.ndarray:
        """The query's live columns, normalized, then one ``+0.0`` column.

        Only the five selectivity columns are transformed here; the
        static ones are gathered from the generation's normalized block.
        """
        live = features.live_columns
        static = live[:-NUM_SELECTIVITY]
        block = np.zeros((features.num_partitions, live.size + 1))
        block[:, : static.size] = self._normalized_static[:, static]
        block[:, static.size : live.size] = self.model.normalizer.transform(
            features.selectivity, live=live[static.size :]
        )
        return block

    def _outlier_candidates(self, query: Query, passing: np.ndarray) -> np.ndarray:
        """Partitions of rare group signatures among ``passing``, rarest
        first (section 4.4); the pick reads the first ones its outlier
        share allows. None without a GROUP BY."""
        if not query.group_by:
            return np.empty(0, dtype=np.intp)
        # The builder's columnar sketch index batches the signature
        # grouping — the last per-partition loop on the select path.
        builder = self.model.feature_builder
        return find_outliers(
            builder.dataset, query.group_by, passing, index=builder.sketch_index
        )

    def _group_inliers(
        self,
        query: Query,
        block: np.ndarray,
        inliers: np.ndarray,
        columns: np.ndarray,
    ) -> list[np.ndarray]:
        """Importance grouping, least-important group first; feature ``f``
        of a partition is ``block[partition, columns[f]]``.

        Overridable: the oracle baseline (Appendix C.2) replaces the
        learned funnel with true contributions.
        """
        if self.model.regressors:
            return importance_groups(block, inliers, self.model.regressors, columns)
        return [inliers]

    def _clusters(self, query: Query) -> bool:
        """Whether the groups are clustered, not sampled uniformly: a
        predicate of more than 10 clauses makes the per-partition
        features unrepresentative (Appendix B.1)."""
        return query.num_predicate_clauses() <= MAX_CLAUSES_FOR_CLUSTERING

    def _sample_within_group(
        self,
        block: np.ndarray | None,
        members: np.ndarray,
        budget: int,
    ) -> list[WeightedChoice]:
        """Weighted choices for one importance group; ``block`` is the
        select's live clustering columns, ``None`` to sample uniformly."""
        if budget <= 0 or members.size == 0:
            return []
        if block is None:
            return random_sample(members, budget, self._rng)
        return cluster_sample(
            block, members, budget, exemplar=self.config.exemplar, rng=self._rng
        )

    # -- public API -----------------------------------------------------------

    def select(self, query: Query, budget: int) -> PickerSelection:
        """Choose ``budget`` weighted partitions for ``query``.

        The returned selection may be smaller than the budget when fewer
        partitions can satisfy the predicate (the answer is then exact).
        A pure repeat is a memo hit (module doc). Not thread-safe: callers
        share the rng and the memo under ``PS3._state_lock``.
        """
        if budget < 0:
            raise ConfigError("budget must be non-negative")
        generation = self.model.feature_builder.generation
        if generation != self._memo_generation:
            self._memo.clear()
            self._memo_generation = generation
            self._normalize_static()
        key = (query, budget)
        stored = self._memo.pop(key, None)
        if stored is not None:
            self._memo[key] = stored  # most recently used: to the back
            self._memo_hits.inc()
            return stored.copy()
        self._memo_misses.inc()
        state = self._rng.bit_generator.state
        picked = self._pick(query, budget)
        if self._rng.bit_generator.state == state:  # pure: drew nothing
            if len(self._memo) >= PICK_MEMO_LIMIT:
                del self._memo[next(iter(self._memo))]
                self._memo_evictions.inc()
            self._memo[key] = picked.copy()
        return picked

    def _pick(self, query: Query, budget: int) -> PickerSelection:
        """One pick as Algorithm 1 makes it, with no memo."""
        features = self.model.feature_builder.features_for_query(query)
        passing = features.passing_partitions()

        if budget == 0 or passing.size == 0:
            return PickerSelection(selection=[])
        if budget >= passing.size:
            return PickerSelection(
                selection=[WeightedChoice(int(p), 1.0) for p in passing]
            )
        # Every pick reads the query's live block alone: a masked feature
        # is +0.0 for every partition, and the block's last column holds it.
        live = features.live_columns
        block = self._live_block(features)
        columns = np.full(self.model.feature_builder.schema.dimension, live.size)
        columns[live] = np.arange(live.size)

        # Step 1: outliers (weight 1 each). "Up to 10% of the sampling
        # budget" (section 4.4): floor, so tiny budgets are not halved by
        # a single outlier read.
        cap = int(np.floor(OUTLIER_BUDGET_FRACTION * budget))
        outliers = self._outlier_candidates(query, passing)[:cap]
        selection = [WeightedChoice(int(p), 1.0) for p in outliers]
        # Both arrays are already unique (`passing` is sorted indices from
        # flatnonzero, outliers are distinct partition ids), so skip the
        # sort/uniquify pass np.setdiff1d would redo on every select().
        if outliers.size:
            inliers = passing[~np.isin(passing, outliers, assume_unique=True)]
        else:
            inliers = passing
        remaining = budget - outliers.size

        # Step 2: importance funnel.
        groups = self._group_inliers(query, block, inliers, columns)

        # Step 3: budget split with decay alpha.
        group_sizes = [int(g.size) for g in groups]
        group_budgets = allocate_samples(group_sizes, remaining, self.config.alpha)
        # A group allocated zero samples would silently drop its weight
        # mass from the estimator (its partitions go unrepresented). Fold
        # such groups into the nearest sampled, more-important group so
        # the weighted selection always covers every passing partition.
        groups, group_budgets = _merge_unsampled_groups(groups, group_budgets)

        # Step 4: per-group sample selection.
        clustering_ok = self._clusters(query)
        # One gather per select: every group clusters in the query's live
        # subspace (the other columns are zero for every partition).
        clustered = (
            block[:, np.flatnonzero(self._clusterable[live])] if clustering_ok else None
        )
        for members, group_budget in zip(groups, group_budgets):
            selection.extend(
                self._sample_within_group(clustered, members, group_budget)
            )

        return PickerSelection(
            selection=selection,
            outliers=[int(p) for p in outliers],
            group_sizes=group_sizes,
            group_budgets=group_budgets,
            used_clustering=clustering_ok,
        )
