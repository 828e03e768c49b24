"""Modified Learned Stratified Sampling (paper Appendix C.1).

LSS (Walenz et al., VLDB'19) learns a model whose predictions drive
stratification of row-level samples for count queries. The paper adapts it
to partitions with three changes, all implemented here:

1. training moves offline: one GBRT per dataset/layout, fitted on training
   queries (the original trains per query on row samples, which would
   erase the I/O savings);
2. inputs/labels become partition feature vectors and the section 4.3
   partition *contribution*;
3. stratification uses equal-size rank blocks over the model score, with
   the block size swept exhaustively on the training set per budget
   (Table 8 reports the chosen sizes).

At query time: score passing partitions, form rank strata of the selected
size, allocate the budget proportionally to stratum sizes, sample
uniformly within strata, and weight by ``stratum_size / stratum_samples``.

The Table 8 stratum-size sweep scores every (budget fraction, stratum
size) candidate selection against each sweep query's exact answer,
dict-free over the training answer blocks: per-query sweep state
(passing set, model ranking, exact answer) is hoisted out of the
candidate loops, and each query's whole candidate set goes through one
:meth:`~repro.engine.block_estimator.BlockEstimator.score_grid` call —
a single segment gather plus one fused ``np.bincount``, report for
report what the dict walk's ``estimate`` + ``evaluate_errors`` give
candidate by candidate (the tests compose that oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.metrics import mean_report
from repro.core.training import TrainingConfig, TrainingData
from repro.engine.block_estimator import BlockEstimator
from repro.engine.combiner import WeightedChoice
from repro.engine.query import Query
from repro.errors import ConfigError, NotFittedError
from repro.ml.gbrt import GBRTRegressor
from repro.stats.features import FeatureBuilder
from repro.stats.normalization import Normalizer


def stratified_select(
    ranked: np.ndarray,
    budget: int,
    stratum_size: int,
    rng: np.random.Generator,
) -> list[WeightedChoice]:
    """Proportional allocation over consecutive rank blocks.

    ``ranked`` lists partition ids from highest to lowest model score;
    strata are consecutive blocks of ``stratum_size``. Every stratum gets
    at least its proportional share (largest-remainder rounding).
    """
    if stratum_size < 1:
        raise ConfigError("stratum_size must be >= 1")
    total = ranked.size
    if budget >= total:
        return [WeightedChoice(int(p), 1.0) for p in ranked]
    strata = [
        ranked[start : start + stratum_size]
        for start in range(0, total, stratum_size)
    ]
    shares = np.array([len(s) for s in strata], dtype=np.float64)
    exact = budget * shares / shares.sum()
    counts = np.floor(exact).astype(int)
    remainder = budget - int(counts.sum())
    if remainder > 0:
        order = np.argsort(-(exact - counts))
        for i in order[:remainder]:
            counts[i] += 1
    counts = np.minimum(counts, shares.astype(int))
    # Rounding against the caps can undershoot; top up where room remains.
    deficit = budget - int(counts.sum())
    if deficit > 0:
        for i in np.argsort(-(shares - counts)):
            room = int(shares[i]) - counts[i]
            take = min(room, deficit)
            counts[i] += take
            deficit -= take
            if deficit == 0:
                break
    selection: list[WeightedChoice] = []
    for stratum, count in zip(strata, counts):
        if count <= 0:
            continue
        chosen = rng.choice(stratum, size=count, replace=False)
        weight = len(stratum) / count
        selection.extend(WeightedChoice(int(p), weight) for p in chosen)
    return selection


@dataclass
class LSSSampler:
    """The modified LSS baseline."""

    feature_builder: FeatureBuilder
    seed: int = 0
    stratum_grid: tuple[int, ...] = (2, 4, 8, 12, 16, 24, 32, 48, 64)
    _model: GBRTRegressor | None = field(default=None, repr=False)
    _normalizer: Normalizer | None = field(default=None, repr=False)
    #: budget fraction -> best stratum size (the Table 8 sweep result)
    strata_by_budget: dict[float, int] = field(default_factory=dict)

    def fit(
        self,
        data: TrainingData,
        budget_fractions: tuple[float, ...] = (0.1, 0.2, 0.3, 0.5),
        config: TrainingConfig | None = None,
        sweep_queries: int = 15,
    ) -> LSSSampler:
        """Train the scorer and sweep stratum sizes per budget fraction."""
        config = config or TrainingConfig()
        self._normalizer = Normalizer(self.feature_builder.schema)
        stacked_x, normalized = self._normalizer.fit_transform(data.features)
        labels = np.concatenate(data.contributions)
        self._model = GBRTRegressor(
            n_trees=config.gbrt_trees,
            max_depth=config.gbrt_depth,
            learning_rate=config.gbrt_learning_rate,
            colsample=config.gbrt_colsample,
            seed=config.seed,
        ).fit(stacked_x, labels)
        self._sweep(data, normalized, budget_fractions, sweep_queries)
        return self

    def _sweep(
        self,
        data: TrainingData,
        normalized: list[np.ndarray],
        budget_fractions: tuple[float, ...],
        sweep_queries: int,
    ) -> None:
        """Exhaustive stratum-size sweep on training queries (Table 8).

        Per-query state (passing set, model ranking, exact answer) is
        invariant across the (fraction, size) grid and hoisted into one
        preparation pass; the grid loops then only draw the candidate
        selections, and each query scores its whole size grid in one
        fused ``score_grid`` call. The rank order of ``rng`` draws
        matches the naive nested loop exactly — (fraction → size →
        query), with out-of-range sizes skipped before drawing — so
        sweep results are reproducible across the refactor.

        Tiny tables: when every size in ``stratum_grid`` exceeds
        ``num_partitions`` there is nothing to sweep, and the recorded
        size is clamped to ``num_partitions`` (one stratum spanning the
        whole table) instead of silently keeping an out-of-range
        ``stratum_grid[0]``.
        """
        rng = np.random.default_rng(self.seed)
        num_partitions = data.features[0].shape[0]
        query_ids = rng.choice(
            len(data.queries),
            size=min(sweep_queries, len(data.queries)),
            replace=False,
        )
        upper_index = self.feature_builder.schema.selectivity_upper_index
        prepared = []
        for qid in query_ids:
            passing = np.flatnonzero(data.features[qid][:, upper_index] > 0.0)
            if passing.size == 0:
                continue
            scores = self._model.predict(normalized[qid][passing])
            ranked = passing[np.argsort(-scores)]
            prepared.append((ranked, BlockEstimator(data.answers[qid]).score_grid))
        sizes = [s for s in self.stratum_grid if s <= num_partitions]
        for fraction in budget_fractions:
            budget = max(1, int(round(fraction * num_partitions)))
            # Draw every candidate first, in the naive loop's rng order
            # (size-major, query-minor), then score each query's grid in
            # one fused pass.
            grids: list[list] = [[] for __ in prepared]
            for size in sizes:
                for i, (ranked, __) in enumerate(prepared):
                    grids[i].append(stratified_select(ranked, budget, size, rng))
            reports_by_query = [
                score_grid(grid)
                for grid, (__, score_grid) in zip(grids, prepared)
            ]
            best_size = min(self.stratum_grid[0], num_partitions)
            best_error = float("inf")
            for j, size in enumerate(sizes):
                reports = [per_query[j] for per_query in reports_by_query]
                error = (
                    mean_report(reports).avg_relative_error
                    if reports
                    else float("inf")
                )
                if error < best_error:
                    best_size, best_error = size, error
            self.strata_by_budget[fraction] = best_size

    def _stratum_size_for(self, budget: int, num_partitions: int) -> int:
        if not self.strata_by_budget:
            return max(2, num_partitions // 10)
        fraction = budget / num_partitions
        nearest = min(self.strata_by_budget, key=lambda f: abs(f - fraction))
        return self.strata_by_budget[nearest]

    def select(self, query: Query, budget: int) -> list[WeightedChoice]:
        if self._model is None or self._normalizer is None:
            raise NotFittedError("LSSSampler.select before fit")
        if budget <= 0:
            return []
        features = self.feature_builder.features_for_query(query)
        passing = features.passing_partitions()
        if passing.size == 0:
            return []
        if budget >= passing.size:
            return [WeightedChoice(int(p), 1.0) for p in passing]
        normalized = self._normalizer.transform(features.matrix)
        scores = self._model.predict(normalized[passing])
        ranked = passing[np.argsort(-scores)]
        rng = np.random.default_rng(self.seed + budget)
        size = self._stratum_size_for(budget, features.num_partitions)
        return stratified_select(ranked, budget, size, rng)
