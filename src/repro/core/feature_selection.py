"""Feature selection for clustering (paper Algorithm 3, Appendix B.1).

Clustering weighs all feature dimensions equally, so harmful statistics
hurt every query. A "leave-one-out" greedy search excludes feature
*families* (a statistic across all columns, e.g. ``min(x)``; the bitmap
block; each selectivity feature) while exclusions keep improving the
clustering error on training queries, restarting several times from random
family orders and keeping the best exclusion set found.

Evaluations are cached by exclusion set — the greedy path revisits sets
frequently — and the error of an exclusion set is measured by actually
running cluster-sampling on training queries at a few budgets and scoring
the weighted estimates against the exact answers, dict-free over the
training answer blocks. Per-query sweep state (passing sets and the
exact answers) is independent of the exclusion set and prepared once per
evaluator, so each additional exclusion set only pays for clustering and
candidate scoring — and the scoring itself is fused: each query's
budget-fraction candidates go through one
:meth:`~repro.engine.block_estimator.BlockEstimator.score_grid` call (a
single segment gather plus one fused ``np.bincount``), bit-identical to
the dict walk's ``estimate`` + ``evaluate_errors`` per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cluster_sampler import cluster_sample
from repro.core.metrics import mean_report
from repro.core.training import TrainingData
from repro.engine.block_estimator import BlockEstimator
from repro.errors import ConfigError
from repro.stats.features import FeatureSchema


@dataclass
class ClusteringErrorEvaluator:
    """Average relative error of cluster-sampling under an exclusion set."""

    schema: FeatureSchema
    data: TrainingData
    budget_fractions: tuple[float, ...] = (0.1, 0.2)
    algorithm: str = "kmeans"
    max_queries: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.data.normalized:
            raise ConfigError("TrainingData.normalized is empty; train first")
        self._cache: dict[frozenset[str], float] = {}
        rng = np.random.default_rng(self.seed)
        count = min(self.max_queries, len(self.data.queries))
        self._query_ids = rng.choice(
            len(self.data.queries), size=count, replace=False
        )
        self._prepared: list[tuple[int, np.ndarray, object]] | None = None

    def _keep_indices(self, excluded: frozenset[str]) -> np.ndarray:
        keep = [
            info.index
            for info in self.schema.features
            if info.family not in excluded
        ]
        return np.asarray(keep, dtype=np.intp)

    def _prepare(self) -> list[tuple[int, np.ndarray, object]]:
        """Exclusion-invariant per-query state: passing set + scorer.

        The scorer holds the hoisted weight-1 exact answer, so no
        exclusion set ever recomputes a truth.
        """
        upper_index = self.schema.selectivity_upper_index
        prepared = []
        for qid in self._query_ids:
            raw = self.data.features[qid]
            passing = np.flatnonzero(raw[:, upper_index] > 0.0)
            if passing.size == 0:
                continue
            estimator = BlockEstimator(self.data.answers[qid])
            prepared.append((qid, passing, estimator.score_grid))
        return prepared

    def error(self, excluded: frozenset[str]) -> float:
        """Mean avg-relative-error across sampled queries and budgets."""
        cached = self._cache.get(excluded)
        if cached is not None:
            return cached
        keep = self._keep_indices(excluded)
        if keep.size == 0:
            self._cache[excluded] = float("inf")
            return float("inf")
        if self._prepared is None:
            self._prepared = self._prepare()
        reports = []
        for qid, passing, score_grid in self._prepared:
            normalized = self.data.normalized[qid][:, keep]
            num_partitions = normalized.shape[0]
            selections = [
                cluster_sample(
                    normalized,
                    passing,
                    max(1, int(round(fraction * num_partitions))),
                    algorithm=self.algorithm,
                )
                for fraction in self.budget_fractions
            ]
            reports.extend(score_grid(selections))
        score_value = (
            mean_report(reports).avg_relative_error if reports else float("inf")
        )
        self._cache[excluded] = score_value
        return score_value


def greedy_feature_selection(
    schema: FeatureSchema,
    evaluator: ClusteringErrorEvaluator,
    rounds: int = 3,
    seed: int = 0,
) -> frozenset[str]:
    """Algorithm 3: the best exclusion set found across greedy restarts.

    The paper uses 10 restarts; ``rounds`` defaults lower because each
    evaluation re-clusters a sample of training queries. The
    ``selectivity_upper`` family is never excluded — the picker's
    predicate filter depends on it.
    """
    rng = np.random.default_rng(seed)
    families = [f for f in schema.families() if f != "selectivity_upper"]
    best: frozenset[str] = frozenset()
    best_error = evaluator.error(best)
    for __ in range(rounds):
        order = list(families)
        rng.shuffle(order)
        excluded: frozenset[str] = frozenset()
        current_error = evaluator.error(excluded)
        for family in order:
            candidate = excluded | {family}
            candidate_error = evaluator.error(candidate)
            if candidate_error < current_error:
                excluded = candidate
                current_error = candidate_error
        if current_error < best_error:
            best = excluded
            best_error = current_error
    return best
