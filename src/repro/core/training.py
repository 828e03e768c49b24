"""Offline picker training (paper sections 2.3.2 and 4.3, Appendix B.2).

For each training query we compute the per-partition feature matrix and
the exact per-partition answers, derive contribution scalars, and fit a
funnel of ``k`` GBRT regressors at exponentially spaced contribution
thresholds. Training is a one-time cost per (dataset, layout, workload);
the same models serve all test queries.

The intermediate artifacts (features, answers, contributions) are returned
as :class:`TrainingData` because the LSS baseline, the feature-selection
procedure, and several benchmarks reuse them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from repro.core.labels import exponential_thresholds, labels_for_query
from repro.engine.batch_executor import BatchExecutor, QueryAnswerBlock
from repro.engine.query import Query
from repro.engine.table import PartitionedTable
from repro.errors import ConfigError
from repro.ml.gbrt import GBRTRegressor, bin_features
from repro.stats.features import FeatureBuilder
from repro.stats.normalization import Normalizer


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of the learned component (paper defaults)."""

    num_models: int = 4  # k regressors in the funnel
    top_fraction: float = 0.01  # last model targets the top 1%
    gbrt_trees: int = 30
    gbrt_depth: int = 3
    gbrt_learning_rate: float = 0.3
    gbrt_colsample: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        # Non-bool integers and finite reals, checked here rather than
        # deep inside ``fit``; NaN fails every range comparison.
        for name in ("num_models", "gbrt_trees", "gbrt_depth", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if name != "seed" and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value!r}")
        for name in ("top_fraction", "gbrt_learning_rate", "gbrt_colsample"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            if not 0.0 < value <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {value!r}")


@dataclass
class TrainingData:
    """Per-training-query artifacts, reusable by baselines and benches."""

    queries: list[Query]
    features: list[np.ndarray]  # raw feature matrices, one per query
    normalized: list[np.ndarray]  # normalizer-transformed matrices
    # One array block per query, indexed by partition id: also the
    # sequence of per-partition ``{group key: component vector}`` dicts.
    answers: list[QueryAnswerBlock]
    contributions: list[np.ndarray]  # contribution scalars per query


@dataclass
class PickerModel:
    """Everything the online picker needs, produced by training."""

    feature_builder: FeatureBuilder
    normalizer: Normalizer
    regressors: list[GBRTRegressor]
    thresholds: np.ndarray
    excluded_families: frozenset[str] = field(default_factory=frozenset)

    def clustering_feature_indices(self) -> np.ndarray:
        """Feature columns the clustering component uses.

        Feature selection (Algorithm 3) excludes whole families from
        clustering only — the regressors always see the full vector.
        """
        schema = self.feature_builder.schema
        keep = [
            info.index
            for info in schema.features
            if info.family not in self.excluded_families
        ]
        return np.asarray(keep, dtype=np.intp)


def compute_training_data(
    ptable: PartitionedTable,
    feature_builder: FeatureBuilder,
    queries: list[Query],
) -> TrainingData:
    """Features, answers, and contributions for a set of queries.

    Each query is featurized through the builder's compiled plan and
    answered over every partition by one
    :meth:`~repro.engine.batch_executor.BatchExecutor.partition_answers`
    pass, bit-for-bit equal to the tests' scalar ``execute_on_partition``
    loop (pinned by the differential suites). Contributions are read
    straight off the block arrays; no per-partition dict is built unless a
    consumer iterates ``TrainingData.answers``. ``Query`` is a frozen
    value object, so a repeated query is answered once and aliases one
    block. The normalized matrices are filled in by
    :func:`train_picker_model` once the normalizer has been fitted.
    """
    executor = BatchExecutor.for_table(ptable)
    blocks: dict[Query, QueryAnswerBlock] = {}
    features: list[np.ndarray] = []
    answers: list[QueryAnswerBlock] = []
    contributions: list[np.ndarray] = []
    for query in queries:
        block = blocks.get(query)
        if block is None:
            block = blocks[query] = executor.partition_answers(query)
        features.append(feature_builder.features_for_query(query).matrix)
        answers.append(block)
        contributions.append(block.contributions())
    return TrainingData(
        queries=list(queries),
        features=features,
        normalized=[],
        answers=answers,
        contributions=contributions,
    )


def train_picker_model(
    ptable: PartitionedTable,
    feature_builder: FeatureBuilder,
    train_queries: list[Query],
    config: TrainingConfig | None = None,
) -> tuple[PickerModel, TrainingData]:
    """Fit the normalizer and the k-regressor funnel on a training workload."""
    config = config or TrainingConfig()
    if not train_queries:
        raise ConfigError("training requires at least one query")

    data = compute_training_data(ptable, feature_builder, train_queries)
    normalizer = Normalizer(feature_builder.schema)
    stacked_x, data.normalized = normalizer.fit_transform(data.features)

    thresholds = exponential_thresholds(
        data.contributions, config.num_models, config.top_fraction
    )
    # Every regressor boosts on the same matrix: bin it once for all k.
    binned = bin_features(stacked_x, GBRTRegressor.num_bins)
    regressors: list[GBRTRegressor] = []
    for model_index, threshold in enumerate(thresholds):
        labels = np.concatenate(
            [
                labels_for_query(c, float(threshold))
                for c in data.contributions
            ]
        )
        regressor = GBRTRegressor(
            n_trees=config.gbrt_trees,
            max_depth=config.gbrt_depth,
            learning_rate=config.gbrt_learning_rate,
            colsample=config.gbrt_colsample,
            seed=config.seed + model_index,
        )
        regressor.fit_binned(binned, labels)
        regressors.append(regressor)

    model = PickerModel(
        feature_builder=feature_builder,
        normalizer=normalizer,
        regressors=regressors,
        thresholds=thresholds,
    )
    return model, data


def regressor_feature_importance_by_category(
    model: PickerModel,
) -> dict[str, float]:
    """Aggregate gain importance by feature category (paper Figure 5).

    Returns percentages over {selectivity, hh, dv, measure} summed across
    all funnel regressors.
    """
    schema = model.feature_builder.schema
    gains = np.zeros(schema.dimension, dtype=np.float64)
    for regressor in model.regressors:
        gains += regressor.feature_importances()
    out: dict[str, float] = {}
    total = gains.sum()
    for category in ("selectivity", "hh", "dv", "measure"):
        idx = schema.category_indices(category)
        share = float(gains[idx].sum() / total) if total > 0 else 0.0
        out[category] = 100.0 * share
    return out
