"""Gradient-boosted regression trees (the XGBoost stand-in).

Squared-loss boosting with shrinkage over histogram trees
(:mod:`repro.ml.tree`). Feature values are quantile-binned once per
training matrix (:func:`bin_features`, shared by every regressor fitted
on it); prediction compares raw values against those bin edges through
the compiled forest and never bins. Column subsampling
decorrelates trees and keeps per-tree split search cheap at the feature
dimensions PS3 produces (hundreds).

``feature_importances()`` reports normalized per-feature split *gain*, the
metric paper Figure 5 uses ("the improvement in accuracy brought by a
feature to the branches it is on").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError, NotFittedError
from repro.ml.tree import BinnedMatrix, CompiledForest, RegressionTree, TreeBuilder


def _quantile_bin_edges(values: np.ndarray, num_bins: int) -> np.ndarray:
    """Interior bin edges (ascending, deduplicated) for one feature."""
    uniques = np.unique(values)
    if uniques.size <= 1:
        return np.empty(0, dtype=np.float64)
    if uniques.size <= num_bins:
        # Split exactly between consecutive distinct values.
        return (uniques[:-1] + uniques[1:]) / 2.0
    quantiles = np.linspace(0.0, 1.0, num_bins + 1)[1:-1]
    return np.unique(np.quantile(values, quantiles))


def bin_features(X: np.ndarray, num_bins: int) -> BinnedMatrix:
    """Quantile-bin a training matrix once, for every regressor fitted on it."""
    columns = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
    edges = [_quantile_bin_edges(column, num_bins) for column in columns]
    live = np.flatnonzero([column_edges.size for column_edges in edges])
    dtype = np.min_scalar_type(max(live.size * num_bins - 1, 0))
    codes = np.empty((columns.shape[1], live.size), dtype=dtype)
    for slot, j in enumerate(live):
        bins = np.searchsorted(edges[j], columns[j], side="left")
        codes[:, slot] = bins + slot * num_bins
    return BinnedMatrix(edges, live, codes, num_bins)


@dataclass
class GBRTRegressor:
    """Gradient-boosted trees for regression (squared loss).

    Parameters mirror the usual boosting knobs: ``n_trees`` rounds of
    shrinkage ``learning_rate``; trees capped at ``max_depth`` with at
    least ``min_samples_leaf`` rows per leaf; ``colsample`` fraction of
    features considered per tree; ``num_bins`` quantile histogram bins.
    """

    n_trees: int = 40
    max_depth: int = 3
    learning_rate: float = 0.3
    min_samples_leaf: int = 4
    colsample: float = 1.0
    num_bins: int = 64
    reg_lambda: float = 1.0
    seed: int = 0

    _trees: list[RegressionTree] = field(default_factory=list, repr=False)
    _bin_edges: list[np.ndarray] = field(default_factory=list, repr=False)
    _base: float = 0.0
    _num_features: int = 0
    #: derived from the fields above by ``fit`` / ``from_state``; never persisted
    _compiled: CompiledForest | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ConfigError("n_trees must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError("learning_rate must be in (0, 1]")
        if not 0.0 < self.colsample <= 1.0:
            raise ConfigError("colsample must be in (0, 1]")
        if self.num_bins < 2:
            raise ConfigError("num_bins must be >= 2")

    # -- fitting -------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> GBRTRegressor:
        if np.ndim(X) != 2:
            raise ConfigError(f"bad shapes X={np.shape(X)} y={np.shape(y)}")
        return self.fit_binned(bin_features(X, self.num_bins), y)

    def fit_binned(self, binned: BinnedMatrix, y: np.ndarray) -> GBRTRegressor:
        """Boost on a matrix :func:`bin_features` binned with ``num_bins``."""
        y = np.asarray(y, dtype=np.float64)
        n, d = binned.codes.shape[0], len(binned.edges)
        if y.shape != (n,) or binned.num_bins != self.num_bins:
            raise ConfigError(f"bad shapes rows={n} y={y.shape} bins={binned.num_bins}")
        self._num_features = d
        self._bin_edges = binned.edges
        rng = np.random.default_rng(self.seed)
        builder = TreeBuilder(self.max_depth, self.min_samples_leaf, self.reg_lambda)
        self._base = float(y.mean()) if n else 0.0
        prediction = np.full(n, self._base, dtype=np.float64)
        self._trees = []
        n_sub = max(1, int(round(self.colsample * d)))
        for __ in range(self.n_trees):
            gradients = prediction - y  # d/dpred of 0.5*(pred-y)^2
            if np.allclose(gradients, 0.0):
                break
            # Drawn over all d columns, so the draw does not depend on
            # which of them are live; the builder skips the dead ones.
            if n_sub < d:
                feature_ids = np.sort(rng.choice(d, size=n_sub, replace=False))
            else:
                feature_ids = np.arange(d)
            tree, step = builder.build(binned, gradients, feature_ids)
            if not np.any(step):
                break  # no split improved the loss; boosting has converged
            prediction += self.learning_rate * step
            self._trees.append(tree)
        return self._compile()

    def _compile(self) -> GBRTRegressor:
        self._compiled = CompiledForest.compile(
            self._trees, self._bin_edges, self._base, self.learning_rate
        )
        return self

    # -- inference -----------------------------------------------------------

    @property
    def fitted(self) -> bool:
        return self._num_features > 0

    def compiled_for(self, X: np.ndarray) -> CompiledForest:
        """The compiled inference table, after checking ``X`` fits it."""
        if not self.fitted:
            raise NotFittedError("GBRTRegressor.predict before fit")
        if X.ndim != 2 or X.shape[1] != self._num_features:
            raise ConfigError(
                f"expected shape (*, {self._num_features}), got {X.shape}"
            )
        return self._compiled

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return self.compiled_for(X).stage_scores(X)[0]

    def feature_importances(self) -> np.ndarray:
        """Normalized total split gain per feature (sums to 1 if any)."""
        if not self.fitted:
            raise NotFittedError("feature_importances before fit")
        gains = np.zeros(self._num_features, dtype=np.float64)
        for tree in self._trees:
            for feature, gain in tree.gain_by_feature.items():
                gains[feature] += gain
        total = gains.sum()
        return gains / total if total > 0 else gains

    @property
    def num_trees_fitted(self) -> int:
        return len(self._trees)

    # -- state (for persistence without pickle) --------------------------------

    def to_state(self) -> dict:
        """A JSON-safe dict capturing hyperparameters and fitted trees."""
        return {
            "params": {
                "n_trees": self.n_trees,
                "max_depth": self.max_depth,
                "learning_rate": self.learning_rate,
                "min_samples_leaf": self.min_samples_leaf,
                "colsample": self.colsample,
                "num_bins": self.num_bins,
                "reg_lambda": self.reg_lambda,
                "seed": self.seed,
            },
            "base": self._base,
            "num_features": self._num_features,
            "bin_edges": [edges.tolist() for edges in self._bin_edges],
            "trees": [
                {
                    "feature": tree.feature.tolist(),
                    "threshold": tree.threshold.tolist(),
                    "left": tree.left.tolist(),
                    "right": tree.right.tolist(),
                    "value": tree.value.tolist(),
                    "gain_by_feature": {
                        str(k): v for k, v in tree.gain_by_feature.items()
                    },
                }
                for tree in self._trees
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> GBRTRegressor:
        """Rebuild a fitted regressor from :meth:`to_state` output."""
        model = cls(**state["params"])
        model._base = float(state["base"])
        model._num_features = int(state["num_features"])
        model._bin_edges = [
            np.asarray(edges, dtype=np.float64) for edges in state["bin_edges"]
        ]
        model._trees = [
            RegressionTree(
                feature=np.asarray(tree["feature"], np.int32),
                threshold=np.asarray(tree["threshold"], np.int32),
                left=np.asarray(tree["left"], np.int32),
                right=np.asarray(tree["right"], np.int32),
                value=np.asarray(tree["value"], np.float64),
                gain_by_feature={
                    int(k): float(v) for k, v in tree["gain_by_feature"].items()
                },
            )
            for tree in state["trees"]
        ]
        return model._compile()
