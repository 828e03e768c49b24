"""Histogram-based regression trees (the GBRT base learner).

Features are pre-binned into quantile buckets (by the booster); the tree
greedily picks the (feature, bin) split maximizing the XGBoost-style gain
for squared loss with unit hessians:

    gain = GL^2/(nL + lambda) + GR^2/(nR + lambda) - G^2/(n + lambda)

where G are gradient sums. Histogram accumulation is one ``np.bincount``
over all (row, feature) pairs in the node, keeping the per-node python
overhead constant.

Trees store split thresholds in *bin index* space, which is what fitting
consumes. Inference runs on :class:`CompiledForest`, which translates each
split to a raw-value threshold once and lays all trees into one node table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError


@dataclass
class RegressionTree:
    """A fitted tree as flat parallel arrays (index 0 is the root).

    ``feature[i] == -1`` marks a leaf; ``value`` then holds the leaf
    weight. Internal nodes route rows with ``bin <= threshold`` left.
    """

    feature: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    threshold: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    left: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    right: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    value: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))
    #: accumulated split gain per feature (importance bookkeeping)
    gain_by_feature: dict[int, float] = field(default_factory=dict)

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
        """Evaluate the tree on pre-binned inputs, vectorized."""
        n = binned.shape[0]
        node = np.zeros(n, dtype=np.int32)
        out = np.zeros(n, dtype=np.float64)
        active = np.arange(n)
        while active.size:
            current = node[active]
            is_leaf = self.feature[current] < 0
            leaf_rows = active[is_leaf]
            out[leaf_rows] = self.value[current[is_leaf]]
            active = active[~is_leaf]
            if not active.size:
                break
            current = node[active]
            feats = self.feature[current]
            go_left = binned[active, feats] <= self.threshold[current]
            node[active] = np.where(
                go_left, self.left[current], self.right[current]
            )
        return out


@dataclass(frozen=True, eq=False)
class CompiledForest:
    """Inference form of one or more boosted regressors ("stages").

    Every tree sits in one flat node table. Splits hold raw-value
    thresholds, so inference never bins: ``bin(x) <= b`` iff
    ``x <= edges[b]``, because ``searchsorted(side="left")`` counts edges
    ``< x``. A ``b`` at or past the last edge sends every row left, NaN
    included (``right`` points at ``left``). Leaves self-loop, so all
    rows x trees step together for ``depth`` levels. Each stage opens with
    a single-leaf pseudo-tree holding its base score at scale 1, which
    makes a stage's score the strictly sequential ``base + lr*v0 + lr*v1
    + ...`` — bit-identical to the boosting loop's running prediction.
    """

    feature: np.ndarray  # column a node tests (0 at leaves, never decisive)
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray  # root node of each tree
    scale: np.ndarray  # per tree: 1 for a stage's base, else its learning rate
    stages: np.ndarray  # tree-index boundaries, one more than stages
    depth: int

    @classmethod
    def compile(
        cls,
        trees: list[RegressionTree],
        bin_edges: list[np.ndarray],
        base: float,
        learning_rate: float,
    ) -> CompiledForest:
        """One stage from a booster's trees, bin edges, base and shrinkage."""
        sizes = np.array([1] + [tree.feature.size for tree in trees])
        roots = np.cumsum(sizes) - sizes
        shift = np.repeat(roots, sizes)

        def table(name: str, head: float) -> np.ndarray:
            return np.concatenate([[head]] + [getattr(tree, name) for tree in trees])

        feature, bins = table("feature", -1), table("threshold", -1)
        leaf, ids = feature < 0, np.arange(feature.size)
        threshold = np.full(feature.size, np.nan)
        for node in np.flatnonzero(~leaf):
            edges = bin_edges[feature[node]]
            if bins[node] < edges.size:
                threshold[node] = edges[bins[node]]
        left, right = table("left", 0) + shift, table("right", 0) + shift
        right = np.where(np.isnan(threshold), left, right)
        left, right = np.where(leaf, ids, left), np.where(leaf, ids, right)
        depth, frontier = 0, roots
        while not leaf[frontier].all():
            if depth == feature.size:
                raise ConfigError("tree nodes form a cycle")
            depth += 1
            frontier = np.union1d(left[frontier], right[frontier])
        scale = np.full(roots.size, learning_rate)
        scale[0] = 1.0
        return cls(
            feature=np.where(leaf, 0, feature),
            threshold=threshold,
            left=left,
            right=right,
            value=table("value", base),
            roots=roots,
            scale=scale,
            stages=np.array([0, roots.size]),
            depth=depth,
        )

    @classmethod
    def fuse(cls, forests: list[CompiledForest]) -> CompiledForest:
        """Lay forests side by side in one table; stages keep their order."""
        node_start = np.cumsum([0] + [forest.value.size for forest in forests])
        tree_start = np.cumsum([0] + [forest.roots.size for forest in forests])

        def cat(name: str, starts: np.ndarray | None = None) -> np.ndarray:
            parts = [getattr(forest, name) for forest in forests]
            if starts is not None:
                parts = [part + start for part, start in zip(parts, starts)]
            return np.concatenate(parts)

        ends = [f.stages[1:] + start for f, start in zip(forests, tree_start)]
        return cls(
            feature=cat("feature"),
            threshold=cat("threshold"),
            left=cat("left", node_start),
            right=cat("right", node_start),
            value=cat("value"),
            roots=cat("roots", node_start),
            scale=cat("scale"),
            stages=np.concatenate([[0], *ends]),
            depth=max(forest.depth for forest in forests),
        )

    def stage_scores(
        self, matrix: np.ndarray, rows: np.ndarray | None = None
    ) -> list[np.ndarray]:
        """Score ``matrix[rows]`` (default: every row) against every stage."""
        X = matrix if rows is None else matrix.take(rows, axis=0)
        n, width = X.shape
        flat, row_start = X.ravel(), (np.arange(n) * width)[:, None]
        node = self.roots
        for __ in range(self.depth):
            x = flat.take(row_start + self.feature.take(node))
            node = np.where(
                x <= self.threshold.take(node),
                self.left.take(node),
                self.right.take(node),
            )
        steps = self.value.take(node) * self.scale
        steps = np.broadcast_to(steps, (n, self.roots.size))
        return [
            np.add.accumulate(steps[:, start:end], axis=1)[:, -1]
            for start, end in zip(self.stages, self.stages[1:])
        ]


@dataclass
class _NodeTask:
    node_id: int
    rows: np.ndarray
    depth: int
    grad_sum: float


class TreeBuilder:
    """Grows one tree on (binned features, gradients)."""

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_leaf: int = 4,
        reg_lambda: float = 1.0,
        min_gain: float = 1e-12,
    ) -> None:
        if max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ConfigError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.min_gain = min_gain

    def build(
        self,
        binned: np.ndarray,
        gradients: np.ndarray,
        feature_ids: np.ndarray,
        num_bins: int,
    ) -> RegressionTree:
        """Fit a tree predicting ``-gradients`` (negative-gradient step).

        ``feature_ids`` selects the candidate split features (column
        subsampling); ``binned`` is the full matrix so thresholds refer to
        global feature indices.
        """
        feature_col, threshold = [], []
        left, right, value = [], [], []
        gains: dict[int, float] = {}

        def new_node() -> int:
            feature_col.append(-1)
            threshold.append(-1)
            left.append(-1)
            right.append(-1)
            value.append(0.0)
            return len(feature_col) - 1

        root = new_node()
        stack = [_NodeTask(root, np.arange(binned.shape[0]), 0, float(gradients.sum()))]
        lam = self.reg_lambda
        while stack:
            task = stack.pop()
            rows = task.rows
            n = rows.size
            leaf_value = -task.grad_sum / (n + lam)
            if task.depth >= self.max_depth or n < 2 * self.min_samples_leaf:
                value[task.node_id] = leaf_value
                continue
            split = self._best_split(
                binned, gradients, rows, feature_ids, num_bins, task.grad_sum
            )
            if split is None:
                value[task.node_id] = leaf_value
                continue
            feat, bin_idx, gain = split
            gains[feat] = gains.get(feat, 0.0) + gain
            go_left = binned[rows, feat] <= bin_idx
            left_rows, right_rows = rows[go_left], rows[~go_left]
            feature_col[task.node_id] = feat
            threshold[task.node_id] = bin_idx
            left_id, right_id = new_node(), new_node()
            left[task.node_id] = left_id
            right[task.node_id] = right_id
            grad_left = float(gradients[left_rows].sum())
            stack.append(
                _NodeTask(left_id, left_rows, task.depth + 1, grad_left)
            )
            stack.append(
                _NodeTask(
                    right_id, right_rows, task.depth + 1, task.grad_sum - grad_left
                )
            )

        return RegressionTree(
            feature=np.asarray(feature_col, np.int32),
            threshold=np.asarray(threshold, np.int32),
            left=np.asarray(left, np.int32),
            right=np.asarray(right, np.int32),
            value=np.asarray(value, np.float64),
            gain_by_feature=gains,
        )

    def _best_split(
        self,
        binned: np.ndarray,
        gradients: np.ndarray,
        rows: np.ndarray,
        feature_ids: np.ndarray,
        num_bins: int,
        grad_sum: float,
    ) -> tuple[int, int, float] | None:
        """Best (feature, bin, gain) for a node, or None if nothing helps."""
        n = rows.size
        lam = self.reg_lambda
        sub = binned[np.ix_(rows, feature_ids)].astype(np.int64)
        offsets = np.arange(feature_ids.size, dtype=np.int64) * num_bins
        flat = (sub + offsets).ravel()
        weights = np.broadcast_to(
            gradients[rows][:, None], sub.shape
        ).ravel()
        size = feature_ids.size * num_bins
        grad_hist = np.bincount(flat, weights=weights, minlength=size)
        count_hist = np.bincount(flat, minlength=size)
        grad_hist = grad_hist.reshape(feature_ids.size, num_bins)
        count_hist = count_hist.reshape(feature_ids.size, num_bins)

        grad_left = np.cumsum(grad_hist, axis=1)[:, :-1]
        count_left = np.cumsum(count_hist, axis=1)[:, :-1]
        grad_right = grad_sum - grad_left
        count_right = n - count_left
        parent_score = grad_sum**2 / (n + lam)
        gain = (
            grad_left**2 / (count_left + lam)
            + grad_right**2 / (count_right + lam)
            - parent_score
        )
        valid = (count_left >= self.min_samples_leaf) & (
            count_right >= self.min_samples_leaf
        )
        gain = np.where(valid, gain, -np.inf)
        best = int(np.argmax(gain))
        best_feat_pos, best_bin = divmod(best, num_bins - 1)
        best_gain = float(gain[best_feat_pos, best_bin])
        if not np.isfinite(best_gain) or best_gain <= self.min_gain:
            return None
        return int(feature_ids[best_feat_pos]), int(best_bin), best_gain
