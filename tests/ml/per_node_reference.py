"""The per-node histogram tree builder PR 21 replaced, kept as the oracle.

``PerNodeTreeBuilder`` below is ``repro.ml.tree.TreeBuilder`` as it stood at
PR 21's parent, moved here verbatim: a right-first depth-first stack of
``_NodeTask`` s, one ``_best_split`` (a fancy-indexed copy of the node's
rows x candidate features and two ``bincount`` s) per node. The
production builder grows a tree level by level over precomputed codes
and must reproduce these arrays bit for bit
(``test_tree_levelwise.py``; ``as_binned_matrix`` feeds it the same
bins). ``bin_matrix`` and ``predict_binned`` are the fit-time binning
and tree walk the compiled forest replaced (``test_gbrt_compiled.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.ml.tree import BinnedMatrix, RegressionTree


def as_binned_matrix(
    binned: np.ndarray, num_bins: int, live: np.ndarray | None = None
) -> BinnedMatrix:
    """What ``bin_features`` would hand the builder for an already-binned matrix.

    ``live`` defaults to the columns occupying more than one bin; any
    ascending superset of them is as valid (a one-bin column cannot split).
    """
    if live is None:
        live = np.flatnonzero((binned != binned[:1]).any(axis=0))
    live = np.asarray(live, dtype=np.intp)
    edges = [
        np.arange(num_bins - 1) + 0.5 if j in live else np.empty(0)
        for j in range(binned.shape[1])
    ]
    codes = binned[:, live].astype(np.int64) + np.arange(live.size) * num_bins
    dtype = np.min_scalar_type(max(live.size * num_bins - 1, 0))
    return BinnedMatrix(edges, live, codes.astype(dtype), num_bins)


def bin_matrix(bin_edges: list[np.ndarray], X: np.ndarray) -> np.ndarray:
    """``X`` in bin-index space: column j counts the edges below each value."""
    binned = np.zeros(X.shape, dtype=np.int32)
    for j, edges in enumerate(bin_edges):
        if edges.size:
            binned[:, j] = np.searchsorted(edges, X[:, j], side="left")
    return binned


def predict_binned(tree: RegressionTree, binned: np.ndarray) -> np.ndarray:
    """Evaluate the tree on pre-binned inputs, vectorized."""
    n = binned.shape[0]
    node = np.zeros(n, dtype=np.int32)
    out = np.zeros(n, dtype=np.float64)
    active = np.arange(n)
    while active.size:
        current = node[active]
        is_leaf = tree.feature[current] < 0
        leaf_rows = active[is_leaf]
        out[leaf_rows] = tree.value[current[is_leaf]]
        active = active[~is_leaf]
        if not active.size:
            break
        current = node[active]
        feats = tree.feature[current]
        go_left = binned[active, feats] <= tree.threshold[current]
        node[active] = np.where(go_left, tree.left[current], tree.right[current])
    return out


@dataclass
class _NodeTask:
    node_id: int
    rows: np.ndarray
    depth: int
    grad_sum: float


class PerNodeTreeBuilder:
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
