"""Histogram-based regression trees (the GBRT base learner).

Features are pre-binned into quantile buckets (by the booster); the tree
greedily picks the (feature, bin) split maximizing the XGBoost-style gain
for squared loss with unit hessians:

    gain = GL^2/(nL + lambda) + GR^2/(nR + lambda) - G^2/(n + lambda)

where G are gradient sums. A tree grows level by level: one gradient and
one count ``np.bincount`` over all (row, feature) pairs, keyed (node,
feature, bin) on codes the booster computes once per training matrix.

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


@dataclass(frozen=True, eq=False)
class BinnedMatrix:
    """A training matrix in bin space, built once and shared by every tree.

    ``edges[j]`` are column j's interior bin edges. ``live`` lists,
    ascending, the columns with at least one edge; the rest sit in a
    single bin and can never split. ``codes[i, s]`` is
    ``bin(X[i, live[s]]) + s * num_bins``: a cell of the flat
    ``(live column, bin)`` histogram.
    """

    edges: list[np.ndarray]
    live: np.ndarray
    codes: np.ndarray
    num_bins: int


@dataclass
class _Node:
    rows: np.ndarray  # ascending
    grad_sum: float
    split: tuple[int, int, float] | None = None  # (feature, bin, gain)
    child: int = -1  # the left child; the right one follows it


class TreeBuilder:
    """Grows one tree on (binned features, gradients), level by level."""

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
        self, binned: BinnedMatrix, gradients: np.ndarray, feature_ids: np.ndarray
    ) -> tuple[RegressionTree, np.ndarray]:
        """Fit a tree predicting ``-gradients`` (negative-gradient step).

        Returns the tree and its value at every training row.
        ``feature_ids`` (ascending) selects the candidate split features
        (column subsampling); those outside ``binned.live`` are skipped.
        Each depth level costs one gradient and one count ``bincount``
        keyed (node, live column, bin) over rows x candidates. Rows stay
        ascending within a node, so a histogram cell sums in the order a
        per-node histogram would.
        """
        num_bins, min_rows = binned.num_bins, 2 * self.min_samples_leaf
        slots = np.flatnonzero(np.isin(binned.live, feature_ids))
        codes = binned.codes.take(slots, axis=1)
        weights = np.repeat(gradients, slots.size)
        width = binned.live.size * num_bins
        nodes = [_Node(np.arange(gradients.size), float(gradients.sum()))]
        # Each row's histogram in the level's bincount: its node's, or one
        # spare past the last for rows of nodes that have stopped growing.
        home = np.empty(gradients.size, np.intp)
        frontier = nodes[:1] if slots.size else []
        for __ in range(self.max_depth):
            level = [node for node in frontier if node.rows.size >= min_rows]
            if not level:
                break
            home[:] = len(level) * width
            for place, node in enumerate(level):
                home[node.rows] = place * width
            keys = (codes + home[:, None]).ravel()
            shape = (len(level) + 1, binned.live.size, num_bins)
            grad_hist, count_hist = (
                np.bincount(keys, weights=w, minlength=shape[0] * width)
                .reshape(shape)[:-1]
                .take(slots, axis=1)
                for w in (weights, None)
            )
            found = self._best_splits(level, grad_hist, count_hist)
            frontier = []
            for node, (position, bin_idx, gain) in zip(level, found):
                if position < 0:
                    continue
                slot = int(slots[position])
                go_left = codes[node.rows, position] <= bin_idx + slot * num_bins
                left_rows, right_rows = node.rows[go_left], node.rows[~go_left]
                grad_left = float(gradients[left_rows].sum())
                node.split = (int(binned.live[slot]), bin_idx, gain)
                node.child = len(nodes)
                nodes += [
                    _Node(left_rows, grad_left),
                    _Node(right_rows, node.grad_sum - grad_left),
                ]
                frontier += nodes[-2:]

        # Emit in the id order of a right-first depth-first walk that
        # numbers both children when it visits their parent.
        size = len(nodes)
        feature, threshold = np.full(size, -1, np.int32), np.full(size, -1, np.int32)
        left, right = np.full(size, -1, np.int32), np.full(size, -1, np.int32)
        value, step = np.zeros(size), np.zeros(gradients.size)
        gains: dict[int, float] = {}
        stack, issued = [(nodes[0], 0)], 1
        while stack:
            node, node_id = stack.pop()
            if node.split is None:
                value[node_id] = -node.grad_sum / (node.rows.size + self.reg_lambda)
                step[node.rows] = value[node_id]
                continue
            feat, threshold[node_id], gain = node.split
            feature[node_id] = feat
            gains[feat] = gains.get(feat, 0.0) + gain
            left[node_id], right[node_id] = issued, issued + 1
            stack += [(nodes[node.child], issued), (nodes[node.child + 1], issued + 1)]
            issued += 2
        return RegressionTree(feature, threshold, left, right, value, gains), step

    def _best_splits(
        self, level: list[_Node], grad_hist: np.ndarray, count_hist: np.ndarray
    ) -> list[tuple[int, int, float]]:
        """Best (column, bin, gain) per node, column -1 if no split helps, read
        off the level's (node, candidate column, bin) histograms."""
        lam, per_node = self.reg_lambda, (len(level), 1, 1)
        sizes = [node.rows.size for node in level]
        grad_sums = [node.grad_sum for node in level]
        grad_left = np.cumsum(grad_hist, axis=2)[:, :, :-1]
        count_left = np.cumsum(count_hist, axis=2)[:, :, :-1]
        grad_right = np.reshape(grad_sums, per_node) - grad_left
        count_right = np.reshape(sizes, per_node) - count_left
        parent_score = [g**2 / (n + lam) for g, n in zip(grad_sums, sizes)]
        gain = (
            grad_left**2 / (count_left + lam)
            + grad_right**2 / (count_right + lam)
            - np.reshape(parent_score, per_node)
        )
        valid = (count_left >= self.min_samples_leaf) & (
            count_right >= self.min_samples_leaf
        )
        gain = np.where(valid, gain, -np.inf).reshape(len(level), -1)
        found = []
        for node_gain in gain:
            best = int(np.argmax(node_gain))
            best_gain = float(node_gain[best])
            if not np.isfinite(best_gain) or best_gain <= self.min_gain:
                found.append((-1, -1, 0.0))
            else:
                found.append((*divmod(best, grad_hist.shape[2] - 1), best_gain))
        return found
