"""Hierarchical agglomerative clustering via Lance–Williams updates.

Table 6's alternative to the picker's KMeans (section 5.5.5), a
benchmark variant only. Supports the linkages the paper evaluates:
``single`` (minimum inter-point distance — the one that performs poorly
in Table 6), ``ward`` (variance-minimizing), plus ``complete`` and
``average`` for completeness. Naive O(n^2) memory / O(n^2 log n)-ish
time, ample for partition counts in the hundreds-to-thousands.
:func:`hac_sample` is :func:`~repro.core.cluster_sampler.cluster_sample`
with these clusters in place of KMeans'.
"""

from __future__ import annotations

import numpy as np

from repro.core.cluster_sampler import candidate_block, weighted_exemplars
from repro.engine.combiner import WeightedChoice
from repro.errors import ConfigError

_LINKAGES = ("single", "complete", "average", "ward")


def _initial_distances(X: np.ndarray, linkage: str) -> np.ndarray:
    diff = X[:, None, :] - X[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    if linkage == "ward":
        # Ward works on squared Euclidean distances internally.
        return sq
    return np.sqrt(sq)


def _merge_distance(
    linkage: str,
    d_im: np.ndarray,
    d_jm: np.ndarray,
    d_ij: float,
    size_i: int,
    size_j: int,
    sizes_m: np.ndarray,
) -> np.ndarray:
    """Lance–Williams distance from the merged cluster (i u j) to others."""
    if linkage == "single":
        return np.minimum(d_im, d_jm)
    if linkage == "complete":
        return np.maximum(d_im, d_jm)
    if linkage == "average":
        return (size_i * d_im + size_j * d_jm) / (size_i + size_j)
    # ward (on squared distances)
    total = size_i + size_j + sizes_m
    return (
        (size_i + sizes_m) * d_im + (size_j + sizes_m) * d_jm - sizes_m * d_ij
    ) / total


def agglomerative(X: np.ndarray, n_clusters: int, linkage: str = "ward") -> np.ndarray:
    """Cluster rows of ``X`` into ``n_clusters``; returns integer labels.

    Labels are contiguous ``0..k-1`` in order of first appearance.
    """
    if linkage not in _LINKAGES:
        raise ConfigError(f"linkage must be one of {_LINKAGES}, got {linkage!r}")
    if n_clusters < 1:
        raise ConfigError("n_clusters must be >= 1")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ConfigError(f"bad input shape {X.shape}")
    n = X.shape[0]
    k = min(n_clusters, n)
    if k == n:
        return np.arange(n, dtype=np.intp)

    distances = _initial_distances(X, linkage)
    np.fill_diagonal(distances, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    # members[i] lists the original points currently in cluster slot i.
    members: list[list[int] | None] = [[i] for i in range(n)]

    for __ in range(n - k):
        flat = int(np.argmin(distances))
        i, j = divmod(flat, n)
        if i > j:
            i, j = j, i
        d_ij = float(distances[i, j])
        others = active.copy()
        others[i] = others[j] = False
        idx = np.flatnonzero(others)
        merged = _merge_distance(
            linkage,
            distances[i, idx],
            distances[j, idx],
            d_ij,
            int(sizes[i]),
            int(sizes[j]),
            sizes[idx],
        )
        distances[i, idx] = merged
        distances[idx, i] = merged
        distances[j, :] = np.inf
        distances[:, j] = np.inf
        distances[i, i] = np.inf
        sizes[i] += sizes[j]
        active[j] = False
        assert members[i] is not None and members[j] is not None
        members[i].extend(members[j])  # type: ignore[union-attr]
        members[j] = None

    labels = np.empty(n, dtype=np.intp)
    next_label = 0
    for slot in range(n):
        if active[slot]:
            for point in members[slot]:  # type: ignore[union-attr]
                labels[point] = next_label
            next_label += 1
    return labels


def hac_sample(
    matrix: np.ndarray,
    candidates: np.ndarray,
    budget: int,
    linkage: str,
    exemplar: str = "median",
    rng: np.random.Generator | None = None,
) -> list[WeightedChoice]:
    """``budget`` weighted partitions from ``candidates``: ``linkage``
    clusters, then the picker's exemplar step."""
    candidates = np.asarray(candidates, dtype=np.intp)
    if budget <= 0 or candidates.size == 0:
        return []
    if budget >= candidates.size:
        return [WeightedChoice(int(p), 1.0) for p in candidates]
    block = candidate_block(matrix, candidates)
    labels = agglomerative(block, budget, linkage)
    return weighted_exemplars(block, candidates, labels, exemplar, rng)
