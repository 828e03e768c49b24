"""KMeans clustering: projection-quantile seeds, then at most two Lloyd
passes (paper section 4.2's clustering; Table 6 finds it and ward HAC
interchangeable, and both are benchmarked). A fit draws no random number
and makes at most three assignment passes, whatever ``k``:

* **Seed.** The row farthest from the block's mean (within a relative
  ``SEED_RTOL``, the lowest row) gives a direction. The rows, ranked by
  their centered projection onto it, share a key while the gap to the
  previous projection is at most ``SEED_RTOL`` of the largest |projection|;
  the seeds are the lowest rows of the *distinct* keys, ranked, at the
  mid-quantiles ``(2i + 1) / 2k`` (all of them when there are fewer).
* **Refine.** Assign, then up to ``LLOYD_PASSES`` Lloyd passes (member
  means from one one-hot matmul), stopping early on unchanged labels.
* **Re-seed.** After every assignment an empty cluster is dropped (later
  ones shift down), and while fewer than k remain a new last cluster
  takes the row farthest from its own center, with every row strictly
  closer to that row than to its own. Exact differences, 0 on a row
  equal to its center, make that exactly ``min(k, distinct rows)``.

Assignment ties are ``argmin``'s: the lowest cluster index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError, NotFittedError

#: Relative gap within which seed distances and projections are equal.
SEED_RTOL = 1e-9
#: Lloyd passes after the first assignment.
LLOYD_PASSES = 2


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", rows, rows)


def _pairwise_sq_dist(
    points: np.ndarray, norms: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Squared distances, (n_points, n_centers); ``norms`` is
    ``_sq_norms(points)``, computed once per fit."""
    cross = points @ centers.T
    return np.maximum(norms[:, None] + _sq_norms(centers) - 2.0 * cross, 0.0)


def _seed_rows(X: np.ndarray, k: int) -> np.ndarray:
    """Rows of the k seeds, as the module docstring states."""
    centered = X - X.mean(axis=0)
    spread = _sq_norms(centered)
    farthest = int(np.argmax(spread >= spread.max() * (1.0 - SEED_RTOL)))
    projection = centered @ centered[farthest]
    order = np.argsort(projection, kind="stable")
    gaps = np.diff(projection[order]) > np.abs(projection).max() * SEED_RTOL
    keys = np.flatnonzero(np.concatenate(([True], gaps)))  # each key's first rank
    distinct = np.minimum.reduceat(order, keys)
    if distinct.size <= k:  # every distinct key is a mid-quantile
        return distinct
    return distinct[(2 * np.arange(k) + 1) * distinct.size // (2 * k)]


def _reseed(
    X: np.ndarray, labels: np.ndarray, centers: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """``labels`` and ``centers`` re-seeded as the module docstring states."""
    counts = np.bincount(labels, minlength=centers.shape[0])
    if counts.size == k and counts.all():
        return labels, centers
    own = _sq_norms(X - centers[labels])
    while True:
        filled = counts > 0
        centers, labels = centers[filled], (filled.cumsum() - 1)[labels]
        row = int(own.argmax())
        if centers.shape[0] == k or not own[row] > 0.0:  # NaN: no farther row
            return labels, centers
        near = _sq_norms(X - X[row])
        closer = near < own
        closer[row] = True  # even when an inf makes ``near[row]`` NaN
        labels[closer], own[closer] = centers.shape[0], near[closer]
        centers = np.vstack([centers, X[row]])
        counts = np.bincount(labels, minlength=centers.shape[0])


@dataclass
class KMeans:
    """Bounded, rng-free k-means (module docstring); ``n_clusters`` above
    the number of points gives one point per cluster."""

    n_clusters: int
    labels_: np.ndarray | None = field(default=None, init=False, repr=False)
    centers_: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ConfigError("n_clusters must be >= 1")

    def fit(self, X: np.ndarray) -> KMeans:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ConfigError(f"bad input shape {X.shape}")
        k = min(self.n_clusters, X.shape[0])
        norms = _sq_norms(X)
        centers, labels = X[_seed_rows(X, k)], None
        for moves in range(LLOYD_PASSES + 1):
            if moves:
                members = (labels[:, None] == np.arange(len(centers))).astype(float)
                centers = (members.T @ X) / np.bincount(labels)[:, None]
            previous = labels
            labels = _pairwise_sq_dist(X, norms, centers).argmin(axis=1)
            labels, centers = _reseed(X, labels, centers, k)
            if np.array_equal(previous, labels):
                break
        self.labels_ = labels
        self.centers_ = centers
        return self

    def fit_predict(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).labels_

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.centers_ is None:
            raise NotFittedError("KMeans.predict before fit")
        X = np.asarray(X, np.float64)
        return _pairwise_sq_dist(X, _sq_norms(X), self.centers_).argmin(axis=1)
