"""KMeans clustering (k-means++ initialization + Lloyd iterations).

Used by PS3's sample-via-clustering component (paper section 4.2). The
paper found KMeans and ward-linkage HAC interchangeable (Table 6); both
are provided and benchmarked.

Assignment ties are ``argmin``'s: a point equidistant from several
centers joins the one with the lowest cluster index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError, NotFittedError


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", rows, rows)


def _pairwise_sq_dist(
    points: np.ndarray, norms: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Squared Euclidean distances, shape (n_points, n_centers).

    ``norms`` is ``_sq_norms(points)``: the points do not move between
    Lloyd iterations, so a fit computes it once.
    """
    cross = points @ centers.T
    return np.maximum(norms[:, None] + _sq_norms(centers) - 2.0 * cross, 0.0)


@dataclass
class KMeans:
    """Lloyd's algorithm with k-means++ seeding.

    ``n_clusters`` larger than the number of points degrades gracefully to
    one point per cluster.
    """

    n_clusters: int
    max_iter: int = 50
    tol: float = 1e-6
    seed: int = 0
    labels_: np.ndarray | None = field(default=None, repr=False)
    centers_: np.ndarray | None = field(default=None, repr=False)
    inertia_: float = field(default=np.inf, repr=False)

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ConfigError("n_clusters must be >= 1")

    def _init_centers(
        self, X: np.ndarray, norms: np.ndarray, k: int, rng
    ) -> np.ndarray:
        n = X.shape[0]
        centers = np.empty((k, X.shape[1]), dtype=np.float64)
        centers[0] = X[rng.integers(n)]
        closest = _pairwise_sq_dist(X, norms, centers[:1]).ravel()
        for i in range(1, k):
            total = closest.sum()
            if total <= 0.0:
                centers[i:] = X[rng.integers(n, size=k - i)]
                break
            # ``rng.choice(n, p=closest / total)``'s own inverse-CDF draw,
            # without its per-call validation of ``p``.
            cdf = (closest / total).cumsum()
            cdf /= cdf[-1]
            centers[i] = X[cdf.searchsorted(rng.random(), side="right")]
            dist = _pairwise_sq_dist(X, norms, centers[i : i + 1]).ravel()
            np.minimum(closest, dist, out=closest)
        return centers

    def fit(self, X: np.ndarray) -> KMeans:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ConfigError(f"bad input shape {X.shape}")
        k = min(self.n_clusters, X.shape[0])
        rng = np.random.default_rng(self.seed)
        norms = _sq_norms(X)
        centers = self._init_centers(X, norms, k, rng)
        # Assign, stop or move, repeat: every exit leaves ``labels`` the
        # assignment to the final ``centers``. Unchanged labels would
        # move no center, so that assignment is already the final one.
        labels, settled = np.full(X.shape[0], -1), False
        for moves in range(self.max_iter + 1):
            distances = _pairwise_sq_dist(X, norms, centers)
            previous, labels = labels, distances.argmin(axis=1)
            if settled or moves == self.max_iter or (previous == labels).all():
                break
            # Member means: one segment reduction over label-sorted rows.
            counts = np.bincount(labels, minlength=k)
            filled = counts > 0
            moved = np.empty_like(centers)
            moved[filled] = np.add.reduceat(
                X[labels.argsort(kind="stable")],
                (counts.cumsum() - counts)[filled],
                axis=0,
            ) / counts[filled, None]
            if not filled.all():  # re-seed empty clusters at the farthest point
                moved[~filled] = X[distances.min(axis=1).argmax()]
            settled = np.abs(moved - centers).max() <= self.tol
            centers = moved
        self.labels_ = labels
        self.centers_ = centers
        self.inertia_ = float(distances.min(axis=1).sum())
        return self

    def fit_predict(self, X: np.ndarray) -> np.ndarray:
        self.fit(X)
        assert self.labels_ is not None
        return self.labels_

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.centers_ is None:
            raise NotFittedError("KMeans.predict before fit")
        X = np.asarray(X, np.float64)
        return _pairwise_sq_dist(X, _sq_norms(X), self.centers_).argmin(axis=1)
