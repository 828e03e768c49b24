"""Unit tests for the from-scratch KMeans: clustering, the bounded
rng-free fit, and the number of clusters a fit forms."""

import threading

import numpy as np
import pytest

import repro.ml.kmeans as kmeans_module
from repro.errors import ConfigError, NotFittedError
from repro.ml.kmeans import KMeans


@pytest.fixture
def three_blobs():
    rng = np.random.default_rng(0)
    return np.vstack(
        [
            rng.normal((0, 0), 0.2, (40, 2)),
            rng.normal((8, 0), 0.2, (40, 2)),
            rng.normal((0, 8), 0.2, (40, 2)),
        ]
    )


class TestClustering:
    def test_recovers_separated_blobs(self, three_blobs):
        labels = KMeans(3).fit_predict(three_blobs)
        # Each blob maps to a single cluster.
        for start in (0, 40, 80):
            block = labels[start : start + 40]
            assert len(np.unique(block)) == 1
        assert len(np.unique(labels)) == 3

    def test_inertia_decreases_with_k(self, three_blobs):
        inertias = []
        for k in (1, 2, 3):
            model = KMeans(k).fit(three_blobs)
            gap = three_blobs - model.centers_[model.labels_]
            inertias.append(float((gap * gap).sum()))
        assert inertias[0] > inertias[1] > inertias[2]

    def test_k_at_least_points_gives_singletons(self):
        points = np.arange(5, dtype=float).reshape(-1, 1) * 10
        labels = KMeans(10).fit_predict(points)
        assert len(np.unique(labels)) == 5

    def test_duplicate_points_handled(self):
        points = np.zeros((20, 3))
        labels = KMeans(4).fit_predict(points)
        assert labels.shape == (20,)

    def test_deterministic_without_a_seed(self, three_blobs, monkeypatch):
        a = KMeans(3).fit_predict(three_blobs)

        def no_rng(*args, **kwargs):
            raise AssertionError("a fit drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        b = KMeans(3).fit_predict(three_blobs.copy())
        np.testing.assert_array_equal(a, b)

    def test_predict_assigns_nearest_center(self, three_blobs):
        model = KMeans(3).fit(three_blobs)
        label_of_origin = model.predict(np.array([[0.0, 0.0]]))[0]
        assert label_of_origin == model.labels_[0]

    def test_labels_are_the_nearest_centers(self, three_blobs):
        model = KMeans(3).fit(three_blobs)
        gap = three_blobs[:, None, :] - model.centers_[None, :, :]
        nearest = np.einsum("ijk,ijk->ij", gap, gap).argmin(axis=1)
        np.testing.assert_array_equal(model.labels_, nearest)


def duplicate_heavy(seed, rows, prototypes, width):
    """``rows`` rows drawn with repetition from ``prototypes`` distinct
    points, some of them equal in every column but one."""
    rng = np.random.default_rng(seed)
    points = rng.normal(0.0, 1.0, (prototypes, width))
    points[1::3, 1:] = points[0, 1:]  # near-duplicates of prototype 0
    return points[rng.integers(prototypes, size=rows)]


def distinct_rows(X):
    return np.unique(X, axis=0).shape[0]


class TestClusterCount:
    """A fit forms exactly ``min(k, distinct rows)`` non-empty clusters:
    the picker spends its whole budget whenever the candidates allow."""

    @pytest.mark.parametrize("seed", range(12))
    def test_duplicate_heavy_blocks(self, seed):
        rng = np.random.default_rng(100 + seed)
        rows, width = int(rng.integers(6, 140)), int(rng.integers(1, 9))
        X = duplicate_heavy(seed, rows, int(rng.integers(1, 30)), width)
        for k in (1, 2, 3, 4, 6, 9, 15, 40):
            labels = KMeans(k).fit_predict(X)
            assert np.unique(labels).size == min(k, distinct_rows(X)), k

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_tied_in_projection(self, seed):
        # The far group sets the seed direction along column 0; the other
        # rows differ only across it, so they share one projection key and
        # at most two seeds are distinct: the re-seed forms the rest.
        rng = np.random.default_rng(seed)
        spokes = rng.normal(0.0, 1.0, (int(rng.integers(2, 12)), 3))
        fan = np.zeros((2 * spokes.shape[0], 4))
        fan[:, 1:] = np.vstack([spokes, -spokes])
        far = np.zeros((int(rng.integers(1, 4)), 4))
        far[:, 0] = 50.0
        X = np.vstack([fan, far])[rng.permutation(fan.shape[0] + far.shape[0])]
        for k in range(2, X.shape[0] + 2):
            labels = KMeans(k).fit_predict(X)
            assert np.unique(labels).size == min(k, distinct_rows(X)), k

    def test_blobs_at_every_k(self, three_blobs):
        for k in range(1, 25):
            assert np.unique(KMeans(k).fit_predict(three_blobs)).size == k

    def test_identical_rows_form_one_cluster(self):
        assert np.unique(KMeans(5).fit_predict(np.ones((9, 4)))).size == 1


class TestBoundedWork:
    """At most three assignment passes per fit, for any k: counted by a
    spy on ``_pairwise_sq_dist``, not timed."""

    @pytest.mark.parametrize("k", [1, 2, 4, 6, 11, 30, 125])
    def test_at_most_three_assignment_passes(self, k, monkeypatch):
        calls = []
        distances = kmeans_module._pairwise_sq_dist

        def counting(points, norms, centers):
            calls.append(centers.shape[0])
            return distances(points, norms, centers)

        monkeypatch.setattr(kmeans_module, "_pairwise_sq_dist", counting)
        rng = np.random.default_rng(k)
        for fit in range(20):
            X = rng.normal(0.0, 1.0, (125, 12)) * rng.uniform(0.1, 5.0, 12)
            del calls[:]
            KMeans(k).fit(X)
            assert 1 <= len(calls) <= 1 + kmeans_module.LLOYD_PASSES == 3, fit
            assert set(calls) == {k}


class TestValidation:
    def test_bad_k(self):
        with pytest.raises(ConfigError):
            KMeans(0)

    def test_empty_input(self):
        with pytest.raises(ConfigError):
            KMeans(2).fit(np.empty((0, 3)))

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            KMeans(2).predict(np.zeros((1, 2)))

    def test_non_finite_rows_end_the_fit(self):
        # ``cluster_sample`` clears non-finite entries first; a direct fit
        # on NaN / inf rows must still end, though a row's distance to
        # itself is then NaN and the re-seed can gain nothing from it.
        rng = np.random.default_rng(0)
        poison = [np.nan, np.inf, -np.inf]
        fits = []

        def fit_all():
            for __ in range(200):
                X = rng.normal(0.0, 1.0, (int(rng.integers(3, 30)), 3))
                rows = rng.integers(X.shape[0], size=2)
                X[rows, rng.integers(3, size=2)] = rng.choice(poison, size=2)
                with np.errstate(all="ignore"):
                    fits.append(KMeans(int(rng.integers(2, 8))).fit_predict(X))

        worker = threading.Thread(target=fit_all, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and len(fits) == 200
