"""Sample selection via clustering (paper section 4.2).

Given a sampling budget of ``n`` partitions, cluster the candidates'
(normalized, query-masked) feature vectors into ``n`` clusters and pick
one exemplar per cluster, weighted by the cluster's size. Clusters play
the role of strata: redundancy between near-identical partitions collapses
into a single read.

Two exemplar rules are provided (Appendix D.1):

* ``median`` — the partition whose feature vector is closest to the
  cluster's element-wise median; deterministic, biased, and empirically
  better at small budgets (the paper's default);
* ``random`` — a uniformly random cluster member, which unbiases the
  estimator at the cost of variance.

The picker clusters in the query's *live subspace* — the columns the
section 3.2 mask left live (``QueryFeatures.live_columns``); the others
are zero for every partition and move a distance by rounding at most.
Two rules keep the selection a function of the points alone, whatever
the block's width or column order:

* **Ties.** A cluster of one or two members yields its lowest partition
  id (two members are equidistant from their midpoint by construction).
  In a larger one, members whose distance to the median is within a
  relative ``1e-12`` of the smallest tie, and the lowest partition id
  wins. KMeans seeds tie within a relative ``1e-9``: of rows that far
  from the mean, the lowest candidate position gives the direction, and
  ranked projections share a key while each is within ``1e-9`` of the
  largest |projection| of the one before; a key's lowest row seeds, and
  no key seeds twice. (Its assignment ties are ``argmin``'s.)
* **Non-finite features.** One NaN in a numeric column gives a partition
  NaN / ±inf measure statistics. Non-finite entries of the candidates'
  block are replaced by ``0.0``, the value a masked statistic has, so
  the partition clusters by its remaining features instead of turning
  every distance into NaN.
"""

from __future__ import annotations

import numpy as np

from repro.engine.combiner import WeightedChoice
from repro.errors import ConfigError
from repro.ml.kmeans import KMeans

#: Exemplar distances within this relative gap of the smallest are a tie.
TIE_RTOL = 1e-12


def _cluster_labels(matrix: np.ndarray, n_clusters: int) -> np.ndarray:
    if n_clusters == 1:  # one stratum: nothing to seed, merge or iterate
        return np.zeros(matrix.shape[0], dtype=np.intp)
    return KMeans(n_clusters).fit_predict(matrix)


def _median_exemplar(cluster: np.ndarray, partitions: np.ndarray) -> int:
    """Of ``partitions``, the one whose row of ``cluster`` is closest (L2)
    to the element-wise median; ties as the module docstring states."""
    size = partitions.size
    if size > 2:
        ranked = np.sort(cluster, axis=0)
        half = size >> 1
        if size & 1:
            median = ranked[half]
        else:
            median = (ranked[half - 1] + ranked[half]) / 2.0
        gap = cluster - median
        distances = np.sqrt(np.einsum("ij,ij->i", gap, gap))
        partitions = partitions[distances <= distances.min() * (1.0 + TIE_RTOL)]
    return int(partitions.min())


def candidate_block(matrix: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """The candidates' rows of ``matrix``, non-finite entries ``0.0``
    (module doc): the block their clusters are formed on."""
    sub = matrix[candidates]
    finite = np.isfinite(sub)
    return sub if finite.all() else np.where(finite, sub, 0.0)


def weighted_exemplars(
    block: np.ndarray,
    candidates: np.ndarray,
    labels: np.ndarray,
    exemplar: str,
    rng: np.random.Generator | None,
) -> list[WeightedChoice]:
    """One exemplar per cluster of ``labels``, weighted by its size.

    Row ``i`` of ``block`` (from :func:`candidate_block`) and label ``i``
    belong to ``candidates[i]``; clusters are visited in ascending label
    order. ``exemplar`` is ``median`` (deterministic, biased) or
    ``random`` (unbiased, one draw from ``rng`` per cluster).
    """
    if exemplar not in ("median", "random"):
        raise ConfigError("exemplar must be 'median' or 'random'")
    if exemplar == "random" and rng is None:
        raise ConfigError("the random exemplar draws from an rng; pass rng=")
    # Members of each cluster, ascending cluster id, in candidate order.
    by_cluster = np.argsort(labels, kind="stable")
    selection: list[WeightedChoice] = []
    start = 0
    for stop in np.cumsum(np.bincount(labels)).tolist():
        if stop == start:
            continue
        members = by_cluster[start:stop]
        start = stop
        if exemplar == "median":
            chosen = _median_exemplar(block[members], candidates[members])
        else:
            chosen = int(candidates[members[int(rng.integers(members.size))]])
        selection.append(WeightedChoice(chosen, float(members.size)))
    return selection


def cluster_sample(
    matrix: np.ndarray,
    candidates: np.ndarray,
    budget: int,
    exemplar: str = "median",
    rng: np.random.Generator | None = None,
) -> list[WeightedChoice]:
    """Select ``budget`` weighted partitions from ``candidates``: KMeans
    clusters, then :func:`weighted_exemplars`.

    Parameters
    ----------
    matrix:
        Normalized feature block indexed by partition id — from the
        picker, only the query's live clustering columns.
    candidates:
        Partition ids eligible for selection.
    budget:
        Number of partitions to return (clusters to form).
    exemplar, rng:
        As :func:`weighted_exemplars` takes them.
    """
    candidates = np.asarray(candidates, dtype=np.intp)
    if budget <= 0 or candidates.size == 0:
        return []
    if budget >= candidates.size:
        return [WeightedChoice(int(p), 1.0) for p in candidates]
    block = candidate_block(matrix, candidates)
    labels = _cluster_labels(block, budget)
    return weighted_exemplars(block, candidates, labels, exemplar, rng)


def random_sample(
    candidates: np.ndarray,
    budget: int,
    rng: np.random.Generator,
) -> list[WeightedChoice]:
    """Uniform fallback: sample without replacement, scale by N/n.

    The picker's choice for predicates with more than 10 clauses, whose
    per-partition features are unrepresentative (Appendix B.1's failure
    case).
    """
    candidates = np.asarray(candidates, dtype=np.intp)
    if budget <= 0 or candidates.size == 0:
        return []
    if budget >= candidates.size:
        return [WeightedChoice(int(p), 1.0) for p in candidates]
    chosen = rng.choice(candidates, size=budget, replace=False)
    weight = candidates.size / budget
    return [WeightedChoice(int(p), weight) for p in chosen]
