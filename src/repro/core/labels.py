"""Training-label generation (paper Algorithm 4, Appendix B.2).

The regressors are trained with *regression* targets rather than class
labels to handle per-query class imbalance: a query where one partition
matters weighs its positive example more than a query where a hundred
partitions matter. For threshold ``t``, query labels are

    y_j = +sqrt(c / P)        if contribution_j > t
    y_j = -sqrt(c / (n - P))  otherwise

with ``P`` the number of positives and ``c = 1``, so a model predicting
``> 0`` flags partitions that are likely above-threshold and per-query
label mass stays balanced.
"""

from __future__ import annotations

import numpy as np


def labels_for_query(contributions: np.ndarray, threshold: float) -> np.ndarray:
    """Scaled regression labels for one query at one contribution threshold.

    Degenerate queries (all partitions positive, or none) produce
    single-sided labels with the other side's scale collapsed to zero —
    they carry no ranking information but keep the matrix shapes aligned.
    """
    n = len(contributions)
    positive_mask = contributions > threshold
    positives = int(positive_mask.sum())
    out = np.zeros(n, dtype=np.float64)
    if positives:
        out[positive_mask] = np.sqrt(1.0 / positives)
    negatives = n - positives
    if negatives:
        out[~positive_mask] = -np.sqrt(1.0 / negatives)
    return out


def exponential_thresholds(
    contributions_per_query: list[np.ndarray],
    num_models: int,
    top_fraction: float = 0.01,
) -> np.ndarray:
    """Exponentially spaced contribution thresholds for the model funnel.

    The first model identifies any nonzero contribution (threshold 0); the
    last identifies the top ``top_fraction`` of partition contributions
    across the training pool; intermediate thresholds are placed so the
    passing fraction decays geometrically (paper section 4.3: partitions
    satisfying model i increase exponentially from those satisfying i+1).
    """
    pooled = np.concatenate(contributions_per_query)
    thresholds = np.zeros(num_models, dtype=np.float64)
    if num_models == 1:
        return thresholds
    nonzero_fraction = float((pooled > 0.0).mean())
    if nonzero_fraction <= 0.0:
        return thresholds
    start = max(nonzero_fraction, top_fraction)
    fractions = start * (top_fraction / start) ** (
        np.arange(num_models) / (num_models - 1)
    )
    for i, fraction in enumerate(fractions[1:], start=1):
        thresholds[i] = float(np.quantile(pooled, 1.0 - fraction))
    # Keep thresholds strictly non-decreasing even under heavy ties.
    return np.maximum.accumulate(thresholds)
