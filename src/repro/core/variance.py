"""Estimator variance analysis (paper Appendix D).

Provides the Horvitz–Thompson population variance the appendix derives for
Poisson (Bernoulli) sampling, the partition-vs-row decomposition (Eq. 3-5:
partition-level sampling adds a same-partition covariance term, so at
equal sampling fraction its variance dominates row-level sampling).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


def _check_probability(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ConfigError("inclusion probability must be in (0, 1]")


def ht_true_variance(values: np.ndarray, p: float) -> float:
    """Population variance of the HT total under Bernoulli(p) sampling.

    For independent inclusions, Var = sum_i (1/p - 1) y_i^2.
    """
    _check_probability(p)
    return float((1.0 / p - 1.0) * np.sum(np.square(values)))


def partition_vs_row_variance(
    row_values: np.ndarray, partition_ids: np.ndarray, p: float
) -> tuple[float, float, float]:
    """(row variance, partition variance, covariance term) — Eq. 5.

    ``row_values[t]`` is tuple t's contribution to the aggregate and
    ``partition_ids[t]`` its partition. The partition-level variance equals
    the row-level variance plus twice the same-partition cross terms:
    correlated rows inside a partition are what makes partition sampling
    noisier at equal fraction.
    """
    _check_probability(p)
    row_values = np.asarray(row_values, dtype=np.float64)
    partition_ids = np.asarray(partition_ids)
    factor = 1.0 / p - 1.0
    row_var = float(factor * np.sum(np.square(row_values)))
    partition_totals = np.array(
        [row_values[partition_ids == pid].sum() for pid in np.unique(partition_ids)]
    )
    part_var = float(factor * np.sum(np.square(partition_totals)))
    cross = part_var - row_var
    return row_var, part_var, cross
