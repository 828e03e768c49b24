"""From-scratch machine-learning substrate.

The paper uses XGBoost regressors and sklearn clustering; neither is
available offline, so this package implements the required pieces:

* :class:`~repro.ml.gbrt.GBRTRegressor` — histogram-based gradient-boosted
  regression trees with squared loss, shrinkage, column subsampling, and
  per-split *gain* bookkeeping (the importance metric of paper Figure 5);
* :class:`~repro.ml.kmeans.KMeans` — projection-quantile seeds and at
  most two Lloyd passes, rng-free.

Table 6's hierarchical clustering is a benchmark variant, not part of the
picker: :mod:`repro.bench.hac`.
"""

from repro.ml.gbrt import GBRTRegressor
from repro.ml.kmeans import KMeans
from repro.ml.tree import RegressionTree

__all__ = ["GBRTRegressor", "KMeans", "RegressionTree"]
