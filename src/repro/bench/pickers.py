"""The paper's experiments on the picker, as picker subclasses.

The picker (:class:`~repro.core.picker.PS3Picker`) runs one algorithm:
outliers, the regressor funnel, then KMeans in every group. Figure 4's
lesion study takes one component away (its factor analysis keeps one),
Table 6 clusters by hierarchical linkage instead and Table 7 scores
feature selection under it. Each variant overrides one step:

* :class:`NoOutliers` — no outlier partitions (``_outlier_candidates``);
* :class:`NoRegressors` — one importance group (``_group_inliers``);
* :class:`NoClustering` — every group sampled uniformly (``_clusters``);
* :class:`HACPicker` — ``linkage`` clusters in place of KMeans'
  (``_sample_within_group``), through the same exemplar step.

They compose by inheritance, the lesion listed before the picker it
changes: ``class OracleWithoutRegressors(NoRegressors, OraclePicker)``.
"""

from __future__ import annotations

import numpy as np

from repro.bench.hac import hac_sample
from repro.core.feature_selection import ClusteringErrorEvaluator
from repro.core.picker import PickerConfig, PS3Picker
from repro.core.training import PickerModel
from repro.engine.combiner import WeightedChoice
from repro.engine.query import Query


class NoOutliers(PS3Picker):
    """Figure 4's "w/o outlier": no partition is read as an outlier."""

    def _outlier_candidates(self, query: Query, passing: np.ndarray) -> np.ndarray:
        return np.empty(0, dtype=np.intp)


class NoRegressors(PS3Picker):
    """Figure 4's "w/o regressor": the inliers form one group."""

    def _group_inliers(self, query, block, inliers, columns) -> list[np.ndarray]:
        return [inliers]


class NoClustering(PS3Picker):
    """Figure 4's "w/o cluster": every group is sampled uniformly."""

    def _clusters(self, query: Query) -> bool:
        return False


class OutliersOnly(NoClustering, NoRegressors):
    """Figure 4's "+outlier" factor."""


class RegressorsOnly(NoClustering, NoOutliers):
    """Figure 4's "+regressor" factor."""


class ClusteringOnly(NoOutliers, NoRegressors):
    """Figure 4's "+cluster" factor, and Table 6's isolated clustering."""


class HACPicker(PS3Picker):
    """Table 6: groups clustered by ``linkage`` (:mod:`repro.bench.hac`)."""

    def __init__(
        self, model: PickerModel, linkage: str, config: PickerConfig | None = None
    ) -> None:
        super().__init__(model, config)
        self.linkage = linkage

    def _sample_within_group(
        self, block: np.ndarray | None, members: np.ndarray, budget: int
    ) -> list[WeightedChoice]:
        if block is None:
            return super()._sample_within_group(block, members, budget)
        return hac_sample(
            block, members, budget, self.linkage, self.config.exemplar, self._rng
        )


class HACClusteringOnly(HACPicker, ClusteringOnly):
    """Table 6's HAC rows: linkage clusters, no outliers, no funnel."""


class HACErrorEvaluator(ClusteringErrorEvaluator):
    """Table 7's HAC(ward) rows: exclusion sets scored on ward clusters."""

    def _sample(
        self, normalized: np.ndarray, passing: np.ndarray, budget: int
    ) -> list[WeightedChoice]:
        return hac_sample(normalized, passing, budget, "ward")
