"""Oracle importance grouping (paper Appendix C.2, Figure 10 right).

Replaces PS3's trained regressors with an oracle of perfect precision and
recall: importance groups are formed directly from each query's *true*
partition contributions thresholded at the trained cutoffs. Everything
else — outliers, allocation, clustering — stays identical, so comparing
against the learned picker isolates model quality and upper-bounds the
benefit of importance-style sampling.
"""

from __future__ import annotations

import numpy as np

from repro.core.picker import PickerConfig, PS3Picker
from repro.core.training import PickerModel
from repro.engine.batch_executor import BatchExecutor
from repro.engine.query import Query
from repro.engine.table import PartitionedTable


class OraclePicker(PS3Picker):
    """PS3 with the learned funnel swapped for true contributions.

    This baseline cheats by executing the query on every partition to
    obtain contributions — it exists purely as an upper bound.
    """

    def __init__(
        self,
        model: PickerModel,
        ptable: PartitionedTable,
        config: PickerConfig | None = None,
    ) -> None:
        super().__init__(model, config)
        self.ptable = ptable

    def _group_inliers(
        self,
        query: Query,
        block: np.ndarray,
        inliers: np.ndarray,
        columns: np.ndarray,
    ) -> list[np.ndarray]:
        if not self.config.use_regressors:
            return [inliers]
        # The cheat: exact answers over every partition, read as arrays.
        executor = BatchExecutor.for_table(self.ptable)
        contributions = executor.partition_answers(query).contributions()
        groups: list[np.ndarray] = [inliers]
        for threshold in self.model.thresholds:
            tail = groups[-1]
            passing = tail[contributions[tail] > threshold]
            groups[-1] = tail[contributions[tail] <= threshold]
            groups.append(passing)
        return groups
