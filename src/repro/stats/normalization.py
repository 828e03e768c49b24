"""Feature normalization for clustering and learning (paper Appendix B.1).

Prior to clustering, summary statistics are normalized so no single
statistic dominates Euclidean distances:

1. a log transformation tames the skew of all statistics *except* the
   selectivity estimates — we use the signed ``log1p`` so negative measures
   (e.g. a negative column minimum) stay well-defined;
2. selectivity estimates, already in [0, 1], get a cube-root transformation;
3. every feature is scaled by its *average* absolute value over the
   training set (the average is more outlier-robust than the max). Test
   queries reuse the training averages.

Each step is elementwise, so any block of feature columns normalizes on
its own, bit for bit as inside the full matrix: the picker normalizes
the static block once per statistics generation and, per pick, only the
query's five selectivity columns (:meth:`Normalizer.transform` with
``live`` naming the block's features).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import NotFittedError
from repro.stats.features import FeatureSchema


def _transform(matrix: np.ndarray, selectivity: slice) -> np.ndarray:
    out = np.sign(matrix) * np.log1p(np.abs(matrix))
    sel = matrix[:, selectivity]
    out[:, selectivity] = np.cbrt(sel)
    return out


@dataclass
class Normalizer:
    """Fit on training feature matrices; transform any feature matrix."""

    schema: FeatureSchema
    scale: np.ndarray | None = field(default=None)

    def fit(self, matrices: list[np.ndarray]) -> Normalizer:
        """Learn per-feature scales from the training queries' matrices."""
        self.fit_transform(matrices)
        return self

    @property
    def fitted(self) -> bool:
        return self.scale is not None

    def transform(
        self, block: np.ndarray, live: np.ndarray | None = None
    ) -> np.ndarray:
        """Apply log/cbrt transforms and training-average scaling.

        ``live`` (ascending) names the feature each column of ``block``
        holds — a query's live columns, a selectivity block's slots, the
        static block's prefix — and the result has ``block``'s shape;
        ``None`` means ``block`` is a full-width feature matrix. The
        transform is elementwise, so each column is bit for bit what it
        is in a full-width transform.
        """
        if self.scale is None:
            raise NotFittedError("Normalizer.transform called before fit")
        selectivity = self.schema.selectivity_slice()
        if live is None:
            return _transform(block, selectivity) / self.scale
        slots = np.searchsorted(live, (selectivity.start, selectivity.stop))
        return _transform(block, slice(*slots)) / self.scale[live]

    def fit_transform(
        self, matrices: list[np.ndarray]
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Fit, then the normalized stack and each matrix's rows of it (views).

        The stack is transformed once, for the scales and the result
        alike; the transform is elementwise, so every row is bit for bit
        what :meth:`transform` returns for it.
        """
        block = _transform(np.vstack(matrices), self.schema.selectivity_slice())
        averages = np.abs(block).mean(axis=0)
        averages[averages == 0.0] = 1.0  # constant-zero features pass through
        self.scale = averages
        block /= averages
        bounds = np.cumsum([0] + [len(matrix) for matrix in matrices])
        return block, [block[a:b] for a, b in zip(bounds, bounds[1:])]
