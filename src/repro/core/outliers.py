"""Outlier-partition identification (paper section 4.4).

Partitions containing a *rare distribution of groups* are poor clustering
citizens and precious for GROUP BY accuracy, so PS3 evaluates them exactly
(weight 1) out of a reserved slice of the budget. Rarity is judged on the
heavy-hitter occurrence bitmaps of the query's grouping columns: group
partitions by identical bitmap signature; a signature group is outlying if
it is small both absolutely (< 10 partitions) and relatively (< 10% of the
largest signature group).
"""

from __future__ import annotations

import numpy as np

from repro.sketches.builder import DatasetStatistics

#: Section 4.4's thresholds: a signature group is outlying when smaller
#: than this many partitions ...
MAX_ABSOLUTE_SIZE = 10
#: ... and smaller than this share of the largest signature group.
MAX_RELATIVE_SIZE = 0.10
#: Largest mixed-radix signature code; past it the running code is
#: re-ranked (at most one value per candidate) before the next column.
_MAX_CODE = 2**62


def _signature_codes(
    dataset: DatasetStatistics,
    columns: tuple[str, ...],
    candidates: np.ndarray,
    index,
) -> np.ndarray:
    """One integer per candidate, equal exactly for identical signatures.

    Each column contributes the codes the columnar sketch ``index``
    keeps per table generation, combined mixed-radix.
    """
    combined, radix = np.zeros(candidates.size, dtype=np.int64), 1
    for column in columns:
        codes, distinct = index.signature_codes(
            column, dataset.global_heavy_hitters[column]
        )
        if radix * distinct > _MAX_CODE:
            combined = np.unique(combined, return_inverse=True)[1]
            radix = candidates.size
        combined = combined * distinct + codes[candidates]
        radix *= distinct
    return combined


def find_outliers(
    dataset: DatasetStatistics,
    group_by: tuple[str, ...],
    candidates: np.ndarray,
    *,
    index,
) -> np.ndarray:
    """Outlier partition ids among ``candidates`` for a GROUP BY columnset.

    Queries without a GROUP BY have no rare-group notion: returns empty.
    Outliers are ordered rarest-signature-first so a capped budget keeps
    the most unusual partitions; equally rare signatures keep the order
    of their first appearance among the candidates, members candidate
    order. ``index`` (a
    :class:`~repro.sketches.columnar.ColumnarSketchIndex`) supplies
    per-column signature codes.
    """
    columns = tuple(c for c in group_by if dataset.global_heavy_hitters.get(c))
    if not columns or candidates.size == 0:
        return np.empty(0, dtype=np.intp)

    codes = _signature_codes(dataset, columns, candidates, index)
    __, first, group, sizes = np.unique(
        codes, return_index=True, return_inverse=True, return_counts=True
    )
    threshold = min(MAX_ABSOLUTE_SIZE, MAX_RELATIVE_SIZE * sizes.max())
    outlying = np.flatnonzero((sizes < threshold)[group])
    of = group[outlying]
    # ``outlying`` ascends, so the last key keeps members in candidate order.
    order = np.lexsort((outlying, first[of], sizes[of]))
    return candidates[outlying[order]].astype(np.intp, copy=False)
