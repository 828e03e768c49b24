"""Occurrence bitmaps of global heavy hitters (paper section 3.2).

For each column, a set of up to k global heavy hitters is assembled by
merging the per-partition heavy-hitter sketches. Each partition then gets a
k-bit bitmap: bit j is set iff the j-th global heavy hitter is *also* a
heavy hitter of that partition. The paper caps k at 25 per column and only
uses the bitmaps of grouping columns.

Bitmaps serve two purposes: as (hh-category) features for clustering and
the regressors, and as the grouping key for outlier-partition detection
(section 4.4): partitions whose bitmap signature is rare contain a rare
distribution of groups.
"""

from __future__ import annotations

import numpy as np

from repro.sketches.builder import DatasetStatistics


def occurrence_bitmap(
    dataset: DatasetStatistics, partition: int, column: str
) -> np.ndarray:
    """Bitmap (0/1 float vector) for one partition and column."""
    global_hitters = dataset.global_heavy_hitters.get(column, ())
    sketch = dataset.partitions[partition].columns[column].heavy_hitter
    local = set(sketch.items()) if sketch is not None else set()
    return np.array(
        [1.0 if value in local else 0.0 for value in global_hitters],
        dtype=np.float64,
    )


def occurrence_bitmaps(dataset: DatasetStatistics, column: str) -> np.ndarray:
    """Bitmap matrix, shape ``(num_partitions, k)``, for one column."""
    width = len(dataset.global_heavy_hitters.get(column, ()))
    out = np.zeros((dataset.num_partitions, width), dtype=np.float64)
    for p in range(dataset.num_partitions):
        if width:
            out[p] = occurrence_bitmap(dataset, p, column)
    return out


def bitmap_signature(
    dataset: DatasetStatistics, partition: int, columns: tuple[str, ...]
) -> tuple:
    """Hashable concatenated-bitmap signature over several columns.

    Used to group partitions for outlier detection: partitions with
    identical signatures carry the same mix of frequent group values.
    This is the scalar reference; the picker's select path combines the
    per-column codes of ``ColumnarSketchIndex.signature_codes`` instead.
    """
    parts: list[int] = []
    for column in columns:
        bits = occurrence_bitmap(dataset, partition, column)
        parts.extend(int(b) for b in bits)
    return tuple(parts)
