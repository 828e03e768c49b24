"""Partition contribution (paper section 4.3).

The contribution of partition *i* to a query is its largest relative
contribution to any group and any aggregate component in the answer:

    contribution_i = max_{g in G} max_j ( A_{g,i}[j] / A_g[j] )

The max-of-relatives is deliberately generous: it credits a partition for
helping *any* aggregate of *any* group, without bias toward large groups.
Contributions are computed on the linear SUM/COUNT components (DESIGN.md
section 5 notes why: AVG ratios are ill-defined per partition), using
absolute values so signed measures such as ``cs_net_profit`` behave.

:func:`segment_contributions` computes them straight from the
executor's compacted answer arrays, with no dict in sight. The reference
it is held to bit for bit, a walk over per-partition ``{group key:
component vector}`` dicts, lives with the tests
(``tests/scalar_oracle.py``): ``np.bincount`` accumulates each group's
total over partitions in the same ascending-partition addition order the
dict walk uses, and the ratio/max/clip expressions are elementwise
identical.
"""

from __future__ import annotations

import numpy as np


def segment_contributions(
    live_parts: np.ndarray,
    live_groups: np.ndarray,
    totals: np.ndarray,
    num_partitions: int,
    num_groups: int,
) -> np.ndarray:
    """Contribution scalars from compacted (partition, group) segments.

    Array twin of the tests' dict walk for a
    :class:`~repro.engine.batch_executor.QueryAnswerBlock`: the
    ``i``-th occupied segment lives at ``(live_parts[i],
    live_groups[i])`` with component totals ``totals[i]``, and segments
    are sorted partition-major. Absent (partition, group) cells
    contribute nothing, exactly like keys missing from an answer dict.
    """
    out = np.zeros(num_partitions, dtype=np.float64)
    if live_parts.size == 0 or totals.shape[1] == 0:
        return out
    groups = max(num_groups, 1)
    num_components = totals.shape[1]
    group_totals = np.zeros((groups, num_components), dtype=np.float64)
    for slot in range(num_components):
        # Sequential accumulation in ascending segment (= partition)
        # order: the same float64 addition chain as the dict walk.
        group_totals[:, slot] = np.bincount(
            live_groups, weights=totals[:, slot], minlength=groups
        )
    denominators = np.where(
        np.abs(group_totals) > 0.0, np.abs(group_totals), np.inf
    )
    ratios = np.abs(totals) / denominators[live_groups]
    best = ratios.max(axis=1)
    np.maximum.at(out, live_parts, best)
    return np.minimum(out, 1.0)
