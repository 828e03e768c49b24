"""Weighted combination of per-partition answers, on the answer block.

Implements the paper's estimator (section 2.4): given weighted partition
choices ``S = {(p_1, w_1), ..., (p_n, w_n)}``, the approximate component
answer of group ``g`` is ``A~_g = sum_j w_j * A_{g, p_j}``. Finalization
then maps combined linear components to the query's aggregate values
(AVG = SUM/COUNT).

One kernel, :func:`weighted_sums`, evaluates that sum over the
:class:`~repro.engine.batch_executor.QueryAnswerBlock`'s compacted
segments, scaled by their weights: one ``np.bincount`` per component.
Every online route (``PS3.query`` / ``query_many`` / ``serve``,
``answer_with_selection``, the CLI) reaches it through
:func:`repro.engine.serving.answer_selections` as :func:`combine_answers`
then :func:`finalize_answer`, a grid of one selection, and so does
``PS3.execute_exact`` (every partition at weight 1); the offline sweeps
(:class:`~repro.engine.block_estimator.BlockEstimator`) run it over many
selections at once.

Byte-identity with the dict walk
--------------------------------
The reference (``tests/dict_walk.py``) walks one ``{group key: component
vector}`` dict per selected partition in selection order, setting a
group's accumulator to its first term ``w_j * A_{g, p_j}`` and adding
each later term in turn. The kernel reproduces it byte for byte:

* **Sum.** ``np.bincount`` adds its weights in input order, and the
  segments go in in the walk's order (selection position, then ascending
  group code), so each group's total is the walk's float64 chain.
  (``np.add.reduceat`` would reassociate; a BLAS matmul too.)
* **-0.0.** bincount starts each chain from ``+0.0``, the walk from its
  first term; the two differ only for a chain made of ``-0.0`` terms
  alone, which the walk keeps as ``-0.0``. The kernel restores it there;
  a sign check skips this when no ``-0.0`` term exists.
* **Key order.** An online answer lists its groups as the walk inserts
  them: by first appearance in selection order, ascending group code
  within a partition — not the block's code order.
* **Finalize.** :meth:`Aggregate.finalize_block` is the scalar finalize
  elementwise over the (groups x aggregates) plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.engine.batch_executor import GroupKey, QueryAnswerBlock
from repro.engine.query import Query
from repro.errors import ConfigError

FinalAnswer = dict[GroupKey, np.ndarray]


@dataclass(frozen=True)
class WeightedChoice:
    """One selected partition and the weight its answer is scaled by."""

    partition: int
    weight: float

    def __post_init__(self) -> None:
        # A float or bool index would be truncated and a negative one address
        # a partition from the end; ``nan < 0`` is false: refuse each by name.
        partition = self.partition
        if isinstance(partition, bool) or not isinstance(partition, (int, np.integer)):
            raise ConfigError(f"partition index must be an integer, got {partition!r}")
        if partition < 0:
            raise ConfigError(f"negative partition index {self.partition}")
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ConfigError(
                f"weight must be finite and non-negative, got {self.weight}"
            )


@dataclass(frozen=True)
class CombinedAnswer:
    """Combined component totals: row ``i`` of ``totals`` (groups x
    components, float64) belongs to ``keys[i]``."""

    keys: list[GroupKey]
    totals: np.ndarray


def weighted_sums(
    ids: np.ndarray, values: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(sums, present)``: the ``(size, components)`` totals of the
    scaled segment ``values`` grouped by ``ids``, each added in input
    order, and which ids occur."""
    sums = np.empty((size, values.shape[1]))
    for c in range(values.shape[1]):
        sums[:, c] = np.bincount(ids, weights=values[:, c], minlength=size)
    present = np.zeros(size, dtype=bool)
    present[ids] = True
    negative_zero = np.signbit(values) & (values == 0.0)
    if negative_zero.any():
        # A chain of -0.0 terms alone is -0.0 in the walk, +0.0 here.
        for c in np.flatnonzero(negative_zero.any(axis=0)):
            other = np.bincount(ids[~negative_zero[:, c]], minlength=size)
            sums[present & (other == 0), c] = -0.0
    return sums, present


def combine_answers(
    block: QueryAnswerBlock, selection: list[WeightedChoice]
) -> CombinedAnswer:
    """Weighted sum of the selected partitions' answers.

    ``block`` is aligned with ``selection``: its row ``j`` is the answer
    of ``selection[j].partition`` (what ``BatchExecutor
    .partition_answers(query, partitions=...)`` returns). The block is
    only read; the combined totals are fresh arrays, keys in the dict
    walk's insertion order.
    """
    if len(selection) != block.num_partitions:
        raise ValueError(f"{len(selection)} choices, {len(block)} block rows")
    weights = np.fromiter(
        (choice.weight for choice in selection), np.float64, len(selection)
    )
    # The block's segments are already in the walk's order.
    groups = block.live_groups
    values = block.totals * np.repeat(weights, np.diff(block.cuts))[:, None]
    sums, __ = weighted_sums(groups, values, block.num_groups)
    codes, first = np.unique(groups, return_index=True)
    order = codes[np.argsort(first)]
    keys = block.keys
    return CombinedAnswer([keys[g] for g in order.tolist()], sums[order])


def finalize_values(query: Query, combined: np.ndarray) -> np.ndarray:
    """``(..., aggregates)`` values of ``(..., components)`` totals: each
    aggregate's ``finalize_block`` is elementwise over the whole plane."""
    values = np.empty(combined.shape[:-1] + (len(query.aggregates),))
    for i, (agg, slots) in enumerate(zip(query.aggregates, query.component_index)):
        values[..., i] = agg.finalize_block([combined[..., s] for s in slots])
    return values


def finalize_answer(query: Query, combined: CombinedAnswer) -> FinalAnswer:
    """Map combined component totals to final aggregate values per group."""
    return dict(zip(combined.keys, finalize_values(query, combined.totals)))
