"""Weighted combination of per-partition answers.

Implements the paper's estimator (section 2.4): given weighted partition
choices ``S = {(p_1, w_1), ..., (p_n, w_n)}``, the approximate component
answer of group ``g`` is ``A~_g = sum_j w_j * A_{g, p_j}``. Finalization
then maps combined linear components to the query's aggregate values
(AVG = SUM/COUNT).

This dict walk is the only one in the package: every online route
(``PS3.query`` / ``query_many`` / ``serve``, ``answer_with_selection``,
the CLI) reaches it through :func:`repro.engine.serving
.answer_selections`. Offline sweep loops (the LSS stratum sweep,
feature selection, the bench runner) evaluate the same estimator over
the answer block's arrays via :class:`~repro.engine.block_estimator
.BlockEstimator`, which reproduces this module's results bit for bit;
:func:`estimate` is the oracle the tests hold it to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.engine.executor import ComponentAnswer, GroupKey
from repro.engine.query import Query
from repro.errors import ConfigError

FinalAnswer = dict[GroupKey, np.ndarray]


@dataclass(frozen=True)
class WeightedChoice:
    """One selected partition and the weight its answer is scaled by."""

    partition: int
    weight: float

    def __post_init__(self) -> None:
        # A negative index would silently address a partition from the
        # end, and ``nan < 0`` is false: both must be refused by name.
        if self.partition < 0:
            raise ConfigError(f"negative partition index {self.partition}")
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ConfigError(
                f"weight must be finite and non-negative, got {self.weight}"
            )


def combine_answers(
    answers: list[ComponentAnswer],
    selection: list[WeightedChoice],
) -> ComponentAnswer:
    """Weighted sum of component answers across the selected partitions.

    ``answers`` is aligned with ``selection``: ``answers[j]`` is the
    answer of ``selection[j].partition`` (what iterating ``BatchExecutor
    .partition_answers(query, partitions=...)`` yields). The inputs are
    only read; the combined vectors are fresh arrays.
    """
    combined: dict[GroupKey, np.ndarray] = {}
    for choice, answer in zip(selection, answers, strict=True):
        for key, vec in answer.items():
            acc = combined.get(key)
            if acc is None:
                combined[key] = choice.weight * vec
            else:
                acc += choice.weight * vec
    return combined


def finalize_answer(query: Query, combined: ComponentAnswer) -> FinalAnswer:
    """Map combined component totals to final aggregate values per group."""
    final: FinalAnswer = {}
    for key, vec in combined.items():
        values = np.empty(len(query.aggregates), dtype=np.float64)
        for i, (agg, slots) in enumerate(zip(query.aggregates, query.component_index)):
            values[i] = agg.finalize([vec[s] for s in slots])
        final[key] = values
    return final


def estimate(
    query: Query,
    partition_answers: list[ComponentAnswer],
    selection: list[WeightedChoice],
) -> FinalAnswer:
    """Combine then finalize, from answers indexed by partition id."""
    chosen = [partition_answers[choice.partition] for choice in selection]
    return finalize_answer(query, combine_answers(chosen, selection))
