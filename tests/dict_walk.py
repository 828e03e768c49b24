"""The paper's section 2.4 estimator as a walk over per-partition dicts.

The reference the array kernel in ``repro.engine.combiner`` is held to:
one ``{group key: component vector}`` dict per selected partition,
accumulated group by group in selection order, then finalized one group
and one aggregate at a time with the scalar ``Aggregate.finalize``. An
online answer (``answer_selections``) and the offline grids
(``BlockEstimator``) must equal it byte for byte; online answers also
list their keys in this walk's insertion order.

Import it as ``from dict_walk import ...``: ``tests/`` is on the path
through its root ``conftest.py``.
"""

from __future__ import annotations

import numpy as np
from scalar_oracle import ComponentAnswer, GroupKey

from repro.engine.combiner import FinalAnswer, WeightedChoice
from repro.engine.query import Query


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
