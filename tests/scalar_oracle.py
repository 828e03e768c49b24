"""The scalar, string-based executor and the dict contribution walk.

The references the production planes are held to: ``BatchExecutor
.partition_answers`` must equal ``[execute_on_partition(p, q) for p in
ptable]`` byte for byte — one ``{group key: component vector}`` dict per
partition, vectors aligned with ``query.components`` — and
``QueryAnswerBlock.contributions`` must equal
:func:`partition_contributions` over those dicts. Import it as ``from
scalar_oracle import ...`` (``tests/`` is on the path via ``conftest.py``).
"""

from __future__ import annotations

import numpy as np

from repro.engine.aggregates import ComponentKind
from repro.engine.batch_executor import GroupKey
from repro.engine.query import Query
from repro.engine.table import Partition, PartitionedTable, Table

ComponentAnswer = dict[GroupKey, np.ndarray]


def _scalar(value) -> object:
    """Convert a numpy scalar to a hashable python scalar for group keys."""
    if isinstance(value, (np.str_, str)):
        return str(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return float(value)


def _group_ids(columns: dict[str, np.ndarray], group_by: tuple[str, ...]):
    """Factorize the group-by columns of (already filtered) rows.

    Returns ``(keys, ids)`` where ``keys`` is the list of distinct group-key
    tuples and ``ids`` assigns each row its key's index. Uses a mixed-radix
    combination of per-column codes so multi-column group-bys stay
    vectorized.
    """
    per_column: list[tuple[np.ndarray, np.ndarray]] = []
    for name in group_by:
        uniques, inverse = np.unique(columns[name], return_inverse=True)
        per_column.append((uniques, inverse))

    combined = per_column[0][1].astype(np.int64)
    radix = len(per_column[0][0])
    compacted: dict[int, np.ndarray] = {}
    for j, (uniques, inverse) in enumerate(per_column[1:], 1):
        if radix * len(uniques) > 2**62:
            # The product would wrap int64 and decode to keys no row has:
            # renumber the running code densely (<= one id per row) first.
            compacted[j], combined = np.unique(combined, return_inverse=True)
            radix = len(compacted[j])
        combined = combined * len(uniques) + inverse
        radix *= len(uniques)

    distinct, ids = np.unique(combined, return_inverse=True)

    # Decode each distinct combined code back into a tuple of values.
    keys: list[GroupKey] = []
    for code in distinct:
        parts = []
        for j in range(len(per_column) - 1, 0, -1):
            code, rem = divmod(code, len(per_column[j][0]))
            parts.append(_scalar(per_column[j][0][rem]))
            if j in compacted:
                code = compacted[j][code]
        parts.append(_scalar(per_column[0][0][code]))
        keys.append(tuple(reversed(parts)))
    return keys, ids


def execute_on_columns(columns: dict[str, np.ndarray], query: Query) -> ComponentAnswer:
    """Execute ``query`` over raw column arrays (one partition's worth)."""
    num_rows = len(next(iter(columns.values()))) if columns else 0
    if query.predicate is not None and num_rows:
        mask = query.predicate.mask(columns)
        if not mask.any():
            return {}
        used = query.columns() | set(query.group_by)
        columns = {name: arr[mask] for name, arr in columns.items() if name in used}
        num_rows = int(mask.sum())
    if num_rows == 0:
        return {}

    if query.group_by:
        keys, ids = _group_ids(columns, query.group_by)
        num_groups = len(keys)
    else:
        keys, ids, num_groups = [()], None, 1

    totals = np.zeros((num_groups, query.num_components), dtype=np.float64)
    for slot, comp in enumerate(query.components):
        if comp.kind is ComponentKind.COUNT:
            values = None
        else:
            values = np.broadcast_to(
                np.asarray(comp.expr.evaluate(columns), dtype=np.float64), (num_rows,)
            )
        if ids is None:
            totals[0, slot] = num_rows if values is None else values.sum()
        elif values is None:
            totals[:, slot] = np.bincount(ids, minlength=num_groups)
        else:
            totals[:, slot] = np.bincount(ids, weights=values, minlength=num_groups)

    return {key: totals[g] for g, key in enumerate(keys)}


def execute_on_partition(partition: Partition, query: Query) -> ComponentAnswer:
    """Execute ``query`` on one partition; see module docstring."""
    return execute_on_columns(partition.columns, query)


def execute_on_table(table: Table, query: Query) -> ComponentAnswer:
    """Execute ``query`` on a whole table (used for ground truth)."""
    return execute_on_columns(table.columns, query)


def true_answer(ptable: PartitionedTable, query: Query) -> ComponentAnswer:
    """Exact component answer over all partitions (weight 1 everywhere)."""
    return execute_on_table(ptable.table, query)


def partition_contributions(
    partition_answers: list[ComponentAnswer],
    total_answer: ComponentAnswer | None = None,
) -> np.ndarray:
    """Per-partition contribution scalars in [0, 1].

    Parameters
    ----------
    partition_answers:
        Component answers per partition (index = partition id).
    total_answer:
        The exact combined answer; computed by summation when omitted.
    """
    if total_answer is None:
        total_answer = {}
        for answer in partition_answers:
            for key, vec in answer.items():
                acc = total_answer.get(key)
                if acc is None:
                    total_answer[key] = vec.copy()
                else:
                    acc += vec
    # Guard groups whose component totals are zero (nothing to attribute).
    denominators = {
        key: np.where(np.abs(vec) > 0.0, np.abs(vec), np.inf)
        for key, vec in total_answer.items()
    }
    out = np.zeros(len(partition_answers), dtype=np.float64)
    for i, answer in enumerate(partition_answers):
        best = 0.0
        for key, vec in answer.items():
            denom = denominators.get(key)
            if denom is None:
                continue
            ratio = float((np.abs(vec) / denom).max())
            if ratio > best:
                best = ratio
        out[i] = min(best, 1.0)
    return out
