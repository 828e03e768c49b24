"""Self-contained numpy reference: answer oracle and hardware floor.

Every answer the benchmark checks is recomputed here from the raw column
arrays and the *returned* weighted selection: gather the selected
partitions' rows, predicate mask, group factorization, one weighted
``bincount`` per linear component (the paper's section 2.4 estimator,
``A~_g = sum_j w_j * A_{g,p_j}``), then SUM / COUNT / AVG finalization.
The time that takes is also ``engine.floor_ms``: what a bare numpy pass
over the same rows costs, so "fraction of achievable" is a measurement.

Nothing is imported from ``src/``. Queries, predicates and expressions
are read by attribute and class *name* only, so this file keeps working
when executors, estimators and ``batched=`` switches are collapsed or
deleted; it would only need touching if the query AST itself changed.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-9
ATOL = 1e-12


class ReferenceTable:
    """Raw columns plus lazily dictionary-encoded copies for grouping.

    ``boundaries[i]:boundaries[i + 1]`` is partition ``i``'s row range.
    An append-only table keeps every earlier generation as a prefix, so
    one ``ReferenceTable`` over the final table serves answers taken at
    any earlier partition count.
    """

    def __init__(self, columns: dict, boundaries) -> None:
        self.columns = columns
        self.boundaries = np.asarray(boundaries, dtype=np.int64)
        self._encoded: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def num_partitions(self) -> int:
        return len(self.boundaries) - 1

    def encoded(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``(uniques, codes)`` for a column, computed once."""
        entry = self._encoded.get(name)
        if entry is None:
            uniques, codes = np.unique(self.columns[name], return_inverse=True)
            entry = (uniques, codes.astype(np.int64))
            self._encoded[name] = entry
        return entry

    def rows_of(self, partitions) -> tuple[np.ndarray, np.ndarray]:
        """Row indices of ``partitions`` and each partition's size."""
        parts = np.asarray(partitions, dtype=np.int64)
        starts = self.boundaries[parts]
        sizes = self.boundaries[parts + 1] - starts
        total = int(sizes.sum())
        shift = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
        return shift + np.arange(total, dtype=np.int64), sizes


def _is_string(values: np.ndarray) -> bool:
    return values.dtype.kind in ("U", "S", "O")


def _mask(node, table: ReferenceTable, rows: np.ndarray) -> np.ndarray:
    """Boolean row mask of a predicate tree over ``rows``."""
    kind = type(node).__name__
    if kind == "And":
        out = _mask(node.children[0], table, rows)
        for child in node.children[1:]:
            out = out & _mask(child, table, rows)
        return out
    if kind == "Or":
        out = _mask(node.children[0], table, rows)
        for child in node.children[1:]:
            out = out | _mask(child, table, rows)
        return out
    if kind == "Not":
        return ~_mask(node.child, table, rows)
    if kind == "Comparison":
        values = table.columns[node.column][rows]
        op, constant = node.op, node.value
        if op == "<":
            return values < constant
        if op == "<=":
            return values <= constant
        if op == ">":
            return values > constant
        if op == ">=":
            return values >= constant
        if op == "==":
            return values == constant
        if op == "!=":
            return values != constant
        raise ValueError(f"reference: unknown comparison operator {op!r}")
    if kind in ("InSet", "Contains"):
        # Decide per distinct value, then map through the codes: the
        # string work is O(distinct values), the row work is integer.
        uniques, codes = table.encoded(node.column)
        if kind == "InSet":
            wanted = [str(v) for v in node.values]
            hit = np.isin(uniques.astype(str), wanted)
        else:
            hit = np.char.find(uniques.astype(str), node.text) >= 0
        return hit[codes[rows]]
    raise ValueError(f"reference: unknown predicate node {kind!r}")


def _evaluate(expr, table: ReferenceTable, rows: np.ndarray):
    """An arithmetic aggregate expression over ``rows``."""
    kind = type(expr).__name__
    if kind == "ColumnRef":
        return np.asarray(table.columns[expr.name][rows], dtype=np.float64)
    if kind == "Const":
        return np.float64(expr.value)
    if kind == "BinOp":
        lhs = _evaluate(expr.left, table, rows)
        rhs = _evaluate(expr.right, table, rows)
        if expr.op == "+":
            return lhs + rhs
        if expr.op == "-":
            return lhs - rhs
        if expr.op == "*":
            return lhs * rhs
        if expr.op == "/":
            return lhs / rhs
    raise ValueError(f"reference: unknown expression node {kind!r}")


def _key_scalar(value):
    if isinstance(value, (np.str_, str)):
        return str(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return float(value)


def weighted_answer(table: ReferenceTable, query, partitions, weights) -> dict:
    """``{group key: aggregate values}`` for a weighted selection.

    ``partitions`` and ``weights`` are parallel sequences; every row of
    partition ``p_j`` contributes with weight ``w_j``.
    """
    if len(partitions) == 0:
        return {}
    rows, sizes = table.rows_of(partitions)
    row_weights = np.repeat(np.asarray(weights, dtype=np.float64), sizes)
    if query.predicate is not None:
        keep = _mask(query.predicate, table, rows)
        rows, row_weights = rows[keep], row_weights[keep]
    if rows.size == 0:
        return {}

    if query.group_by:
        encodings = [table.encoded(name) for name in query.group_by]
        combined = encodings[0][1][rows]
        for uniques, codes in encodings[1:]:
            combined = combined * len(uniques) + codes[rows]
        distinct, ids = np.unique(combined, return_inverse=True)
        keys = []
        for code in distinct.tolist():
            parts = []
            for uniques, __ in reversed(encodings[1:]):
                code, rem = divmod(code, len(uniques))
                parts.append(_key_scalar(uniques[rem]))
            parts.append(_key_scalar(encodings[0][0][code]))
            keys.append(tuple(reversed(parts)))
    else:
        keys, ids = [()], np.zeros(rows.size, dtype=np.int64)
    num_groups = len(keys)

    counts = np.bincount(ids, weights=row_weights, minlength=num_groups)
    values = np.empty((num_groups, len(query.aggregates)), dtype=np.float64)
    for slot, aggregate in enumerate(query.aggregates):
        func = aggregate.func.value
        if func == "COUNT":
            values[:, slot] = counts
            continue
        measure = np.broadcast_to(
            _evaluate(aggregate.expr, table, rows), (rows.size,)
        )
        sums = np.bincount(
            ids, weights=measure * row_weights, minlength=num_groups
        )
        if func == "SUM":
            values[:, slot] = sums
        elif func == "AVG":
            values[:, slot] = np.divide(
                sums, counts, out=np.zeros(num_groups), where=counts != 0.0
            )
        else:
            raise ValueError(f"reference: unknown aggregate {func!r}")
    return {key: values[g] for g, key in enumerate(keys)}


def exact_answer(table: ReferenceTable, query, num_partitions=None) -> dict:
    """Full-scan answer over the first ``num_partitions`` partitions."""
    n = table.num_partitions if num_partitions is None else num_partitions
    return weighted_answer(table, query, np.arange(n), np.ones(n))


def answers_match(expected: dict, got: dict) -> bool:
    """Same group keys, every aggregate within ``RTOL``."""
    if expected.keys() != got.keys():
        return False
    return all(
        np.allclose(got[key], expected[key], rtol=RTOL, atol=ATOL)
        for key in expected
    )


def relative_error(truth: dict, estimate: dict) -> float:
    """The paper's average relative error (section 5.1.4).

    Mean over (true group, aggregate) of ``|est - true| / |true|``; a
    true group the estimate misses scores 1 per aggregate, a zero truth
    estimated non-zero scores 1. An empty truth scores 0 when the
    estimate is empty too, else 1.
    """
    if not truth:
        return 1.0 if estimate else 0.0
    errors = []
    for key, true_values in truth.items():
        est = estimate.get(key)
        if est is None:
            errors.append(np.ones(len(true_values)))
            continue
        scale = np.abs(true_values)
        gap = np.abs(np.asarray(est) - true_values)
        errors.append(
            np.where(scale > 0.0, gap / np.where(scale > 0.0, scale, 1.0), gap > 0.0)
        )
    return float(np.mean(np.concatenate(errors)))


def check_answer(table: ReferenceTable, answer, exact_cache: dict | None = None):
    """Verify one ``ApproximateAnswer``; returns a list of problems.

    Checks, from outside the system: the selection respects the
    effective budget, names distinct in-range partitions with positive
    weights, the reported groups equal the reference's weighted answer
    over exactly that selection, and — when the budget covered every
    passing partition (the weights account for all of them, so their
    sum is the passing count) — the answer equals the exact full scan.
    """
    problems = []
    choices = list(answer.selection.selection)
    partitions = [int(c.partition) for c in choices]
    weights = [float(c.weight) for c in choices]
    if len(choices) > answer.effective_budget:
        problems.append(
            f"selection of {len(choices)} exceeds budget {answer.effective_budget}"
        )
    if len(set(partitions)) != len(partitions):
        problems.append("selection repeats a partition")
    if any(p < 0 or p >= answer.num_partitions for p in partitions):
        problems.append("selection names a partition outside the table")
        return problems
    if any(not w > 0.0 for w in weights):
        problems.append("selection carries a non-positive weight")
    expected = weighted_answer(table, answer.query, partitions, weights)
    if not answers_match(expected, answer.groups):
        problems.append("groups differ from the reference weighted answer")
    if round(sum(weights)) <= answer.effective_budget:
        key = (answer.query, answer.num_partitions)
        exact = None if exact_cache is None else exact_cache.get(key)
        if exact is None:
            exact = exact_answer(table, answer.query, answer.num_partitions)
            if exact_cache is not None:
                exact_cache[key] = exact
        if not answers_match(exact, answer.groups):
            problems.append("budget covered every passing partition, not exact")
    return problems
