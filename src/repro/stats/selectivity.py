"""Per-partition selectivity estimation from single-column sketches.

Implements the paper's four selectivity features (section 3.2) plus the
Fréchet lower bound that Appendix B.1's selected feature lists reference:

* ``upper`` — for ANDs the min of clause selectivities, for ORs the sum
  capped at 1. Crucially, ``upper == 0`` implies *no* row of the partition
  can satisfy the predicate (perfect recall); a nonzero upper says nothing
  certain (precision varies with predicate complexity).
* ``lower`` — Fréchet bounds: for ANDs ``max(0, sum - (m-1))``, for ORs the
  max of clause selectivities.
* ``indep`` — clause independence: product for ANDs; for ORs the paper
  prescribes the *min* of clause selectivities (section 3.2), which we
  follow verbatim.
* ``clause_min`` / ``clause_max`` — min/max over individual clause
  estimates.

Clauses on the same column under a conjunction are evaluated *jointly*
(``X < 1 AND X > 10`` yields zero) by intersecting comparison intervals
against the column's equi-depth histogram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.engine.predicates import (
    And,
    Comparison,
    Contains,
    InSet,
    Not,
    Or,
    Predicate,
)
from repro.errors import QueryScopeError
from repro.sketches.builder import ColumnStatistics, PartitionStatistics
from repro.sketches.hashing import hash_value


@dataclass(frozen=True)
class SelectivityEstimate:
    """The five selectivity features for one (query, partition) pair."""

    upper: float
    lower: float
    indep: float
    clause_min: float
    clause_max: float

    @classmethod
    def exact(cls, value: float) -> SelectivityEstimate:
        return cls(value, value, value, value, value)


_FULL = SelectivityEstimate.exact(1.0)


def _clip(x: float) -> float:
    return min(max(x, 0.0), 1.0)


@dataclass
class _Interval:
    """Conjunction of numeric comparisons on one column."""

    low: float = -math.inf
    high: float = math.inf
    low_inclusive: bool = True
    high_inclusive: bool = True
    point: float | None = None  # set by an equality clause
    nan_bound: bool = False  # a range constant is NaN: no row passes

    def add(self, op: str, value: float) -> None:
        if op == "==":
            self.point = value if self.point in (None, value) else math.nan
            return
        if math.isnan(value):
            self.nan_bound = True
            return
        if op in ("<", "<="):
            if value < self.high or (value == self.high and op == "<"):
                self.high = value
                self.high_inclusive = op == "<="
        elif op in (">", ">="):
            if value > self.low or (value == self.low and op == ">"):
                self.low = value
                self.low_inclusive = op == ">="

    def estimate(self, stats: ColumnStatistics) -> float:
        if self.nan_bound:
            return 0.0
        hist = stats.histogram
        if hist is None:
            return 1.0
        if self.point is not None:
            if math.isnan(self.point):  # conflicting equalities
                return 0.0
            inside_low = self.point > self.low or (
                self.point == self.low and self.low_inclusive
            )
            inside_high = self.point < self.high or (
                self.point == self.high and self.high_inclusive
            )
            if not (inside_low and inside_high):
                return 0.0
            return hist.fraction_eq(self.point)
        return hist.fraction_in_interval(
            self.low, self.high, self.low_inclusive, self.high_inclusive
        )


def _comparison_estimate(clause: Comparison, stats: ColumnStatistics) -> float:
    hist = stats.histogram
    if hist is None and clause.op in ("==", "!="):  # ranges: _Interval.estimate
        return 1.0
    if clause.op == "==":
        return hist.fraction_eq(clause.value)
    if clause.op == "!=":
        return _clip(1.0 - hist.fraction_eq(clause.value))
    interval = _Interval()
    interval.add(clause.op, clause.value)
    return interval.estimate(stats)


def _categorical_eq_estimate(value, stats: ColumnStatistics) -> float:
    """Estimated fraction of rows equal to one categorical value."""
    if stats.exact_dict is not None and stats.exact_dict.usable:
        return stats.exact_dict.fraction_eq(str(value))
    if stats.heavy_hitter is not None:
        freq = stats.heavy_hitter.frequencies().get(value)
        if freq is not None:
            return freq
    hist = stats.histogram
    if hist is None:
        return 1.0
    return hist.fraction_eq(float(hash_value(value)))


def _in_estimate(clause: InSet, stats: ColumnStatistics) -> float:
    # Sorted, as the compiled plan probes: set order follows the hash seed.
    total = sum(_categorical_eq_estimate(v, stats) for v in sorted(clause.values))
    return _clip(total)


def _contains_estimate(
    clause: Contains, stats: ColumnStatistics
) -> tuple[float, float]:
    """(estimate, upper) for a substring filter.

    With an exact dictionary the answer is exact. Otherwise we can only
    check heavy hitters: matched heavy-hitter mass is a lower/point
    estimate, and the non-heavy-hitter remainder could all match, which
    bounds the upper.
    """
    if stats.exact_dict is not None and stats.exact_dict.usable:
        exact = stats.exact_dict.fraction_containing(clause.text)
        return exact, exact
    matched = 0.0
    covered = 0.0
    if stats.heavy_hitter is not None:
        for value, freq in stats.heavy_hitter.frequencies().items():
            covered += freq
            if isinstance(value, str) and clause.text in value:
                matched += freq
    upper = _clip(matched + max(1.0 - covered, 0.0))
    return _clip(matched), upper


@dataclass(frozen=True)
class _Result:
    low: float
    high: float
    indep: float
    leaves: tuple[float, ...]


def _leaf(clause: Predicate, stats: PartitionStatistics) -> _Result:
    name = next(iter(clause.columns()))
    cstats = stats.columns.get(name)
    if cstats is None:
        raise QueryScopeError(f"no statistics for column {name!r}")
    if isinstance(clause, Comparison):
        est = _comparison_estimate(clause, cstats)
        return _Result(_clip(est), _clip(est), _clip(est), (_clip(est),))
    if isinstance(clause, InSet):
        est = _in_estimate(clause, cstats)
        return _Result(est, est, est, (est,))
    if isinstance(clause, Contains):
        est, upper = _contains_estimate(clause, cstats)
        return _Result(est, upper, est, (est,))
    raise QueryScopeError(f"unsupported clause {type(clause).__name__}")


def _joint_comparison_groups(
    node: And, stats: PartitionStatistics
) -> tuple[list[_Result], list[Predicate]]:
    """Evaluate same-column comparison children of an AND jointly.

    Returns joint results (one per column with >= 2 mergeable comparisons)
    plus the children that were *not* merged and still need evaluation.
    """
    mergeable: dict[str, list[Comparison]] = {}
    rest: list[Predicate] = []
    for child in node.children:
        if isinstance(child, Comparison) and child.op != "!=":
            mergeable.setdefault(child.column, []).append(child)
        else:
            rest.append(child)
    joint: list[_Result] = []
    for column, clauses in mergeable.items():
        if len(clauses) == 1:
            rest.append(clauses[0])
            continue
        interval = _Interval()
        for clause in clauses:
            interval.add(clause.op, clause.value)
        cstats = stats.columns[column]
        est = _clip(interval.estimate(cstats))
        individual = tuple(
            _clip(_comparison_estimate(c, cstats)) for c in clauses
        )
        joint.append(_Result(est, est, est, individual))
    return joint, rest


def _evaluate(node: Predicate, stats: PartitionStatistics) -> _Result:
    if isinstance(node, Not):
        inner = _evaluate(node.child, stats)
        return _Result(
            _clip(1.0 - inner.high),
            _clip(1.0 - inner.low),
            _clip(1.0 - inner.indep),
            tuple(_clip(1.0 - e) for e in inner.leaves),
        )
    if isinstance(node, And):
        joint, rest = _joint_comparison_groups(node, stats)
        results = joint + [_evaluate(child, stats) for child in rest]
        m = len(results)
        low = _clip(sum(r.low for r in results) - (m - 1))
        high = min(r.high for r in results)
        indep = math.prod(r.indep for r in results)
        leaves = tuple(e for r in results for e in r.leaves)
        return _Result(low, _clip(high), _clip(indep), leaves)
    if isinstance(node, Or):
        results = [_evaluate(child, stats) for child in node.children]
        low = max(r.low for r in results)
        high = _clip(sum(r.high for r in results))
        indep = min(r.indep for r in results)  # the paper's OR rule
        leaves = tuple(e for r in results for e in r.leaves)
        return _Result(_clip(low), high, _clip(indep), leaves)
    return _leaf(node, stats)


def estimate_selectivity(
    predicate: Predicate | None, stats: PartitionStatistics
) -> SelectivityEstimate:
    """The five selectivity features of a predicate on one partition."""
    if predicate is None:
        return _FULL
    result = _evaluate(predicate, stats)
    leaves = result.leaves or (result.indep,)
    return SelectivityEstimate(
        upper=result.high,
        lower=result.low,
        indep=result.indep,
        clause_min=min(leaves),
        clause_max=max(leaves),
    )
