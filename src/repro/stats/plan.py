"""Compile-once predicate plans evaluated across all partitions at once.

A scalar estimator walking the predicate AST against one partition's
sketch objects costs O(N) Python AST walks per query (the tests keep
that walk as the oracle). :class:`PredicatePlan` removes the loop:

* **compile** (once per distinct predicate, partition-count independent):
  the AST is lowered into a flat post-order list of clause ops. All
  partition-independent work happens here — same-column comparison
  clauses under a conjunction are merged into joint intervals exactly as
  the scalar estimator does, ``IN``/equality constants are hashed, and
  the point-inside-interval checks of conflicting equalities are
  resolved;
* **evaluate** (once per query): the op list runs as a small stack
  machine whose values are ``(N,)`` arrays read from a
  :class:`~repro.sketches.columnar.ColumnarSketchIndex`, producing the
  five selectivity features of paper section 3.2 as an ``(N, 5)`` matrix
  in a few dozen numpy passes.

Every combination rule (Fréchet bounds, the paper's OR-independence rule,
exact-dictionary / heavy-hitter / hashed-histogram fallbacks for
categoricals) mirrors the scalar estimator's expressions and evaluation
order, so the two paths agree to floating-point identity.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

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
from repro.obs import get_registry
from repro.sketches.columnar import ColumnarSketchIndex, ColumnIndex
from repro.sketches.hashing import hash_value


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

# -- compiled ops ----------------------------------------------------------


@dataclass(frozen=True)
class _ComparisonOp:
    """A single numeric/date comparison clause."""

    column: str
    op: str
    value: float


@dataclass(frozen=True)
class _JointIntervalOp:
    """>= 2 same-column comparisons under one AND, merged at compile time."""

    column: str
    low: float
    high: float
    low_inclusive: bool
    high_inclusive: bool
    point: float | None
    point_inside: bool  # interval membership of the point (scalar check)
    nan_bound: bool  # a range constant is NaN: no row passes
    clauses: tuple[tuple[str, float], ...]  # the individual (op, value) leaves


@dataclass(frozen=True)
class _InSetOp:
    """``column IN (...)``; per-value lookup keys precomputed."""

    column: str
    # (exact-dict key, heavy-hitter key, hashed-histogram probe) per value,
    # in the frozenset's iteration order so the sum matches the scalar sum.
    probes: tuple[tuple[int, int, float], ...]


@dataclass(frozen=True)
class _ContainsOp:
    column: str
    text: str


@dataclass(frozen=True)
class _NotOp:
    pass


@dataclass(frozen=True)
class _AndOp:
    arity: int


@dataclass(frozen=True)
class _OrOp:
    arity: int


# -- evaluation ------------------------------------------------------------


@dataclass
class _BatchResult:
    """Vectorized counterpart of the scalar estimator's ``_Result``."""

    low: np.ndarray
    high: np.ndarray
    indep: np.ndarray
    leaves: list[np.ndarray]


def _clip(values: np.ndarray) -> np.ndarray:
    # The method skips ``np.clip``'s Python wrapper and keeps its -0.0
    # and NaN results, which ``minimum(maximum(...))`` would not.
    return values.clip(0.0, 1.0)


def _comparison_batch(column: ColumnIndex, op: str, value: float) -> np.ndarray:
    hist = column.hist
    if op == "==":
        est = hist.fraction_eq(value)
    elif op == "!=":
        est = _clip(1.0 - hist.fraction_eq(value))
    elif math.isnan(value):  # no row compares true against NaN
        return np.zeros(hist.num_partitions, dtype=np.float64)
    else:
        interval = _Interval()
        interval.add(op, value)
        est = hist.fraction_in_interval(
            interval.low,
            interval.high,
            interval.low_inclusive,
            interval.high_inclusive,
        )
    return hist.or_full(est)


def _joint_interval_batch(column: ColumnIndex, op: _JointIntervalOp) -> np.ndarray:
    hist = column.hist
    if op.nan_bound:
        return np.zeros(hist.num_partitions, dtype=np.float64)
    if op.point is not None:
        if math.isnan(op.point) or not op.point_inside:
            est = np.zeros(hist.num_partitions, dtype=np.float64)
        else:
            est = hist.fraction_eq(op.point)
    else:
        est = hist.fraction_in_interval(
            op.low, op.high, op.low_inclusive, op.high_inclusive
        )
    return hist.or_full(est)


def _categorical_eq_batch(
    column: ColumnIndex, probe: tuple[int, int, float]
) -> np.ndarray:
    """Batch twin of ``_categorical_eq_estimate`` (same fallback chain)."""
    ed_key, hh_key, hist_probe = probe
    n = column.num_partitions
    ed_frac, ed_found = column.ed_lookup.lookup(ed_key, n)
    if column.exact_everywhere:  # 0.0 where absent: the whole answer
        return ed_frac
    out = column.hist.or_full(column.hist.fraction_eq(hist_probe))
    hh_freq, hh_found = column.hh_lookup.lookup(hh_key, n)
    out = np.where(hh_found, hh_freq, out)
    return np.where(
        column.ed_usable, np.where(ed_found, ed_frac, 0.0), out
    )


def _contains_batch(
    column: ColumnIndex, text: str
) -> tuple[np.ndarray, np.ndarray]:
    """Batch twin of ``_contains_estimate``: (estimate, upper) arrays."""
    n = column.num_partitions
    # Exact path: matched dictionary counts summed then divided, exactly
    # like ExactDictionary.fraction_containing (0.0 on empty dictionaries).
    ed_counts = column.ed_strings.matched_weight(text, n)
    exact = np.where(
        column.ed_totals > 0, ed_counts / np.maximum(column.ed_totals, 1.0), 0.0
    )
    if column.exact_everywhere:
        return exact, exact
    # Heavy-hitter path: matched mass is the estimate, and the mass not
    # covered by any heavy hitter could all match, bounding the upper.
    matched = column.hh_strings.matched_weight(text, n)
    hh_upper = _clip(matched + np.maximum(1.0 - column.hh_covered, 0.0))
    est = np.where(column.ed_usable, exact, _clip(matched))
    upper = np.where(column.ed_usable, exact, hh_upper)
    return est, upper


class PredicatePlan:
    """A predicate lowered to a flat op list, evaluable over all partitions."""

    def __init__(self, ops: tuple) -> None:
        self.ops = ops

    # -- compilation -------------------------------------------------------

    @classmethod
    def compile(cls, predicate: Predicate | None) -> PredicatePlan:
        """Lower ``predicate`` into post-order clause ops (once per query)."""
        ops: list = []
        if predicate is not None:
            _compile_node(predicate, ops)
        return cls(tuple(ops))

    # -- evaluation --------------------------------------------------------

    def evaluate(self, index: ColumnarSketchIndex) -> np.ndarray:
        """The five selectivity features as ``(N, 5)``: upper, lower,
        indep, clause_min, clause_max (``SelectivityEstimate`` order)."""
        n = index.num_partitions
        if not self.ops:  # no predicate: every partition fully qualifies
            return np.ones((n, 5), dtype=np.float64)
        stack: list[_BatchResult] = []
        for op in self.ops:
            if isinstance(op, _ComparisonOp):
                est = _clip(_comparison_batch(index.column(op.column), op.op, op.value))
                stack.append(_BatchResult(est, est, est, [est]))
            elif isinstance(op, _JointIntervalOp):
                column = index.column(op.column)
                est = _clip(_joint_interval_batch(column, op))
                leaves = [
                    _clip(_comparison_batch(column, c_op, c_value))
                    for c_op, c_value in op.clauses
                ]
                stack.append(_BatchResult(est, est, est, leaves))
            elif isinstance(op, _InSetOp):
                column = index.column(op.column)
                total = np.zeros(n, dtype=np.float64)
                for probe in op.probes:
                    total = total + _categorical_eq_batch(column, probe)
                est = _clip(total)
                stack.append(_BatchResult(est, est, est, [est]))
            elif isinstance(op, _ContainsOp):
                est, upper = _contains_batch(index.column(op.column), op.text)
                stack.append(_BatchResult(est, upper, est, [est]))
            elif isinstance(op, _NotOp):
                inner = stack.pop()
                stack.append(
                    _BatchResult(
                        _clip(1.0 - inner.high),
                        _clip(1.0 - inner.low),
                        _clip(1.0 - inner.indep),
                        [_clip(1.0 - leaf) for leaf in inner.leaves],
                    )
                )
            elif isinstance(op, _AndOp):
                results = stack[-op.arity :]
                del stack[-op.arity :]
                low = results[0].low.copy()
                high = results[0].high
                indep = results[0].indep.copy()
                for r in results[1:]:  # left-to-right, as the scalar sums
                    low += r.low
                    high = np.minimum(high, r.high)
                    indep *= r.indep
                low = _clip(low - (op.arity - 1))
                leaves = [leaf for r in results for leaf in r.leaves]
                stack.append(_BatchResult(low, _clip(high), _clip(indep), leaves))
            elif isinstance(op, _OrOp):
                results = stack[-op.arity :]
                del stack[-op.arity :]
                low = results[0].low
                high = results[0].high.copy()
                indep = results[0].indep  # the paper's OR rule: min
                for r in results[1:]:
                    low = np.maximum(low, r.low)
                    high += r.high
                    indep = np.minimum(indep, r.indep)
                leaves = [leaf for r in results for leaf in r.leaves]
                stack.append(
                    _BatchResult(_clip(low), _clip(high), _clip(indep), leaves)
                )
            else:  # pragma: no cover - compile only emits the ops above
                raise QueryScopeError(f"unknown plan op {type(op).__name__}")
        result = stack.pop()
        leaves = result.leaves or [result.indep]
        clause_min = leaves[0]
        clause_max = leaves[0]
        for leaf in leaves[1:]:
            clause_min = np.minimum(clause_min, leaf)
            clause_max = np.maximum(clause_max, leaf)
        return np.column_stack(
            [result.high, result.low, result.indep, clause_min, clause_max]
        )


class PlanCache:
    """Memo of compiled predicate plans with hit/miss accounting.

    Compilation depends only on the predicate — evaluation binds to a
    :class:`ColumnarSketchIndex` at call time — so one cache can be
    shared across every :class:`~repro.stats.features.FeatureBuilder`
    in the process (baselines build their own builders over the same
    workload and would otherwise recompile identical predicates).
    ``hits``/``misses`` make the reuse observable.

    Besides the local ``hits``/``misses``/``evictions`` integers, every
    event also increments ``plan_cache.hits|misses|evictions`` counters
    on the process-wide :func:`repro.obs.get_registry`, so cache behavior
    shows up in ``PS3.metrics()`` next to the latency histograms.
    """

    def __init__(self, limit: int = 256) -> None:
        self.limit = limit
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        registry = get_registry()
        self._hit_counter = registry.counter("plan_cache.hits")
        self._miss_counter = registry.counter("plan_cache.misses")
        self._eviction_counter = registry.counter("plan_cache.evictions")
        # hash(predicate) -> (predicate, plan), least recently used first.
        # Keyed by the hash so a lookup hashes once; the predicate beside
        # its plan confirms a hit (two predicates of one hash take turns).
        self._plans: dict[int, tuple[Predicate | None, PredicatePlan]] = {}
        # The LRU refresh (pop + reinsert) and the at-capacity eviction
        # are multi-step dict mutations; two concurrent ``get``s on the
        # same predicate could interleave pop/reinsert and raise
        # ``KeyError``, or both evict and lose live entries. Serving
        # shares one cache across every front-end thread, so every
        # public method runs under this lock.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._plans)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def get(self, predicate: Predicate | None):
        """The compiled plan for ``predicate``, compiling on first sight.

        Eviction is LRU over the insertion-ordered dict: a hit moves the
        predicate to the back, and a compile at capacity pops the front
        (the least recently used entry). The ``limit + 1``-th distinct
        predicate therefore costs exactly one eviction — a long-running
        process keeps its hot set instead of periodically dropping the
        whole cache and recompiling everything.

        Thread-safe: the whole lookup-or-compile runs under the cache
        lock, so concurrent callers of the same predicate get one
        compile and identical plan objects, and the LRU bookkeeping
        never tears.
        """
        key = hash(predicate)  # the lookup's one hash (nodes keep theirs)
        with self._lock:
            entry = self._plans.pop(key, None)
            if entry is not None and (entry[0] is predicate or entry[0] == predicate):
                self.hits += 1
                self._hit_counter.inc()
                self._plans[key] = entry
                return entry[1]
            self.misses += 1
            self._miss_counter.inc()
            plan = PredicatePlan.compile(predicate)
            if len(self._plans) >= self.limit:
                del self._plans[next(iter(self._plans))]
                self.evictions += 1
                self._eviction_counter.inc()
            self._plans[key] = (predicate, plan)
            return plan


#: Process-wide default cache, shared by all feature builders.
SHARED_PLAN_CACHE = PlanCache()


def _compile_node(node: Predicate, ops: list) -> None:
    if isinstance(node, Not):
        _compile_node(node.child, ops)
        ops.append(_NotOp())
        return
    if isinstance(node, And):
        joint, rest = _compile_joint_groups(node)
        ops.extend(joint)
        for child in rest:
            _compile_node(child, ops)
        ops.append(_AndOp(len(joint) + len(rest)))
        return
    if isinstance(node, Or):
        for child in node.children:
            _compile_node(child, ops)
        ops.append(_OrOp(len(node.children)))
        return
    ops.append(_compile_leaf(node))


def _compile_joint_groups(
    node: And,
) -> tuple[list[_JointIntervalOp], list[Predicate]]:
    """Compile-time twin of the scalar ``_joint_comparison_groups``."""
    mergeable: dict[str, list[Comparison]] = {}
    rest: list[Predicate] = []
    for child in node.children:
        if isinstance(child, Comparison) and child.op != "!=":
            mergeable.setdefault(child.column, []).append(child)
        else:
            rest.append(child)
    joint: list[_JointIntervalOp] = []
    for column, clauses in mergeable.items():
        if len(clauses) == 1:
            rest.append(clauses[0])
            continue
        interval = _Interval()
        for clause in clauses:
            interval.add(clause.op, clause.value)
        point_inside = False
        if interval.point is not None and not math.isnan(interval.point):
            inside_low = interval.point > interval.low or (
                interval.point == interval.low and interval.low_inclusive
            )
            inside_high = interval.point < interval.high or (
                interval.point == interval.high and interval.high_inclusive
            )
            point_inside = inside_low and inside_high
        joint.append(
            _JointIntervalOp(
                column=column,
                low=interval.low,
                high=interval.high,
                low_inclusive=interval.low_inclusive,
                high_inclusive=interval.high_inclusive,
                point=interval.point,
                point_inside=point_inside,
                nan_bound=interval.nan_bound,
                clauses=tuple((c.op, c.value) for c in clauses),
            )
        )
    return joint, rest


def _compile_leaf(node: Predicate):
    if isinstance(node, Comparison):
        return _ComparisonOp(node.column, node.op, node.value)
    if isinstance(node, InSet):
        # Members are str (``InSet`` normalizes them), so one hash is the
        # exact-dictionary key (on ``str(value)``), the heavy-hitter key
        # and, as a float, the hashed-histogram probe. Sorted: a set of
        # strings iterates in an order that changes with the process's
        # hash seed, and the sum over members follows it.
        keys = [hash_value(value) for value in sorted(node.values)]
        return _InSetOp(node.column, tuple((k, k, float(k)) for k in keys))
    if isinstance(node, Contains):
        return _ContainsOp(node.column, node.text)
    raise QueryScopeError(f"unsupported clause {type(node).__name__}")
