"""The compiled plan against the scalar estimator on non-finite edges.

A histogram's first edge is a partition's minimum and its last edge the
maximum, so ``-inf`` / ``+inf`` rows put infinite end edges into the
index and a NaN row (``np.unique`` sorts it last) a NaN last edge. Range
clauses reach the histogram primitives with infinite bounds — ``x > v``
is the interval ``(v, +inf]`` — so these are the inputs on which a
closed form for an infinite bound can disagree with the primitive it
stands in for. Every estimate must equal the scalar
``estimate_selectivity`` walk exactly, no estimate may be NaN, and
``upper`` must be positive wherever a row passes: a bucket spanning from
``-inf`` is counted whole rather than interpolated (``inf - inf``), so
``x <= -inf`` estimates the first bucket's mass. A full budget must
answer every range op at ``±inf`` as ``execute_exact`` does.

A range clause against a NaN constant (``x < NaN``, alone or in a joint
interval) passes no row, so both paths estimate it as exactly 0 without
probing a histogram; negated, it passes every row, and a full budget
must answer it as ``execute_exact`` does.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from sketch_oracle import estimate_selectivity, oracle_dataset

from repro.api import PS3
from repro.core.training import TrainingConfig
from repro.datasets.registry import get_dataset
from repro.engine.aggregates import count_star, sum_of
from repro.engine.expressions import col
from repro.engine.layout import partition_evenly
from repro.engine.predicates import And, Comparison, Not
from repro.engine.query import Query
from repro.engine.table import Table
from repro.workload import QueryGenerator
from repro.sketches.builder import build_dataset_statistics
from repro.stats.plan import PredicatePlan

PARTITIONS, ROWS_PER_PARTITION = 8, 60
INF, NAN = math.inf, math.nan
# Infinite rows make the measure statistics (mean, std) inf - inf.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")
OPS = ("<", "<=", ">", ">=", "==", "!=")

#: partition -> the duration values written over its first rows.
PLANTED = {
    0: (NAN,),
    1: (INF,),
    2: (-INF,),
    3: (-INF, INF, NAN),
    4: (INF,) * ROWS_PER_PARTITION,  # edges [+inf, +inf]
    5: (-INF,) * ROWS_PER_PARTITION,  # edges [-inf, -inf]
    6: (-INF,) * (ROWS_PER_PARTITION // 2) + (INF,) * (ROWS_PER_PARTITION // 2),
}


def planted_ptable(with_nan: bool = True):
    """kdd rows with the ``PLANTED`` duration values; without NaN rows
    (zeroed) when ``with_nan`` is false."""
    dataset = get_dataset("kdd")
    table = dataset.generate(PARTITIONS * ROWS_PER_PARTITION, 31)
    columns = dict(table.columns)
    duration = np.array(columns["duration"], dtype=np.float64)
    for partition, planted in PLANTED.items():
        start = partition * ROWS_PER_PARTITION
        duration[start : start + len(planted)] = planted
    if not with_nan:
        duration[np.isnan(duration)] = 0.0
    columns["duration"] = duration
    return partition_evenly(Table(table.schema, columns), PARTITIONS)


@pytest.fixture(scope="module", params=[True, False], ids=["nan", "no-nan"])
def statistics(request):
    """The planted table's oracle sketches and sealed index, and the same
    without its NaN rows: a guard that gives up on the whole call when
    any edge is NaN must still meet the infinite edges."""
    ptable = planted_ptable(request.param)
    return (
        oracle_dataset(ptable),
        build_dataset_statistics(ptable).index,
        request.param,
        ptable,
    )


def _values(stats) -> tuple[float, ...]:
    """An in-range value, an edge value, both infinities and NaN."""
    finite = [
        edge
        for partition in stats.partitions
        for edge in partition.columns["duration"].histogram.edges
        if np.isfinite(edge)
    ]
    return (float(np.median(finite)), float(max(finite)), INF, -INF, NAN)


def _predicates(stats):
    in_range, edge = _values(stats)[:2]
    comparisons = [Comparison("duration", op, v) for op in OPS for v in _values(stats)]
    bounds = ((-INF, in_range), (in_range, INF), (-INF, edge), (edge, INF))
    intervals = [
        And([Comparison("duration", lo_op, lo), Comparison("duration", hi_op, hi)])
        for lo, hi in bounds
        for lo_op in (">", ">=")
        for hi_op in ("<", "<=")
    ]
    return comparisons + [Not(c) for c in comparisons] + intervals


def test_the_table_has_every_non_finite_edge(statistics):
    stats, index, with_nan, __ = statistics
    edges = index.column("duration").hist.edges
    assert np.isnan(edges[:, -1]).any() == with_nan
    assert (edges[:, -1] == INF).any() and (edges[:, 0] == -INF).any()
    assert (edges[:, 0] == INF).any() and (edges[:, -1] == -INF).any()
    assert len(_predicates(stats)) >= 72


def test_plan_equals_the_scalar_walk_exactly(statistics):
    stats, index, __, ptable = statistics
    mismatches, nans, dropped = [], [], []
    for predicate in _predicates(stats):
        planned = PredicatePlan.compile(predicate).evaluate(index)
        scalar = np.array(
            [
                dataclasses.astuple(estimate_selectivity(predicate, partition))
                for partition in stats.partitions
            ]
        )
        if not np.array_equal(planned, scalar, equal_nan=True):
            mismatches.append(predicate.label())
        if np.isnan(planned).any():
            nans.append(predicate.label())
        passing = [predicate.mask(p.columns).any() for p in ptable]
        if ((planned[:, 0] <= 0.0) & passing).any():
            dropped.append(predicate.label())
    assert mismatches == [] and nans == [] and dropped == []


def _nan_ranges():
    """Every range op against NaN, alone and beside a passing bound."""
    for op in ("<", "<=", ">", ">="):
        yield Comparison("duration", op, NAN)
        yield And([Comparison("duration", ">", -1.0), Comparison("duration", op, NAN)])


def test_a_range_against_nan_is_estimated_as_no_row(statistics):
    stats, index, __, ___ = statistics
    for predicate in _nan_ranges():
        planned = PredicatePlan.compile(predicate).evaluate(index)
        assert (planned[:, :3] == 0.0).all(), predicate.label()  # upper, lower, indep
        negated = PredicatePlan.compile(Not(predicate)).evaluate(index)
        assert (negated[:, 0] == 1.0).all(), predicate.label()


def test_a_full_budget_answers_a_negated_nan_range_exactly():
    spec = get_dataset("kdd")
    ptable = spec.build(PARTITIONS * ROWS_PER_PARTITION, PARTITIONS, seed=7)
    workload = spec.workload()
    train = QueryGenerator(workload, ptable.table, seed=7).sample_queries(6)
    ps3 = PS3(ptable, workload).fit(train, TrainingConfig(num_models=1, gbrt_trees=2))
    measure = workload.aggregate_columns[0]
    for predicate in _nan_ranges():
        for clause in (predicate, Not(predicate)):
            query = Query([sum_of(col(measure)), count_star()], clause)
            exact = ps3.execute_exact(query)
            full = ps3.query(query, budget_fraction=1.0).groups
            assert bool(exact) == isinstance(clause, Not), clause.label()
            assert repr(list(full)) == repr(list(exact)), clause.label()
            for key in full:
                assert full[key].tobytes() == exact[key].tobytes(), clause.label()


def _infinite_ranges():
    """Every range op at ``±inf``: alone, in a joint interval with a
    finite bound, and each of those negated."""
    for op in ("<", "<=", ">", ">="):
        for bound in (INF, -INF):
            alone = Comparison("duration", op, bound)
            joint = And([Comparison("duration", ">=", -1.0), alone])
            for clause in (alone, joint):
                yield clause
                yield Not(clause)
    for low_op in (">", ">="):
        for high_op in ("<", "<="):
            yield And(
                [
                    Comparison("duration", low_op, -INF),
                    Comparison("duration", high_op, INF),
                ]
            )


def test_a_full_budget_answers_an_infinite_range_exactly():
    """At ``budget_fraction=1.0`` no partition holding a passing row may
    be dropped: ``duration <= -inf`` once lost the ``-inf`` rows of
    partitions whose first bucket spans to a finite edge."""
    ptable = planted_ptable()
    spec = get_dataset("kdd")
    workload = spec.workload()
    train = QueryGenerator(workload, ptable.table, seed=7).sample_queries(8)
    ps3 = PS3(ptable, workload).fit(train, TrainingConfig(num_models=1, gbrt_trees=2))
    measure = workload.aggregate_columns[0]
    wrong = []
    for clause in _infinite_ranges():
        query = Query([sum_of(col(measure)), count_star()], clause)
        exact = ps3.execute_exact(query)
        full = ps3.query(query, budget_fraction=1.0).groups
        same = repr(list(full)) == repr(list(exact)) and all(
            full[key].tobytes() == exact[key].tobytes() for key in full
        )
        if not same:
            wrong.append(clause.label())
    assert wrong == []
