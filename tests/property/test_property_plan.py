"""Property tests: the vectorized predicate plan equals the scalar oracle.

The batch path (`PredicatePlan` over a `ColumnarSketchIndex`) replaces
the per-partition `estimate_selectivity` loop in the picker's hot path,
so it must reproduce the scalar estimator's five selectivity features on
arbitrary data and arbitrary in-scope predicates. Hypothesis drives
random tables, partitionings, and predicate trees — including
same-column comparison merging, conflicting equalities, NOT/AND/OR
nesting, IN sets with absent values, and substring filters on both
dictionary-backed and heavy-hitter-backed columns — and asserts
agreement within 1e-12.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from sketch_oracle import estimate_selectivity, oracle_dataset

from repro.engine.layout import partition_evenly
from repro.engine.predicates import And, Comparison, Contains, InSet, Not, Or
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table
from repro.sketches.builder import SketchConfig, build_dataset_statistics
from repro.stats.plan import PredicatePlan

SCHEMA = Schema.of(
    Column("num", ColumnKind.NUMERIC),
    Column("day", ColumnKind.DATE),
    Column("cat", ColumnKind.CATEGORICAL, low_cardinality=True),
    Column("tag", ColumnKind.CATEGORICAL),  # high-cardinality: no dictionary
)

_CATS = ["alpha", "beta", "gamma", "delta"]
_TAGS = [f"t{i:03d}" for i in range(40)]


@st.composite
def tables(draw):
    n = draw(st.integers(8, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    return Table(
        SCHEMA,
        {
            "num": rng.normal(0, 10, n).round(1),
            "day": rng.integers(0, 30, n),
            "cat": rng.choice(_CATS, n),
            "tag": rng.choice(_TAGS, n),
        },
    )


@st.composite
def clauses(draw):
    kind = draw(st.integers(0, 5))
    if kind == 0:
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
        return Comparison("num", op, draw(st.floats(-25, 25)))
    if kind == 1:
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "=="]))
        return Comparison("day", op, draw(st.integers(-5, 35)))
    if kind == 2:
        values = draw(st.sets(st.sampled_from(_CATS + ["missing"]), min_size=1))
        return InSet("cat", values)
    if kind == 3:
        values = draw(st.sets(st.sampled_from(_TAGS + ["zzz"]), min_size=1))
        return InSet("tag", values)
    if kind == 4:
        column = draw(st.sampled_from(["cat", "tag"]))
        text = draw(st.sampled_from(["al", "a", "zz", "et", "t0", "t01"]))
        return Contains(column, text)
    return Not(draw(clauses_simple()))


@st.composite
def clauses_simple(draw):
    op = draw(st.sampled_from(["<", ">", "=="]))
    return Comparison("num", op, draw(st.floats(-25, 25)))


@st.composite
def same_column_group(draw):
    """AND children that exercise joint-interval merging and conflicts."""
    column = draw(st.sampled_from(["num", "day"]))
    count = draw(st.integers(2, 3))
    out = []
    for __ in range(count):
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "=="]))
        value = (
            draw(st.floats(-25, 25))
            if column == "num"
            else float(draw(st.integers(-5, 35)))
        )
        out.append(Comparison(column, op, value))
    return out


@st.composite
def predicates(draw):
    depth = draw(st.integers(0, 2))
    if depth == 0:
        return draw(clauses())
    if depth == 1:
        children = draw(st.lists(clauses(), min_size=2, max_size=4))
        if draw(st.booleans()):
            children = children + draw(same_column_group())
        connective = draw(st.sampled_from([And, Or]))
        return connective(children)
    inner = draw(st.lists(predicates_shallow(), min_size=2, max_size=3))
    connective = draw(st.sampled_from([And, Or]))
    node = connective(inner)
    return Not(node) if draw(st.booleans()) else node


@st.composite
def predicates_shallow(draw):
    children = draw(st.lists(clauses(), min_size=1, max_size=3))
    connective = draw(st.sampled_from([And, Or]))
    return connective(children)


def _scalar_matrix(predicate, ptable, config=None) -> np.ndarray:
    return np.array(
        [
            dataclasses.astuple(estimate_selectivity(predicate, pstats))
            for pstats in oracle_dataset(ptable, config).partitions
        ]
    )


class TestPlanMatchesScalarOracle:
    @given(tables(), predicates(), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_plan_equals_scalar_estimator(self, table, predicate, num_partitions):
        num_partitions = min(num_partitions, table.num_rows)
        ptable = partition_evenly(table, num_partitions)
        config = SketchConfig(histogram_buckets=4, akmv_k=8, exact_dict_limit=8)
        index = build_dataset_statistics(ptable, config).index
        batch = PredicatePlan.compile(predicate).evaluate(index)
        scalar = _scalar_matrix(predicate, ptable, config)
        np.testing.assert_allclose(batch, scalar, rtol=0.0, atol=1e-12)

    @given(tables(), predicates())
    @settings(max_examples=60, deadline=None)
    def test_plan_features_bounded_and_ordered(self, table, predicate):
        ptable = partition_evenly(table, 3)
        index = build_dataset_statistics(ptable).index
        batch = PredicatePlan.compile(predicate).evaluate(index)
        assert np.all((batch >= 0.0) & (batch <= 1.0))
        assert np.all(batch[:, 1] <= batch[:, 0] + 1e-9)  # lower <= upper
        assert np.all(batch[:, 3] <= batch[:, 4] + 1e-9)  # min <= max

    @given(tables(), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_conflicting_equalities_and_tautologies(self, table, num_partitions):
        ptable = partition_evenly(table, min(num_partitions, table.num_rows))
        index = build_dataset_statistics(ptable).index
        conflict = And(
            [Comparison("num", "==", 1.0), Comparison("num", "==", 2.0)]
        )
        batch = PredicatePlan.compile(conflict).evaluate(index)
        assert np.all(batch[:, 0] == 0.0)  # upper: no row can satisfy both
        tautology = Or(
            [Comparison("num", "<", 1e6), Comparison("num", ">=", 1e6)]
        )
        batch = PredicatePlan.compile(tautology).evaluate(index)
        np.testing.assert_allclose(
            batch, _scalar_matrix(tautology, ptable), rtol=0.0, atol=1e-12
        )
