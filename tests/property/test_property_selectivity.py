"""Property-based tests for selectivity estimation soundness.

The picker silently drops partitions with ``selectivity_upper == 0``, so
that feature must have *perfect recall* against arbitrary data and
arbitrary in-scope predicates — the single most safety-critical invariant
in the system. Hypothesis drives random tables, partitionings, and
predicate trees against it.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from sketch_oracle import build_partition_statistics, estimate_selectivity

from repro.engine.layout import partition_evenly
from repro.engine.predicates import And, Comparison, Contains, InSet, Not, Or
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table
from repro.sketches.builder import SketchConfig

SCHEMA = Schema.of(
    Column("num", ColumnKind.NUMERIC),
    Column("day", ColumnKind.DATE),
    Column("cat", ColumnKind.CATEGORICAL, low_cardinality=True),
)

_CATS = ["alpha", "beta", "gamma", "delta"]


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
        },
    )


@st.composite
def clauses(draw):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
        return Comparison("num", op, draw(st.floats(-25, 25)))
    if kind == 1:
        op = draw(st.sampled_from(["<", "<=", ">", ">="]))
        return Comparison("day", op, draw(st.integers(-5, 35)))
    if kind == 2:
        values = draw(st.sets(st.sampled_from(_CATS + ["missing"]), min_size=1))
        return InSet("cat", values)
    if kind == 3:
        return Contains("cat", draw(st.sampled_from(["al", "a", "zz", "et"])))
    return Not(draw(clauses_simple()))


@st.composite
def clauses_simple(draw):
    op = draw(st.sampled_from(["<", ">", "=="]))
    return Comparison("num", op, draw(st.floats(-25, 25)))


@st.composite
def predicates(draw):
    depth = draw(st.integers(0, 1))
    if depth == 0:
        return draw(clauses())
    children = draw(st.lists(clauses(), min_size=2, max_size=4))
    connective = draw(st.sampled_from([And, Or]))
    return connective(children)


class TestSelectivitySoundness:
    @given(tables(), predicates(), st.integers(1, 6))
    @settings(max_examples=120, deadline=None)
    def test_perfect_recall_of_upper(self, table, predicate, num_partitions):
        num_partitions = min(num_partitions, table.num_rows)
        ptable = partition_evenly(table, num_partitions)
        for partition in ptable:
            truth = float(predicate.mask(partition.columns).mean())
            stats = build_partition_statistics(
                partition, SketchConfig(histogram_buckets=4, akmv_k=8)
            )
            estimate = estimate_selectivity(predicate, stats)
            if truth > 0.0:
                assert estimate.upper > 0.0, (
                    f"recall violated: {predicate.label()} has true "
                    f"selectivity {truth} but upper == 0"
                )

    @given(tables(), predicates())
    @settings(max_examples=120, deadline=None)
    def test_features_bounded_and_ordered(self, table, predicate):
        ptable = partition_evenly(table, 1)
        stats = build_partition_statistics(ptable[0])
        estimate = estimate_selectivity(predicate, stats)
        for value in dataclasses.astuple(estimate):
            assert 0.0 <= value <= 1.0
        assert estimate.lower <= estimate.upper + 1e-9
        assert estimate.clause_min <= estimate.clause_max + 1e-9

    @given(tables(), clauses())
    @settings(max_examples=100, deadline=None)
    def test_single_clause_estimate_near_truth(self, table, clause):
        """Leaf estimates track truth within coarse histogram error."""
        ptable = partition_evenly(table, 1)
        stats = build_partition_statistics(ptable[0])
        truth = float(clause.mask(ptable[0].columns).mean())
        estimate = estimate_selectivity(clause, stats)
        assert abs(estimate.indep - truth) <= 0.45

    @given(tables())
    @settings(max_examples=40, deadline=None)
    def test_tautology_and_contradiction(self, table):
        ptable = partition_evenly(table, 1)
        stats = build_partition_statistics(ptable[0])
        tautology = Or([Comparison("num", "<", 1e6), Comparison("num", ">=", 1e6)])
        assert estimate_selectivity(tautology, stats).upper > 0.99
        contradiction = And(
            [Comparison("num", "<", -1e6), Comparison("num", ">", 1e6)]
        )
        assert estimate_selectivity(contradiction, stats).upper == 0.0
