"""The flat histogram kernels against the scalar walks they stand in for.

``HistogramArrays`` answers the four selectivity primitives for every
partition at once from arrays it derives once per generation: flat
bucket vectors behind a NaN-edged sentinel bucket, exact prefix sums of
the depths, and the per-bucket interpolation guard and equality mass.
Each primitive must equal ``EquiDepthHistogram``'s own method row by row
— NaN for NaN, and a ``-0.0`` where the scalar gives one — on the inputs
where a shortcut goes wrong: rows padded to a wider block (and padded
again by an append's ``ColumnIndex.extended``, whose probe rows grow
behind the head's), a NaN last edge, ``±inf`` edges, ``totals == 0``,
partitions without a histogram, and probes that are NaN, ``±inf`` or
equal to an edge. The compiled plan over the same statistics must equal
``estimate_selectivity`` in all five features, and neither is ever NaN:
a bucket spanning from ``-inf`` is counted whole instead of interpolated
(``inf - inf``), so an infinite probe has a closed form.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sketch_oracle import (
    ColumnStatistics,
    PartitionStatistics,
    column_index,
    estimate_selectivity,
    histogram_arrays,
    index_rows,
)

from repro.engine.predicates import And, Comparison, Not
from repro.engine.schema import Column, ColumnKind
from repro.errors import ConfigError
from repro.sketches.columnar import ColumnarSketchIndex
from repro.sketches.histogram import EquiDepthHistogram
from repro.stats.plan import PredicatePlan

INF, NAN = math.inf, math.nan
COLUMN = Column("x", ColumnKind.NUMERIC)
# Infinite edges make spans and interpolations inf - inf.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")

VALUES = st.one_of(
    st.sampled_from([-INF, INF, NAN, 0.0, -0.0]),
    st.integers(-4, 4).map(float),
    st.floats(-5, 5, allow_nan=False, allow_infinity=False),
)


@st.composite
def histograms(draw):
    """Per-partition histograms of 1-6 buckets; some empty, some absent."""
    out = []
    for __ in range(draw(st.integers(1, 6))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            out.append(None)
            continue
        values = draw(st.lists(VALUES, min_size=1, max_size=30)) if kind > 1 else []
        buckets = draw(st.integers(1, 6))
        out.append(EquiDepthHistogram.build(np.array(values, np.float64), buckets))
    return out


def _stats(hists):
    return [ColumnStatistics(COLUMN, histogram=h) for h in hists]


def _arrays(hists, split):
    """The block built at once, or a head extended by the rest as an
    append does, after the head derived its probe (so the tail's probe
    rows grow behind the head's where the width holds)."""
    if 0 < split < len(hists):
        stats = _stats(hists)
        head = column_index(COLUMN.name, stats[:split])
        head.hist.fraction_leq(0.0)
        tail = column_index(COLUMN.name, stats[split:], split)
        return head.extended(index_rows(tail)).hist
    return histogram_arrays(_stats(hists))


def _probes(hists, extra):
    edges = [float(e) for h in hists if h is not None for e in h.edges]
    return [NAN, INF, -INF, 0.0, -0.0, *edges, *extra]


def _assert_same(batch, scalar, what):
    expected = np.array(scalar, dtype=np.float64)
    assert np.array_equal(batch, expected, equal_nan=True), what
    finite = ~np.isnan(expected)
    signs = np.signbit(batch[finite]), np.signbit(expected[finite])
    assert np.array_equal(*signs), what


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    hists=histograms(),
    split=st.integers(0, 6),
    extra=st.lists(VALUES, max_size=3),
    flags=st.tuples(st.booleans(), st.booleans()),
)
def test_primitives_equal_the_scalar_histogram(hists, split, extra, flags):
    arrays = _arrays(hists, split)
    rows = [i for i, h in enumerate(hists) if h is not None]
    present = [hists[i] for i in rows]
    probes = _probes(hists, extra)
    for value in probes:
        for name in ("fraction_leq", "fraction_lt", "fraction_eq"):
            batch = getattr(arrays, name)(value)[rows]
            scalar = [getattr(h, name)(value) for h in present]
            _assert_same(batch, scalar, (name, value))
    for low in probes[:6] + extra:
        for high in probes[:6] + extra:
            batch = arrays.fraction_in_interval(low, high, *flags)[rows]
            scalar = [h.fraction_in_interval(low, high, *flags) for h in present]
            _assert_same(batch, scalar, ("interval", low, high, flags))


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    hists=histograms(), split=st.integers(0, 6), extra=st.lists(VALUES, max_size=2)
)
def test_plan_equals_estimate_selectivity(hists, split, extra):
    stats = _stats(hists)
    column = column_index("x", stats)
    if 0 < split < len(hists):
        head = column_index("x", stats[:split])
        column = head.extended(index_rows(column_index("x", stats[split:], split)))
    index = ColumnarSketchIndex({"x": column}, len(hists))
    partitions = [
        PartitionStatistics(i, 0, {"x": cstats}) for i, cstats in enumerate(stats)
    ]
    values = _probes(hists, extra)[:8]
    ops = ("<", "<=", ">", ">=", "==", "!=")
    predicates = [Comparison("x", op, v) for op in ops for v in values]
    predicates += [Not(p) for p in predicates[::5]]
    predicates += [
        And([Comparison("x", ">", low), Comparison("x", "<=", high)])
        for low in values[:4]
        for high in values[:4]
    ]
    for predicate in predicates:
        planned = PredicatePlan.compile(predicate).evaluate(index)
        estimates = [estimate_selectivity(predicate, x) for x in partitions]
        scalar = np.array([dataclasses.astuple(e) for e in estimates])
        _assert_same(planned.ravel(), scalar.ravel(), predicate.label())
        if not math.isnan(getattr(predicate, "value", 0.0)):
            assert not np.isnan(planned).any(), predicate.label()


def test_edges_that_do_not_ascend_fail_typed():
    hist = EquiDepthHistogram.build(np.arange(1.0, 7.0), 3)  # edges 1 2 4 6
    for edges in ([1.0, 3.0, 2.0, 4.0], [1.0, NAN, 2.0, 4.0]):
        bad = histogram_arrays(_stats([hist]))
        bad.edges = np.array([edges])
        with pytest.raises(ConfigError, match="ascend"):
            bad.fraction_leq(2.5)
