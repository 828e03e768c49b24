"""What a cold pick's featurize may derive or read, counted rather than timed.

The histogram kernels read arrays each ``HistogramArrays`` derives from
its own data (flat buckets, prefix sums, guards): derived once per
column per statistics generation, never persisted, so ``array_state``
and the bundle keep their keys and bytes. A spy on the derivation counts
it across cold picks and an append. An ``IN`` or ``Contains`` clause on
a column whose every exact dictionary is usable (every ``kdd``
categorical) is answered by the dictionaries alone: evaluated against an
index whose histograms and heavy-hitter tables raise on any read, it
gives the same bytes. Compiling an ``IN`` hashes each string value once.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from functools import cached_property

import numpy as np
import pytest

import repro.stats.plan as plan_module
from repro.api import PS3
from repro.core.training import TrainingConfig
from repro.datasets.registry import get_dataset
from repro.engine.predicates import Contains, InSet, Not, Or
from repro.sketches.columnar import ColumnarSketchIndex, ColumnIndex, HistogramArrays
from repro.stats.plan import PredicatePlan
from repro.workload.generator import QueryGenerator

#: The persisted fields of one column of the index, in bundle order.
ARRAY_FIELDS = (
    "stats",
    "hist.edges",
    "hist.depths",
    "hist.distincts",
    "hist.totals",
    "hist.has",
    "hh_lookup.keys",
    "hh_lookup.parts",
    "hh_lookup.values",
    "hh_strings.unique_values",
    "hh_strings.codes",
    "hh_strings.parts",
    "hh_strings.weights",
    "hh_covered",
    "ed_usable",
    "ed_totals",
    "ed_lookup.keys",
    "ed_lookup.parts",
    "ed_lookup.values",
    "ed_strings.unique_values",
    "ed_strings.codes",
    "ed_strings.parts",
    "ed_strings.weights",
)


@pytest.fixture(scope="module")
def inputs():
    spec = get_dataset("kdd")
    ptable = spec.build(3_200, 16, seed=4)
    workload = spec.workload()
    generator = QueryGenerator(workload, ptable.table, seed=8)
    train, queries = generator.train_test_split(8, 40)
    appended = dict(spec.build(200, 1, seed=9).table.columns)
    return ptable, workload, train, queries, appended


@pytest.fixture
def derivations(monkeypatch):
    """Ids of the ``HistogramArrays`` whose probe arrays were derived."""
    built: list[int] = []
    derive = HistogramArrays._probe.func

    def counting(self):
        built.append(id(self))
        return derive(self)

    spied = cached_property(counting)
    spied.__set_name__(HistogramArrays, "_probe")
    monkeypatch.setattr(HistogramArrays, "_probe", spied)
    return built


def _state_bytes(index: ColumnarSketchIndex) -> dict:
    return {
        (name, key): array.tobytes()
        for name, column in index.array_state().items()
        for key, array in column.items()
    }


def test_probe_arrays_are_derived_once_per_column_per_generation(
    inputs, derivations
):
    ptable, workload, train, queries, appended = inputs
    system = PS3(ptable, workload).fit(train, TrainingConfig(num_models=1))
    index = system.feature_builder.sketch_index
    assert ColumnIndex.ARRAY_FIELDS == ARRAY_FIELDS
    persisted = _state_bytes(index)
    for budget in (0.25, 0.375):  # the second budget misses the pick memo
        for query in queries:
            system.query(query, budget_fraction=budget)
    first = {id(column.hist) for column in index.columns.values()}
    counts = Counter(derivations)
    assert set(counts) <= first and set(counts.values()) == {1}
    assert len(counts) >= 3  # the spy sat
    for column in index.array_state().values():
        assert tuple(column) == ARRAY_FIELDS
    assert _state_bytes(index) == persisted

    system.append(appended)
    index = system.feature_builder.sketch_index
    del derivations[:]
    for query in queries:
        system.query(query, budget_fraction=0.25)
    second = {id(column.hist) for column in index.columns.values()}
    counts = Counter(derivations)
    assert set(counts) <= second and set(counts.values()) == {1}
    assert counts


class _Unreadable:
    """Stands in for a sketch table that must not be read."""

    def __getattr__(self, name):
        raise AssertionError(f"read .{name} of a table the dictionaries replace")


def test_exact_dictionaries_answer_in_and_contains_alone(inputs):
    ptable, workload, train, __, __ = inputs
    system = PS3(ptable, workload).fit(train, TrainingConfig(num_models=1))
    index = system.feature_builder.sketch_index
    exact = [name for name, c in index.columns.items() if c.exact_everywhere]
    assert len(exact) >= 3
    for name in exact:
        column = index.column(name)
        guarded = ColumnarSketchIndex(
            {
                **index.columns,
                name: dataclasses.replace(
                    column,
                    hist=_Unreadable(),
                    hh_lookup=_Unreadable(),
                    hh_strings=_Unreadable(),
                ),
            },
            index.num_partitions,
        )
        present = {str(v) for v in np.unique(ptable.table.columns[name])[:3]}
        for predicate in (
            InSet(name, present | {"absent-value"}),
            Contains(name, min(present)[:1]),
            Not(Or([InSet(name, present), Contains(name, "zz")])),
        ):
            plan = PredicatePlan.compile(predicate)
            expected = plan.evaluate(index).tobytes()
            assert plan.evaluate(guarded).tobytes() == expected, predicate.label()


def test_compiling_an_in_hashes_each_string_once(monkeypatch):
    hashed = []
    hash_value = plan_module.hash_value

    def counting(value):
        hashed.append(value)
        return hash_value(value)

    monkeypatch.setattr(plan_module, "hash_value", counting)
    PredicatePlan.compile(InSet("service", {"http", "ftp", "smtp", "absent"}))
    assert sorted(hashed) == ["absent", "ftp", "http", "smtp"]
