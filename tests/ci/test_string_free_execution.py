"""Perf guards that can go red without a clock.

Dictionary encodings are built once per table generation; after a
warm-up pass a query must neither build one nor hand a row-length string
array to ``numpy.unique`` / ``numpy.isin`` / ``numpy.char.find`` from an
executor frame — that per-query string work is what made ``scan_heavy``
run at 4x the numpy floor. Both are counted here, not timed: the
``engine.dictionary.builds`` counter through ``PS3.metrics()``, and the
three numpy entry points through wrappers that look at their first
argument and at who is on the stack.

Nor may an execution leave cyclic garbage behind: a cycle that reaches
the gathered columns (a recursive closure over them did) keeps megabytes
alive per query until the collector runs — ``scan_heavy``'s peak RSS read
+12 % and kept climbing pass after pass until the cycle was removed. The
same holds for a whole table generation: once ``PS3.append`` has swapped
the table, the old one — columns, row ids, dictionary codes — must die by
reference count (``BatchExecutor`` used to point back at the table that
memoizes it; ``ingest_mixed`` peaked at twice the memory for it). The
generation ``fit`` answered its training queries on is no exception.
"""

from __future__ import annotations

import gc
import sys
import weakref

import numpy as np
import pytest

from repro.api import PS3
from repro.datasets.registry import get_dataset
from repro.engine.batch_executor import BatchExecutor, fused_view
from repro.engine.predicates import Contains, InSet
from repro.workload.generator import QueryGenerator

EXECUTOR_FILES = ("batch_executor.py",)
NUM_QUERIES = 50


def _called_from_an_executor() -> bool:
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_code.co_filename.endswith(EXECUTOR_FILES):
            return True
        frame = frame.f_back
    return False


@pytest.fixture(scope="module")
def system_and_queries():
    spec = get_dataset("kdd")
    ptable = spec.build(2000, 8, seed=4)
    workload = spec.workload()
    generator = QueryGenerator(workload, ptable.table, seed=8)
    system = PS3(ptable, workload).fit(generator.sample_queries(8))
    queries = []
    while len(queries) < NUM_QUERIES:
        query = generator.sample_query()
        leaves = query.predicate.leaves() if query.predicate is not None else ()
        if query.group_by or any(isinstance(c, (InSet, Contains)) for c in leaves):
            queries.append(query)
    return system, queries


def test_warm_queries_build_nothing_and_touch_no_string_rows(
    system_and_queries, monkeypatch
):
    system, queries = system_and_queries
    ptable = system.ptable
    row_length = min(len(partition) for partition in ptable)
    string_columns = [
        name for name, arr in ptable.table.columns.items() if arr.dtype.kind == "U"
    ]
    # "Row-length" must not also describe a dictionary, or the guard
    # could not tell the work it allows from the work it forbids.
    assert string_columns
    assert all(
        len(np.unique(ptable.table.columns[name])) < row_length
        for name in string_columns
    )
    assert any(q.group_by for q in queries)
    leaves = [c for q in queries if q.predicate for c in q.predicate.leaves()]
    assert any(isinstance(c, InSet) for c in leaves)
    assert any(isinstance(c, Contains) for c in leaves)

    for query in queries:  # warm-up: every dictionary a query needs
        system.query(query, budget_fraction=0.5)
    builds = system.metrics()["counters"]["engine.dictionary.builds"]
    assert builds >= 1

    offences, executor_calls = [], []

    def watch(owner, name):
        original = getattr(owner, name)

        def wrapper(first, *args, **kwargs):
            if _called_from_an_executor():
                array = np.asarray(first)
                executor_calls.append(name)
                if array.dtype.kind in "USO" and array.size >= row_length:
                    offences.append((name, array.dtype.str, array.size))
            return original(first, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    watch(np, "unique")
    watch(np, "isin")
    watch(np.char, "find")
    for query in queries:
        system.query(query, budget_fraction=0.5)
    monkeypatch.undo()

    assert offences == []
    # The wrappers did sit on the path: string leaves were decided on
    # dictionaries (short arrays) from inside the executor.
    assert "isin" in executor_calls and "find" in executor_calls
    assert system.metrics()["counters"]["engine.dictionary.builds"] == builds


def test_execution_leaves_no_reference_cycles(system_and_queries):
    system, queries = system_and_queries
    executor = BatchExecutor.for_table(system.ptable)
    nested = [q for q in queries if q.predicate and len(q.predicate.leaves()) > 1]
    assert nested
    for query in queries:  # warm-up: dictionaries, lazy imports
        executor.partition_answers(query, partitions=[5, 0, 3])
    gc.collect()
    gc.disable()
    try:
        for query in queries:
            executor.partition_answers(query, partitions=[5, 0, 3])
            executor.partition_answers(query)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_an_appended_over_generation_dies_by_reference_count():
    spec = get_dataset("kdd")
    ptable = spec.build(2000, 8, seed=4)
    workload = spec.workload()
    generator = QueryGenerator(workload, ptable.table, seed=8)
    system = PS3(ptable, workload).fit(generator.sample_queries(8))
    del ptable
    queries = generator.sample_queries(10)
    rows = dict(spec.build(250, 1, seed=9).table.columns)
    system.append(rows)  # a generation only the online path has touched
    for query in queries:
        system.query(query, budget_fraction=0.5)
    gc.collect()
    gc.disable()
    try:
        table = weakref.ref(system.ptable)
        view = weakref.ref(fused_view(system.ptable))
        assert view()._encoded
        system.append(rows)
        assert table() is None and view() is None
    finally:
        gc.enable()


def test_the_training_generation_dies_by_reference_count():
    spec = get_dataset("kdd")
    ptable = spec.build(2000, 8, seed=4)
    workload = spec.workload()
    generator = QueryGenerator(workload, ptable.table, seed=8)
    train = generator.sample_queries(8)
    PS3(ptable, workload).fit(train)  # warm-up: lazy imports
    system = PS3(spec.build(2000, 8, seed=4), workload)
    del ptable
    rows = dict(spec.build(250, 1, seed=9).table.columns)
    gc.collect()
    gc.disable()
    try:
        system.fit(train)
        assert gc.collect() == 0
        table = weakref.ref(system.ptable)
        executor = weakref.ref(BatchExecutor.for_table(system.ptable))
        view = weakref.ref(executor().view)
        assert view()._encoded  # the training answers went through it
        system.append(rows)
        assert table() is None and executor() is None and view() is None
    finally:
        gc.enable()
