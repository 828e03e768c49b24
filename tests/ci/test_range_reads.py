"""Subset execution reads row ranges, counted not timed.

A selected partition is one contiguous row range of the fused table, so
an online answer reads its partitions as ranges: every read of a fused
column or dictionary-code array before the predicate's mask — and every
read of an unfiltered subset query — must be a slice, one per selected
partition, in selection order. Gathers by row id belong after the mask
and cover the kept rows only; building a row-id vector over every
selected row and gathering through it was a quarter of ``scan_heavy``'s
execution time.

The spies are ``ndarray`` subclasses swapped into one table's fused view
(its columns, its dictionary codes, its row-to-partition vector); each
records the key of every ``[]`` / ``take`` on itself. They watch direct
``partition_answers`` calls and the online routes (``PS3.query``,
``query_many``, a served micro-batch), split at the mask by a wrapper
around ``FusedTableView.mask``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import PS3
from repro.datasets.registry import get_dataset
from repro.engine.aggregates import count_star, sum_of
from repro.engine.batch_executor import BatchExecutor, fused_view, read_rows
from repro.engine.expressions import col
from repro.engine.layout import append_rows
from repro.engine.query import Query
from repro.workload.generator import QueryGenerator

SELECTIONS = ([5, 0, 3], [2, 3, 4], [7, 7, 1], list(range(8))[::-1], [6], [])


class SpiedArray(np.ndarray):
    """Logs every ``[]`` / ``take`` key on the spied array itself; its
    views and copies (whose ``log`` stays ``None``) are not watched."""

    log = None

    def __getitem__(self, key):
        if self.log is not None:
            self.log(key)
        return super().__getitem__(key)

    def take(self, indices, *args, **kwargs):
        if self.log is not None:
            self.log(np.asarray(indices))
        return super().take(indices, *args, **kwargs)


def _describe(key):
    if isinstance(key, slice):
        return ("slice", key.start, key.stop)
    key = np.asarray(key)
    return (key.dtype.kind, key.size)


class Reads:
    """Per ``partition_answers`` call: the query, the partitions, the
    kept-row count and every spied read with its phase."""

    def __init__(self) -> None:
        self.calls: list[dict] = []

    def begin(self, query, partitions) -> None:
        call = {"query": query, "partitions": partitions, "kept": None}
        self.calls.append({**call, "phase": "before", "reads": []})

    def logger(self, name):
        def log(key):
            call = self.calls[-1]
            call["reads"].append((call["phase"], name, _describe(key)))

        return log


def _spied(array, log):
    spied = array.view(SpiedArray)
    spied.log = log
    return spied


@pytest.fixture
def spy(monkeypatch):
    """``spy(ptable)`` swaps spies into the table's view and executor."""
    reads = Reads()

    def install(ptable):
        view = fused_view(ptable)
        columns = {}
        for name, array in view.columns.items():
            columns[name] = _spied(array, reads.logger(name))
            uniques, codes = view.encoded(name)
            spied_codes = _spied(codes, reads.logger(f"{name} codes"))
            monkeypatch.setitem(view._encoded, name, (uniques, spied_codes))
        monkeypatch.setattr(view, "columns", columns)
        spied_ids = _spied(view.partition_ids, reads.logger("partition ids"))
        monkeypatch.setattr(view, "partition_ids", spied_ids)
        mask = view.mask

        def phased_mask(predicate, rows=None):
            reads.calls[-1]["phase"] = "mask"
            kept = mask(predicate, rows)
            reads.calls[-1].update(phase="after", kept=int(kept.sum()))
            return kept

        monkeypatch.setattr(view, "mask", phased_mask)
        executor = BatchExecutor.for_table(ptable)
        run = executor.partition_answers

        def traced(query, partitions=None):
            reads.begin(query, partitions)
            return run(query, partitions=partitions)

        monkeypatch.setattr(executor, "partition_answers", traced)
        return executor

    install.reads = reads
    return install


def _assert_range_reads(call, offsets):
    """The rules, for one subset call."""
    query, parts = call["query"], [int(p) for p in call["partitions"]]
    ranges = [("slice", int(offsets[p]), int(offsets[p + 1])) for p in parts]
    readable = set(query.columns())
    readable |= {f"{name} codes" for name in readable}
    by_array: dict[tuple, list] = {}
    for phase, name, key in call["reads"]:
        assert name in readable, (name, query)
        after = phase == "after"
        by_array.setdefault((after, name), []).append(key)
    for (after, name), keys in by_array.items():
        if not after:  # before or inside the mask: one range read
            assert keys == ranges, (name, keys, query)
            continue
        assert query.predicate is not None, (name, query)
        # After the mask: one gather, at the kept rows and no more.
        assert len(keys) == 1, (name, keys, query)
        kind, size = keys[0]
        assert kind in "iu" and size == call["kept"], (name, keys, query)
    return bool(by_array)


@pytest.fixture(scope="module")
def system_and_queries():
    spec = get_dataset("kdd")
    ptable = spec.build(2000, 8, seed=4)
    workload = spec.workload()
    generator = QueryGenerator(workload, ptable.table, seed=8)
    system = PS3(ptable, workload).fit(generator.sample_queries(8))
    queries = generator.sample_queries(24)
    numeric = next(c.name for c in ptable.schema if c.kind.name == "NUMERIC")
    grouping = next(q.group_by for q in queries if q.group_by)
    queries.append(Query([sum_of(col(numeric)), count_star()]))
    queries.append(Query([sum_of(col(numeric)), count_star()], None, grouping))
    assert any(q.predicate is None for q in queries)
    assert any(q.predicate is not None and q.group_by for q in queries)
    return system, queries


def test_subset_reads_before_the_mask_are_ranges(system_and_queries, spy):
    system, queries = system_and_queries
    plain = BatchExecutor.for_table(system.ptable)
    cases = [(q, partitions) for q in queries for partitions in SELECTIONS]
    expected = [plain.partition_answers(q, partitions=p) for q, p in cases]
    executor = spy(system.ptable)
    offsets = executor.view.offsets
    for (query, partitions), want in zip(cases, expected):
        assert executor.partition_answers(query, partitions=partitions) == want
    calls = spy.reads.calls
    assert len(calls) == len(queries) * len(SELECTIONS)
    checked = [_assert_range_reads(call, offsets) for call in calls]
    assert sum(checked) >= len(calls) // 2
    # The spies saw both sides of the mask.
    phases = {phase for call in calls for phase, __, __ in call["reads"]}
    assert phases == {"before", "mask", "after"}


def test_online_routes_read_ranges(system_and_queries, spy):
    system, queries = system_and_queries
    executor = spy(system.ptable)
    for query in queries[:8]:
        system.query(query, budget_fraction=0.5)
    system.query_many(queries[8:16], budget_fraction=0.25)
    with system.serve() as front:
        futures = [front.submit(q, budget_fraction=0.5) for q in queries[16:]]
        for future in futures:
            future.result(timeout=60)
    calls = spy.reads.calls
    assert len(calls) >= len(queries) // 2
    for call in calls:
        assert call["partitions"] is not None
        _assert_range_reads(call, executor.view.offsets)


def test_range_reads_are_fresh_arrays():
    spec = get_dataset("kdd")
    ptable = spec.build(400, 4, seed=4)
    # After an append the table's columns are views of spare-row buffers.
    grown = append_rows(ptable, dict(spec.build(50, 1, seed=5).table.columns))
    view = fused_view(grown)
    for name, column in view.columns.items():
        for rows in ([slice(400, 450)], [slice(0, 100), slice(400, 450)]):
            out = read_rows(column, rows)
            assert out.flags.owndata and out.flags.writeable, name
            assert not np.shares_memory(out, column), name
