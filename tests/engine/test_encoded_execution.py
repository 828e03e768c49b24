"""Differential suite: execution on dictionary codes vs the scalar oracle.

``BatchExecutor`` gathers, filters and groups on a view's integer
codes; ``execute_on_partition`` works on the raw strings, one partition
at a time. Every case here composes the oracle as
``[execute_on_partition(p, q) for p in ...]`` and requires byte-equal
values under keys in the same order.

Key rule (stated in ``batch_executor``'s docstring): keys compare equal
to the oracle's. ``-0.0`` and ``0.0`` are ``==`` and hash alike, so they
are one group on both sides and plain ``==`` covers them whichever zero
either sort kept. A NaN key equals nothing, itself included, so
:func:`same_keys` matches NaNs by position.
"""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from scalar_oracle import execute_on_partition

from repro.engine.aggregates import avg_of, count_star, sum_of
from repro.engine.batch_executor import (
    BatchExecutor,
    FusedTableView,
    factorize,
    fused_view,
)
from repro.engine.expressions import col
from repro.engine.layout import append_rows, partition_evenly
from repro.engine.predicates import And, Comparison, Contains, InSet, Not, Or
from repro.engine.query import Query
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table
from repro.errors import ExecutionError
from repro.obs import get_registry

SCHEMA = Schema.of(
    Column("x", ColumnKind.NUMERIC, positive=True),
    Column("z", ColumnKind.NUMERIC),  # NaNs, -0.0 beside 0.0, few values
    Column("d", ColumnKind.DATE),
    Column("cat", ColumnKind.CATEGORICAL, low_cardinality=True),
    Column("tag", ColumnKind.CATEGORICAL),
)


def make_columns(num_rows, seed, cats=("a", "bb", "ccc"), tags=40):
    rng = np.random.default_rng(seed)
    return {
        "x": rng.exponential(10.0, num_rows) + 1.0,
        "z": rng.choice([np.nan, -0.0, 0.0, 1.5, -2.0], num_rows),
        "d": rng.integers(0, 90, num_rows),
        "cat": rng.choice(list(cats), num_rows),
        "tag": rng.choice([f"t{i:02d}" for i in range(tags)], num_rows),
    }


def make_ptable(num_rows=1100, num_partitions=11, seed=3):
    return partition_evenly(Table(SCHEMA, make_columns(num_rows, seed)), num_partitions)


def same_keys(actual, expected) -> bool:
    """Equal key tuples in equal order; NaN parts match by position."""
    actual, expected = list(actual), list(expected)
    if len(actual) != len(expected):
        return False
    for a, e in zip(actual, expected):
        if len(a) != len(e):
            return False
        for x, y in zip(a, e):
            both_nan = (
                isinstance(x, float)
                and isinstance(y, float)
                and math.isnan(x)
                and math.isnan(y)
            )
            if not (both_nan or (type(x) is type(y) and x == y)):
                return False
    return True


def assert_same_answers(actual, expected, context=""):
    assert len(actual) == len(expected), context
    for p, (a, e) in enumerate(zip(actual, expected)):
        assert same_keys(a, e), (context, p, list(a), list(e))
        for got, want in zip(a.values(), e.values()):
            assert got.tobytes() == want.tobytes(), (context, p, got, want)


def oracle(ptable, query, partitions=None):
    if partitions is None:
        partitions = range(ptable.num_partitions)
    return [execute_on_partition(ptable[p], query) for p in partitions]


def check(ptable, query, partitions=None):
    got = BatchExecutor.for_table(ptable).partition_answers(
        query, partitions=partitions
    )
    assert_same_answers(got, oracle(ptable, query, partitions), query.label())
    return got


AGGS = [sum_of(col("x")), avg_of(col("x") - col("d")), count_star()]

GROUPINGS = [
    ("cat",),
    ("tag",),
    ("d",),
    ("z",),
    ("cat", "d"),
    ("z", "cat"),
    ("d", "z", "tag"),
    ("tag", "cat", "d", "z"),
]

PREDICATES = [
    None,
    InSet("cat", {"a", "ccc"}),
    Contains("tag", "t1"),
    Not(InSet("cat", {"bb"})),
    And([InSet("cat", {"a", "bb"}), Not(Contains("tag", "3"))]),
    Or(
        [
            And([Contains("cat", "c"), Comparison("d", "<", 30.0)]),
            Not(Or([InSet("tag", {"t05", "t17"}), Comparison("x", ">", 9.0)])),
        ]
    ),
    Not(And([Not(InSet("cat", {"a"})), Or([Contains("tag", "t0")])])),
    InSet("cat", {"a", "nowhere"}),  # one member absent from the dictionary
    InSet("cat", {"nowhere"}),  # every member absent: all rows filtered
    Comparison("x", ">", 1e12),  # all rows filtered, no string leaf
]


@pytest.fixture(scope="module")
def ptable():
    return make_ptable()


class TestAgainstTheScalarComposition:
    @pytest.mark.parametrize("group_by", GROUPINGS, ids=",".join)
    def test_group_by_kinds(self, ptable, group_by):
        """Categorical, date and numeric columns, alone and combined; the
        ``z`` column carries a NaN group and -0.0 beside 0.0."""
        got = check(ptable, Query(AGGS, None, group_by))
        if group_by == ("z",):
            keys = [key for answer in got for key in answer]
            assert any(math.isnan(key[0]) for key in keys)
            # One zero group per partition, not one per sign.
            assert all(
                sum(1 for key in answer if key[0] == 0.0) <= 1 for answer in got
            )

    @pytest.mark.parametrize(
        "predicate", PREDICATES, ids=lambda p: "none" if p is None else p.label()
    )
    @pytest.mark.parametrize("group_by", [(), ("cat",), ("tag", "d")], ids=",".join)
    def test_string_leaves_under_nesting(self, ptable, predicate, group_by):
        check(ptable, Query(AGGS, predicate, group_by))
        check(ptable, Query(AGGS, predicate, group_by), partitions=[7, 2, 9])

    def test_workload_sweep_agrees(self, ptable, oracle_parity):
        """A whole workload, through both views of the block."""
        oracle_parity(
            ptable,
            [
                Query(AGGS, predicate, group_by)
                for predicate in PREDICATES
                for group_by in [(), ("tag", "cat")]
            ],
        )
        assert BatchExecutor.for_table(ptable).view is fused_view(ptable)

    def test_selection_shapes(self, ptable):
        query = Query(AGGS, Not(InSet("cat", {"bb"})), ("cat", "d"))
        executor = BatchExecutor.for_table(ptable)
        assert executor.partition_answers(query, partitions=[]) == []
        assert executor.partition_answers(query, partitions=()) == []
        check(ptable, query, partitions=None)
        check(ptable, query, partitions=[4])
        check(ptable, query, partitions=[10, 0, 5, 3])  # permuted
        check(ptable, query, partitions=[6, 6, 1, 6, 1])  # duplicated
        check(ptable, query, partitions=np.array([8, 2]))
        check(ptable, query, partitions=tuple(range(ptable.num_partitions)))

    def test_missing_column_stays_typed(self, ptable):
        executor = BatchExecutor.for_table(ptable)
        for predicate in (InSet("ghost", {"a"}), Contains("ghost", "a")):
            with pytest.raises(ExecutionError, match="ghost"):
                executor.partition_answers(
                    Query([count_star()], Or([predicate, InSet("cat", {"a"})])),
                    partitions=[0, 1],
                )
        with pytest.raises(ExecutionError, match="ghost"):
            executor.partition_answers(Query([sum_of(col("ghost"))]))


class TestOccupiedCodes:
    def test_large_radix_takes_integer_unique(self, ptable, monkeypatch):
        """90 dates x 40 tags = 3600 codes > max(1024, 8 x rows) once the
        predicate leaves a few rows: occupied codes come from an integer
        ``np.unique``; below the bound, from a presence ``bincount``."""
        seen = []
        real_unique = np.unique

        def spy(array, *args, **kwargs):
            if sys._getframe(1).f_code.co_name == "factorize":
                seen.append(np.asarray(array).dtype.kind)
            return real_unique(array, *args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        few = Query(AGGS, Comparison("x", ">", 40.0), ("d", "tag"))
        got = BatchExecutor.for_table(ptable).partition_answers(few)
        rows = sum(int(v[2]) for answer in got for v in answer.values())
        assert 0 < rows and 8 * rows < 3600
        assert seen == ["i"]
        many = Query(AGGS, None, ("d", "tag"))
        BatchExecutor.for_table(ptable).partition_answers(many)
        assert seen == ["i"]  # 3600 <= 8 x 1100: the presence route
        monkeypatch.undo()
        check(ptable, few)
        check(ptable, many)

    def test_routes_agree_on_the_same_rows(self):
        rng = np.random.default_rng(0)
        left = (np.arange(50.0), rng.integers(0, 50, 60).astype(np.int32))
        right = (
            np.array([f"v{i:03d}" for i in range(70)]),
            rng.integers(0, 70, 60).astype(np.int32),
        )
        sparse_keys, sparse_ids = factorize([left, right])  # 3500 > 1024
        dense_keys, dense_ids = factorize(
            [(u, np.tile(c, 10)) for u, c in (left, right)]  # 3500 <= 4800
        )
        assert sparse_keys == dense_keys
        assert np.array_equal(np.tile(sparse_ids, 10), dense_ids)
        assert sparse_keys == sorted(set(sparse_keys))
        for row in range(60):
            key = (float(left[1][row]), f"v{right[1][row]:03d}")
            assert sparse_keys[sparse_ids[row]] == key


class TestRadixOverflow:
    @pytest.mark.parametrize("width", [6, 8])
    def test_wide_group_by_keeps_every_rows_key(self, answers_via, width):
        """All-distinct columns: 4000**6 > 2**63 (and 4000**8 needs the
        guard three columns running). The mixed-radix code used to wrap
        and decode to keys no row has."""
        num_rows, names = 4000, [f"c{i}" for i in range(width)]
        rng = np.random.default_rng(1)
        table = Table(
            Schema.of(*(Column(name, ColumnKind.NUMERIC) for name in names)),
            {name: rng.permutation(num_rows).astype(float) for name in names},
        )
        ptable = partition_evenly(table, 2)
        query = Query([count_star()], None, tuple(names))
        for path in ("scalar", "batch", "indexed"):
            answers = answers_via(path, ptable, query)
            assert sum(float(v[0]) for a in answers for v in a.values()) == num_rows
            for partition, answer in zip(ptable, answers):
                assert list(answer) == sorted(answer), path
                rows = zip(*(partition.column(name).tolist() for name in names))
                assert all(row in answer for row in rows), path
        assert_same_answers(
            answers_via("batch", ptable, query), answers_via("scalar", ptable, query)
        )


def append(ptable, num_rows, seed, cats):
    return append_rows(ptable, make_columns(num_rows, seed, cats=cats))


def counters():
    registry = get_registry()
    return {
        name: registry.counter(f"engine.dictionary.{name}").value
        for name in ("builds", "extends", "remaps")
    }


class TestEncodingsAcrossAppends:
    QUERY = Query(AGGS, Not(InSet("cat", {"bb"})), ("cat", "tag"))

    def extend(self, ptable, cats):
        """Append 100 rows drawn from ``cats``; build the next view the
        way ``PS3.append`` does; both generations must answer."""
        old_view = fused_view(ptable)
        old_pairs = dict(old_view._encoded)
        snapshots = {
            name: (uniques.copy(), codes.copy())
            for name, (uniques, codes) in old_pairs.items()
        }
        before = check(ptable, self.QUERY)
        appended = append(ptable, 100, seed=ptable.num_partitions, cats=cats)
        new_view = fused_view(appended, prior=old_view)
        # The new generation decodes to its own rows...
        assert set(new_view._encoded) == set(old_pairs)
        for name, (uniques, codes) in new_view._encoded.items():
            assert codes.dtype == np.int32
            assert not codes.flags.writeable and not uniques.flags.writeable
            column = appended.table.columns[name]
            decoded = uniques[codes]
            assert decoded.dtype == np.unique(column).dtype
            assert np.array_equal(decoded, column, equal_nan=column.dtype.kind == "f")
        check(appended, self.QUERY)
        check(appended, self.QUERY, partitions=[appended.num_partitions - 1, 0])
        # ...and nothing the old one can reach was written.
        assert old_view._encoded == old_pairs
        for name, (uniques, codes) in snapshots.items():
            assert old_pairs[name][0].tobytes() == uniques.tobytes()
            assert old_pairs[name][1].tobytes() == codes.tobytes()
        assert_same_answers(check(ptable, self.QUERY), before)
        return old_view, new_view, appended

    def test_seen_values_extend_without_a_remap(self):
        ptable = make_ptable(600, 6)
        check(ptable, self.QUERY)
        start = counters()
        old, new, __ = self.extend(ptable, cats=("a", "bb", "ccc"))
        assert new.encoded("cat")[0] is old.encoded("cat")[0]
        delta = {k: v - start[k] for k, v in counters().items()}
        assert delta == {"builds": 0, "extends": 2, "remaps": 0}

    def test_new_category_merges_and_remaps(self):
        ptable = make_ptable(600, 6)
        check(ptable, self.QUERY)
        start = counters()
        old, new, appended = self.extend(ptable, cats=("a", "b", "ccc"))
        old_uniques, old_codes = old.encoded("cat")
        new_uniques, new_codes = new.encoded("cat")
        assert old_uniques.tolist() == ["a", "bb", "ccc"]
        assert new_uniques.tolist() == ["a", "b", "bb", "ccc"]
        assert not np.shares_memory(old_codes, new_codes)
        assert not np.shares_memory(old_uniques, new_uniques)
        delta = {k: v - start[k] for k, v in counters().items()}
        assert delta == {"builds": 0, "extends": 2, "remaps": 1}
        # The old generation never learns the new value.
        old_keys = {key[0] for a in check(ptable, self.QUERY) for key in a}
        new_keys = {key[0] for a in check(appended, self.QUERY) for key in a}
        assert "b" not in old_keys and "b" in new_keys

    def test_wider_strings_widen_the_dictionary(self):
        ptable = make_ptable(600, 6)
        check(ptable, self.QUERY)
        assert ptable.table.columns["cat"].dtype == np.dtype("<U3")
        old, new, appended = self.extend(ptable, cats=("a", "wwwwwwww", "0"))
        assert appended.table.columns["cat"].dtype == np.dtype("<U8")
        assert old.encoded("cat")[0].dtype == np.dtype("<U3")
        assert new.encoded("cat")[0].dtype == np.dtype("<U8")
        assert new.encoded("cat")[0].tolist() == ["0", "a", "bb", "ccc", "wwwwwwww"]
        assert not np.shares_memory(old.encoded("cat")[1], new.encoded("cat")[1])
        # A third generation on top of the widened one.
        self.extend(appended, cats=("zz", "a"))

    def test_nan_and_zero_columns_extend(self):
        ptable = make_ptable(600, 6)
        query = Query(AGGS, None, ("z", "d"))
        check(ptable, query)
        appended = append(ptable, 100, seed=77, cats=("a",))
        new_view = fused_view(appended, prior=fused_view(ptable))
        uniques, codes = new_view._encoded["z"]
        assert np.isnan(uniques).sum() == 1 and (uniques == 0.0).sum() == 1
        assert np.array_equal(
            uniques[codes], appended.table.columns["z"], equal_nan=True
        )
        check(appended, query)
        check(ptable, query)

    def test_columns_first_used_after_the_append_build_lazily(self):
        ptable = make_ptable(600, 6)
        appended = append(ptable, 100, seed=5, cats=("a", "q"))
        view = fused_view(appended, prior=fused_view(ptable))
        assert view._encoded == {}
        start = counters()
        check(appended, self.QUERY)
        check(appended, self.QUERY)
        delta = {k: v - start[k] for k, v in counters().items()}
        assert delta == {"builds": 2, "extends": 0, "remaps": 0}

    def test_unrelated_prior_carries_nothing(self):
        small = make_ptable(120, 4)
        check(small, self.QUERY)
        big = make_ptable(700, 9, seed=6)
        assert FusedTableView.build(big, prior=fused_view(small))._encoded == {}


class TestConcurrentFirstUse:
    def test_racing_threads_get_one_encoding(self):
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for attempt in range(5):
                view = fused_view(make_ptable(3000, 3, seed=attempt))
                results, barrier = [], threading.Barrier(8)

                def first_use():
                    barrier.wait(timeout=10)
                    results.append(view.encoded("tag"))

                threads = [threading.Thread(target=first_use) for __ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert len(results) == 8
                assert all(pair is results[0] for pair in results)
        finally:
            sys.setswitchinterval(old_interval)


class _EncodeSpans:
    """A profiler (``MetricsRegistry.add_profiler``) keeping encode tags."""

    def __init__(self):
        self.tags = []

    def on_span_start(self, span):
        pass

    def on_span_end(self, span):
        if span.stage == "engine.encode":
            self.tags.append(dict(span.tags))


class TestEncodeObservability:
    def test_encode_span_and_counters_reach_metrics(self):
        registry = get_registry()
        profiler = _EncodeSpans()
        registry.add_profiler(profiler)
        try:
            ptable = make_ptable(400, 4)
            fused_view(ptable).encoded("cat")
            appended = append(ptable, 50, seed=1, cats=("a", "new"))
            fused_view(appended, prior=fused_view(ptable))
        finally:
            registry.remove_profiler(profiler)
        assert profiler.tags == [
            {"column": "cat", "rows": 400, "how": "built", "distinct": 3},
            {"column": "cat", "rows": 450, "how": "extended", "distinct": 4},
        ]
        snapshot = registry.snapshot()
        assert snapshot["counters"]["engine.encode.calls"] >= 2
        for name in ("builds", "extends", "remaps"):
            assert snapshot["counters"][f"engine.dictionary.{name}"] >= 1
