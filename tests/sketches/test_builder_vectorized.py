"""Differential suite: the seal plane vs the scalar reference.

``build_dataset_statistics`` must be *bit-identical* to the
per-partition constructor loop (``sketch_oracle.oracle_dataset``: every
sketch built on its own partition slice) transposed into a columnar
index: every index array byte for byte, the row counts, the Table 4
sizes, the global heavy hitters, and the running global heavy-hitter
sketch's raw entry state (values, counts, deltas, insertion order) equal
to merging the oracle's per-partition sketches. The append path is
pinned too: sealing partitions one at a time must agree bit for bit with
a from-scratch build.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sketch_oracle import (
    assert_entries_identical,
    assert_indexes_identical,
    merged_heavy_hitters,
    oracle_dataset,
    sketch_index,
    values_identical,
)

from repro.api import PS3
from repro.core.training import TrainingConfig
from repro.datasets.registry import get_dataset
from repro.engine.layout import (
    append_rows,
    partition_evenly,
    sort_table,
    validate_batch,
)
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table
from repro.sketches.builder import (
    FAMILIES,
    SketchConfig,
    append_partition_statistics,
    _unique_inverse,
    build_dataset_statistics,
    seal_partition,
)
from repro.sketches.heavy_hitter import HeavyHitterSketch, merge_pairwise
from repro.storage import save_model
from repro.workload import QueryGenerator


def scalar_reference(ptable, config=None):
    """Every sketch built on its own partition slice — the oracle."""
    return oracle_dataset(ptable, config)


def assert_statistics_identical(expected, actual):
    """Bitwise comparison of the seal's statistics with the oracle's."""
    assert actual.num_partitions == expected.num_partitions
    assert set(actual.global_heavy_hitters) == set(expected.global_heavy_hitters)
    for name, hitters in expected.global_heavy_hitters.items():
        other = actual.global_heavy_hitters[name]
        assert len(other) == len(hitters), name
        assert all(map(values_identical, hitters, other)), name
    assert actual.num_rows.tolist() == [p.num_rows for p in expected.partitions]
    assert actual.sizes.tolist() == [
        [p.size_by_kind()[kind] for kind in FAMILIES] for p in expected.partitions
    ]
    assert_indexes_identical(sketch_index(expected), actual.index)
    for column in expected.schema:
        # Raw automaton state, not just the reported items: the entry
        # order and deltas feed staleness and the next merge.
        merged = merged_heavy_hitters(
            expected.partitions, column.name, expected.config
        )
        running = actual.running_heavy_hitters[column.name]
        assert_entries_identical(merged, running, column.name)


@pytest.fixture(scope="module")
def skewed_table():
    schema = Schema.of(
        Column("x", ColumnKind.NUMERIC, positive=True),
        Column("y", ColumnKind.NUMERIC),
        Column("d", ColumnKind.DATE),
        Column("cat", ColumnKind.CATEGORICAL, low_cardinality=True),
        Column("tag", ColumnKind.CATEGORICAL),
    )
    gen = np.random.default_rng(41)
    n = 900
    return Table(
        schema,
        {
            "x": gen.exponential(10.0, n) + 1.0,
            "y": gen.normal(0.0, 5.0, n),
            "d": gen.integers(0, 60, n),
            "cat": gen.choice(["a", "b", "c", "dd"], n, p=[0.6, 0.2, 0.15, 0.05]),
            "tag": gen.choice([f"t{i:03d}" for i in range(200)], n),
        },
    )


class TestVectorizedBuilderParity:
    def test_default_config(self, tiny_ptable):
        assert_statistics_identical(
            scalar_reference(tiny_ptable),
            build_dataset_statistics(tiny_ptable),
        )

    @pytest.mark.parametrize("num_partitions", [1, 7, 12])
    def test_partitioning_shapes(self, skewed_table, num_partitions):
        ptable = partition_evenly(skewed_table, num_partitions)
        assert_statistics_identical(
            scalar_reference(ptable),
            build_dataset_statistics(ptable),
        )

    @pytest.mark.parametrize(
        "config",
        [
            SketchConfig(histogram_buckets=1),
            SketchConfig(histogram_buckets=3, akmv_k=4, exact_dict_limit=3),
            # epsilon large enough that partitions span many lossy-counting
            # blocks (width 6, 100 rows): the segmented kernel's block walk.
            SketchConfig(hh_support=0.2, hh_epsilon=0.19),
        ],
        ids=["one-bucket", "tiny-caps", "hh-streaming-fallback"],
    )
    def test_config_corners(self, skewed_table, config):
        ptable = partition_evenly(sort_table(skewed_table, "d"), 9)
        assert_statistics_identical(
            scalar_reference(ptable, config),
            build_dataset_statistics(ptable, config),
        )

    def test_degenerate_columns(self):
        """Constant columns, nonpositive 'positive' columns, lone values."""
        schema = Schema.of(
            Column("pos", ColumnKind.NUMERIC, positive=True),
            Column("const", ColumnKind.NUMERIC),
            Column("cat", ColumnKind.CATEGORICAL, low_cardinality=True),
        )
        gen = np.random.default_rng(3)
        table = Table(
            schema,
            {
                # First partition positive, later ones not: the log channel
                # must disable per partition exactly like the scalar guard.
                "pos": np.concatenate([np.full(30, 5.0), gen.normal(0, 1, 30)]),
                "const": np.full(60, 3.25),
                "cat": np.array(["only"] * 30 + ["a", "b"] * 15),
            },
        )
        for parts in (1, 2, 4):
            ptable = partition_evenly(table, parts)
            assert_statistics_identical(
                scalar_reference(ptable),
                build_dataset_statistics(ptable),
            )

    def test_nan_values_match_scalar_semantics(self):
        """NaN segments keep the scalar plane's odd-but-pinned behavior.

        The scalar ``update`` swallows NaN extrema (``min(inf, nan)``
        keeps ``inf``) and its nonpositive guard keeps the log channel
        *enabled* on NaN (moments go NaN, extrema keep defaults);
        ``reduceat`` would propagate NaN instead. Pinned bit for bit.
        """
        schema = Schema.of(
            Column("x", ColumnKind.NUMERIC),
            Column("pos", ColumnKind.NUMERIC, positive=True),
        )
        table = Table(
            schema,
            {
                "x": np.array([1.0, np.nan, 3.0, 4.0, 5.0, 6.0, np.nan, 8.0]),
                "pos": np.array([2.0, 3.0, np.nan, 4.0, 5.0, 6.0, 7.0, 8.0]),
            },
        )
        for parts in (1, 2, 4):
            ptable = partition_evenly(table, parts)
            assert_statistics_identical(
                scalar_reference(ptable),
                build_dataset_statistics(ptable),
            )

    def test_bytes_dtype_categorical_matches_scalar(self):
        """'S'-dtype columns hash through the float-pack path, not utf-8.

        ``hash_value`` only treats ``str``/``np.str_`` as text; numpy
        bytes scalars fall through to ``struct.pack("<d", float(v))``.
        The batched hasher must follow the same rule (it used to crash
        on ``bytes.encode``).
        """
        schema = Schema.of(
            Column("b", ColumnKind.CATEGORICAL, low_cardinality=True)
        )
        values = np.array([b"1", b"2", b"1", b"3", b"2", b"1"])
        ptable = partition_evenly(Table(schema, {"b": values}), 3)
        assert_statistics_identical(
            scalar_reference(ptable),
            build_dataset_statistics(ptable),
        )

    def test_nan_payload_diversity_matches_scalar(self):
        """NaNs with distinct bit payloads must survive per partition.

        np.unique collapses every NaN to one representative regardless
        of payload bits, while the scalar per-partition unique keeps
        each partition's own NaN — whose bits feed AKMV hashes and
        histogram edges. Such NaNs take the scalar path wholesale.
        """
        weird_nan = np.uint64(0xFFF8000000000001).view(np.float64)
        values = np.array(
            [weird_nan, 1.0, 2.0, np.nan, 3.0, 4.0, 5.0, weird_nan]
        )
        table = Table(
            Schema.of(Column("v", ColumnKind.NUMERIC)), {"v": values}
        )
        for parts in (1, 2, 4):
            ptable = partition_evenly(table, parts)
            assert_statistics_identical(
                scalar_reference(ptable),
                build_dataset_statistics(ptable),
            )

    def test_negative_zero_matches_scalar(self):
        """-0.0 columns take the scalar path: the np.unique representative
        for a -0.0/0.0 run depends on sort internals, so the global
        segmented dedup cannot replay the per-partition pick (found by
        the hypothesis suite: a [-0.0, 0.0, ...] partition produced
        -0.0 histogram edges where the oracle produced 0.0)."""
        gen = np.random.default_rng(5)
        values = gen.choice([-0.0, 0.0, 1.5, -2.5], 113)
        table = Table(
            Schema.of(Column("v", ColumnKind.NUMERIC)), {"v": values}
        )
        for parts in (1, 3, 7):
            ptable = partition_evenly(table, parts)
            assert_statistics_identical(
                scalar_reference(ptable),
                build_dataset_statistics(ptable),
            )

class TestAppendThenBuildParity:
    """Incremental sealing must agree with a from-scratch build."""

    def _split(self, table, keep_rows: int, parts: int):
        prefix = Table(
            table.schema,
            {name: arr[:keep_rows] for name, arr in table.columns.items()},
        )
        tail = {name: arr[keep_rows:] for name, arr in table.columns.items()}
        return partition_evenly(prefix, parts), tail

    def test_appended_statistics_match_scratch(self, skewed_table):
        ptable, tail = self._split(skewed_table, 600, 6)
        stats = build_dataset_statistics(ptable)
        grown = append_rows(ptable, tail)
        assert append_partition_statistics(stats, grown[grown.num_partitions - 1]) == 6
        # From-scratch build over the grown table, with the same
        # partition boundaries (6 even prefix partitions + 1 appended).
        scratch = build_dataset_statistics(grown)
        assert_indexes_identical(scratch.index, stats.index)
        assert stats.sizes.tolist() == scratch.sizes.tolist()
        assert stats.num_rows.tolist() == scratch.num_rows.tolist()
        # Global heavy hitters are deliberately frozen on append; the
        # running sketches merged the new partition.
        for name, sketch in scratch.running_heavy_hitters.items():
            assert_entries_identical(sketch, stats.running_heavy_hitters[name], name)

    def test_appended_index_matches_the_oracle(self, skewed_table):
        ptable, tail = self._split(skewed_table, 600, 6)
        stats = build_dataset_statistics(ptable)
        grown = append_rows(ptable, tail)
        append_partition_statistics(stats, grown[grown.num_partitions - 1])
        assert_indexes_identical(sketch_index(oracle_dataset(grown)), stats.index)

    def test_fused_view_extension_under_vectorized_builder(self, skewed_table):
        """The incremental fused view feeds the same build as a fresh one."""
        from repro.engine.batch_executor import fused_view

        ptable, tail = self._split(skewed_table, 600, 6)
        prior = fused_view(ptable)
        grown = append_rows(ptable, tail)
        view = fused_view(grown, prior=prior)
        assert view.num_partitions == 7
        np.testing.assert_array_equal(
            view.partition_ids,
            np.repeat(np.arange(7), np.diff(np.asarray(grown.boundaries))),
        )
        # Building through the (incrementally extended) cached view must
        # equal the scalar oracle on the grown table.
        assert_statistics_identical(
            scalar_reference(grown),
            build_dataset_statistics(grown),
        )


_COLUMN_KIND = st.sampled_from(["numeric", "date", "categorical"])


@pytest.mark.slow
class TestVectorizedBuilderProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        num_rows=st.integers(min_value=2, max_value=120),
        num_partitions=st.integers(min_value=1, max_value=9),
        buckets=st.integers(min_value=1, max_value=12),
    )
    def test_random_tables_bit_identical(
        self, data, num_rows, num_partitions, buckets
    ):
        num_partitions = min(num_partitions, num_rows)
        kind = data.draw(_COLUMN_KIND, label="kind")
        if kind == "numeric":
            values = np.asarray(
                data.draw(
                    st.lists(
                        st.floats(
                            min_value=-1e6,
                            max_value=1e6,
                            allow_nan=False,
                            allow_infinity=False,
                        ),
                        min_size=num_rows,
                        max_size=num_rows,
                    ),
                    label="values",
                )
            )
            column = Column("v", ColumnKind.NUMERIC, positive=True)
        elif kind == "date":
            values = np.asarray(
                data.draw(
                    st.lists(
                        st.integers(min_value=0, max_value=400),
                        min_size=num_rows,
                        max_size=num_rows,
                    ),
                    label="values",
                ),
                dtype=np.int64,
            )
            column = Column("v", ColumnKind.DATE)
        else:
            values = np.asarray(
                data.draw(
                    st.lists(
                        st.sampled_from(["a", "b", "cc", "ddd", "e!", ""]),
                        min_size=num_rows,
                        max_size=num_rows,
                    ),
                    label="values",
                )
            )
            column = Column("v", ColumnKind.CATEGORICAL, low_cardinality=True)
        table = Table(Schema.of(column), {"v": values})
        ptable = partition_evenly(table, num_partitions)
        config = SketchConfig(
            histogram_buckets=buckets, akmv_k=4, exact_dict_limit=4
        )
        assert_statistics_identical(
            scalar_reference(ptable, config),
            build_dataset_statistics(ptable, config),
        )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.text(st.characters(max_codepoint=127), max_size=9),
            st.text(max_size=11),
        ),
        max_size=40,
    )
)
def test_string_dedup_equals_np_unique(values):
    """The seal's string dedup packs short ASCII strings into integers;
    whatever it takes, it returns exactly ``np.unique``'s arrays."""
    array = np.asarray(values, dtype=np.str_)
    expected, actual = np.unique(array, return_inverse=True), _unique_inverse(array)
    for mine, theirs in zip(actual, expected):
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


class TestRunningHeavyHitters:
    """The running global sketch merges each sealed partition's automaton
    as it arrives; that must equal one ``merge(*sketches)`` over all of
    them (values, counts, deltas and total), so build-time global heavy
    hitters stay bit-identical and appends keep drift exact."""

    @pytest.mark.parametrize("dataset", ["kdd", "tpch", "tpcds", "aria"])
    def test_one_at_a_time_equals_one_merge(self, dataset):
        spec = get_dataset(dataset)
        ptable = spec.build(16 * 300, 16, seed=8)
        head = partition_evenly(ptable.table.take(np.arange(8 * 300)), 8)
        stats = build_dataset_statistics(head)
        for partition in list(ptable)[8:]:
            append_partition_statistics(stats, partition)
        oracle = oracle_dataset(ptable)
        for column in ptable.schema:
            merged = merged_heavy_hitters(oracle.partitions, column.name, oracle.config)
            running = stats.running_heavy_hitters[column.name]
            assert_entries_identical(merged, running, (dataset, column.name))

    @pytest.mark.parametrize("dataset", ["kdd", "tpch", "tpcds", "aria"])
    def test_one_fold_equals_a_merge_per_column(self, dataset):
        """An append folds every column's automaton into its running
        sketch in one segmented pass (``merge_pairwise``); that equals
        merging each column's alone, bit for bit."""
        spec = get_dataset(dataset)
        ptable = spec.build(12 * 300, 12, seed=8)
        head = partition_evenly(ptable.table.take(np.arange(8 * 300)), 8)
        stats = build_dataset_statistics(head)
        alone = copy.deepcopy(stats.running_heavy_hitters)
        for partition in list(ptable)[8:]:
            sealed = seal_partition(ptable.schema, partition.columns, 0, stats.config)
            for name, sketch in sealed.hitters.items():
                alone[name].merge(sketch)
            append_partition_statistics(stats, partition)
        for name, sketch in alone.items():
            running = stats.running_heavy_hitters[name]
            assert_bits_identical(sketch, running, (dataset, name))

    def test_the_fold_is_a_merge_per_pair_on_uneven_sketches(self):
        """Pairs of unequal totals (so unequal buckets), empty sides,
        deltas on both sides and a string-valued pair beside numeric
        ones: the one pass still equals a merge per pair."""
        rng = np.random.default_rng(3)

        def sketch(rows: int, distinct: int, text: bool = False):
            values = rng.zipf(1.3, rows) % distinct
            values = values.astype(str) if text else values.astype(np.float64)
            return HeavyHitterSketch.build(values, support=0.02)

        targets = [sketch(n, 400) for n in (0, 700, 3000, 12000)]
        targets.append(sketch(4000, 90, text=True))
        others = [sketch(n, 300) for n in (5000, 0, 2500, 900)]
        others.append(sketch(6000, 120, text=True))
        assert any(len(o.arrays()[2]) and o.arrays()[2].max() > 0 for o in others)
        alone = copy.deepcopy(targets)
        for target, other in zip(alone, others):
            target.merge(other)
        merge_pairwise(targets, others)
        for i, (expected, actual) in enumerate(zip(alone, targets)):
            assert_bits_identical(expected, actual, i)

    def test_the_fold_through_checkpoint_open_and_staleness(self, tmp_path):
        """Journal replay folds as a live append does: after checkpoint
        → journaled appends → ``PS3.open``, the reopened and the live
        running sketches both equal a merge per column, and so does the
        staleness they report."""
        spec = get_dataset("kdd")
        ptable, workload = spec.build(8 * 300, 8, seed=8), spec.workload()
        train, __ = QueryGenerator(workload, ptable.table, seed=4).train_test_split(
            6, 1
        )
        live = PS3(ptable, workload).fit(
            train, TrainingConfig(num_models=1, gbrt_trees=3, seed=0)
        )
        save_model(live.model, tmp_path / "model.json")
        (tmp_path / "store").mkdir()
        live.attach_store(tmp_path / "store")
        live.checkpoint()
        alone = copy.deepcopy(live.statistics.running_heavy_hitters)
        for seed in range(3):
            batch = validate_batch(ptable.schema, spec.generate(300, 50 + seed).columns)
            sealed = seal_partition(ptable.schema, batch, 0, live.statistics.config)
            for name, sketch in sealed.hitters.items():
                alone[name].merge(sketch)
            live.append(batch)
        reopened = PS3.open(
            ptable, workload, tmp_path / "store", tmp_path / "model.json"
        )
        for name, sketch in alone.items():
            for system in (live, reopened):
                running = system.statistics.running_heavy_hitters[name]
                assert_bits_identical(sketch, running, name)
        per_column = copy.copy(live)
        per_column.statistics = copy.copy(live.statistics)
        per_column.statistics.running_heavy_hitters = alone
        assert reopened.staleness() == live.staleness() == per_column.staleness()


def assert_bits_identical(expected, actual, label) -> None:
    """Two heavy-hitter sketches' state arrays, byte for byte."""
    for mine, theirs in zip(expected.arrays(), actual.arrays()):
        assert mine.dtype == theirs.dtype, label
        assert mine.tobytes() == theirs.tobytes(), label
    assert expected.total == actual.total and expected.bucket == actual.bucket
