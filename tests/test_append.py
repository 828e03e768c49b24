"""Tests for append-only ingest: new partitions, frozen features, drift."""

import numpy as np
import pytest

from repro.api import PS3
from repro.datasets.registry import get_dataset
from repro.engine.layout import append_rows
from repro.engine.table import Table
from repro.errors import ConfigError
from repro.workload import QueryGenerator


@pytest.fixture
def fresh_ps3():
    """A small, freshly trained system the append tests may mutate."""
    spec = get_dataset("kdd")
    ptable = spec.build(4000, 16, seed=9)
    workload = spec.workload()
    generator = QueryGenerator(workload, ptable.table, seed=2)
    train, test = generator.train_test_split(10, 3)
    system = PS3(ptable, workload).fit(train)
    return system, test, spec


def _new_rows(spec, num_rows, seed):
    table = spec.generate(num_rows, seed)
    return dict(table.columns)


class TestAppendRows:
    def test_appends_one_partition(self, fresh_ps3):
        system, __, spec = fresh_ps3
        before = system.ptable.num_partitions
        index = system.append(_new_rows(spec, 250, seed=100))
        assert index == before
        assert system.ptable.num_partitions == before + 1
        assert system.statistics.num_partitions == before + 1

    def test_appended_rows_visible_to_exact_execution(self, fresh_ps3):
        system, test, spec = fresh_ps3
        query = test[0]
        before = system.execute_exact(query)
        system.append(_new_rows(spec, 250, seed=101))
        after = system.execute_exact(query)
        before_total = sum(float(np.sum(v)) for v in before.values())
        after_total = sum(float(np.sum(v)) for v in after.values())
        assert after_total != pytest.approx(before_total) or not before

    def test_trained_picker_can_select_new_partition(self, fresh_ps3):
        system, test, spec = fresh_ps3
        before = system.ptable.num_partitions
        for seed in range(4):
            system.append(_new_rows(spec, 250, seed=200 + seed))
        answer = system.query(test[0], budget_fraction=1.0)
        selected = {c.partition for c in answer.selection.selection}
        assert any(p >= before for p in selected)

    def test_feature_schema_frozen_across_appends(self, fresh_ps3):
        system, test, spec = fresh_ps3
        dim_before = system.feature_builder.schema.dimension
        system.append(_new_rows(spec, 250, seed=102))
        assert system.feature_builder.schema.dimension == dim_before
        features = system.feature_builder.features_for_query(test[0])
        assert features.matrix.shape == (
            system.ptable.num_partitions,
            dim_before,
        )

    def test_approximate_answers_still_reasonable(self, fresh_ps3):
        system, test, spec = fresh_ps3
        for seed in range(3):
            system.append(_new_rows(spec, 250, seed=300 + seed))
        answer = system.query(test[0], budget_fraction=0.5)
        report = system.evaluate(test[0], answer)
        assert report.avg_relative_error < 1.0

    def test_mismatched_columns_rejected(self, fresh_ps3):
        system, __, spec = fresh_ps3
        rows = _new_rows(spec, 100, seed=1)
        rows.pop("count")
        with pytest.raises(ConfigError, match="mismatch"):
            system.append(rows)

    def test_empty_append_rejected(self, fresh_ps3):
        system, __, spec = fresh_ps3
        rows = {k: v[:0] for k, v in _new_rows(spec, 10, seed=1).items()}
        with pytest.raises(ConfigError, match="non-empty"):
            system.append(rows)


class TestAppendRowsHelper:
    def test_existing_partitions_untouched(self, tiny_ptable):
        new = {
            "x": np.ones(50),
            "y": np.zeros(50),
            "d": np.arange(50),
            "cat": np.array(["a"] * 50),
            "tag": np.array(["t0"] * 50),
        }
        grown = append_rows(tiny_ptable, new)
        assert grown.num_partitions == tiny_ptable.num_partitions + 1
        np.testing.assert_array_equal(
            grown[0].column("x"), tiny_ptable[0].column("x")
        )
        assert grown[grown.num_partitions - 1].num_rows == 50

    @staticmethod
    def _batch(rows, seed, cat="a", d_dtype=np.int64):
        rng = np.random.default_rng(seed)
        return {
            "x": rng.normal(size=rows),
            "y": rng.integers(0, 9, rows),  # ints into a float column
            "d": rng.integers(0, 400, rows).astype(d_dtype),
            "cat": np.array([cat] * rows),
            "tag": np.array([f"t{seed}"] * rows),
        }

    def test_chain_equals_concatenation(self, tiny_ptable):
        """Every table of an append chain holds exactly what
        ``np.concatenate`` would have built (values and dtypes), also
        where a batch widens a string column or brings a narrower
        integer, and earlier tables of the chain never change."""
        batches = [
            self._batch(40, 1),
            self._batch(7, 2, cat="a-much-longer-category"),
            self._batch(90, 3, d_dtype=np.int32),
            self._batch(700, 4),  # more than the spare: copies again
        ]
        expected = dict(tiny_ptable.table.columns)
        chain, grown = [], tiny_ptable
        for batch in batches:
            grown = append_rows(grown, batch)
            expected = {
                name: np.concatenate([expected[name], batch[name]])
                for name in expected
            }
            chain.append((grown, Table(grown.schema, dict(expected))))
        for got, want in chain:
            for name, column in want.columns.items():
                np.testing.assert_array_equal(got.table.columns[name], column)
                assert got.table.columns[name].dtype == column.dtype, name
        assert chain[-1][0].boundaries[-4:] == (
            tiny_ptable.num_rows + 40,
            tiny_ptable.num_rows + 47,
            tiny_ptable.num_rows + 137,
            tiny_ptable.num_rows + 837,
        )

    def test_cost_follows_the_batch(self, tiny_ptable):
        """The second append writes into the first one's spare rows: no
        column of the table is copied again."""
        first = append_rows(tiny_ptable, self._batch(30, 5))
        second = append_rows(first, self._batch(30, 6))
        for name, column in second.table.columns.items():
            assert np.shares_memory(column, first.table.columns[name]), name

    def test_appending_twice_to_one_table_forks(self, tiny_ptable):
        """Only the newest table may use the spare; a second append to
        an older one must not overwrite the first one's rows."""
        base = append_rows(tiny_ptable, self._batch(30, 7))
        left = append_rows(base, self._batch(30, 8, cat="l"))
        right = append_rows(base, self._batch(30, 9, cat="r"))
        assert set(left[left.num_partitions - 1].column("cat")) == {"l"}
        assert set(right[right.num_partitions - 1].column("cat")) == {"r"}
        np.testing.assert_array_equal(
            left.table.columns["x"][: base.num_rows], base.table.columns["x"]
        )
        assert not np.shares_memory(
            left.table.columns["x"], right.table.columns["x"]
        )


class TestStaleness:
    def test_fresh_system_not_stale(self, fresh_ps3):
        system, __, spec = fresh_ps3
        report = system.staleness()
        assert report.partitions_added == 0
        assert not report.needs_retraining

    def test_appends_accumulate_staleness(self, fresh_ps3):
        system, __, spec = fresh_ps3
        for seed in range(5):  # 5 appends onto 16 partitions -> > 20%
            system.append(_new_rows(spec, 250, seed=400 + seed))
        report = system.staleness()
        assert report.partitions_added == 5
        assert report.fraction_new == pytest.approx(5 / 21)
        assert report.needs_retraining

    def test_drift_bounded(self, fresh_ps3):
        system, __, spec = fresh_ps3
        system.append(_new_rows(spec, 250, seed=500))
        report = system.staleness()
        assert 0.0 <= report.heavy_hitter_drift <= 1.0
