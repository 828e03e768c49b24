"""Tests for append-only ingest: new partitions, frozen features, drift,
and the durable half — validate, journal, apply, and ``PS3.open``."""

import threading
import warnings

import numpy as np
import pytest

from repro.api import PS3
from repro.datasets.registry import get_dataset
from repro.engine.layout import append_rows
from repro.engine.table import Table
from repro.errors import (
    ConfigError,
    CorruptBundleError,
    DegradedLoadWarning,
    SchemaError,
    WalReplayError,
)
from repro.storage import (
    StatisticsStore,
    WriteAheadLog,
    save_model,
    save_statistics,
)
from repro.storage.atomic import FileIO
from repro.storage.stats_io import _read_manifest
from repro.workload import QueryGenerator
from repro.workload.spec import WorkloadSpec


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


def _rejected_rows(spec, shape):
    """The three batches a live append rejects, by how they are wrong."""
    rows = _new_rows(spec, 100, seed=1)
    if shape == "missing column":
        rows.pop("count")
    elif shape == "ragged columns":
        rows["count"] = rows["count"][:50]
    else:
        rows["count"] = np.array(["many"] * 100)
    return rows


REJECTED = [
    ("missing column", ConfigError),
    ("ragged columns", ConfigError),
    ("wrong kind", SchemaError),
]


def _bundle_bytes(statistics, path):
    save_statistics(statistics, path)
    return path.read_bytes()


def _state_bytes(system, path):
    """The statistics (index included) of a system, as bundle bytes."""
    assert system.feature_builder.sketch_index is system.statistics.index
    return _bundle_bytes(system.statistics, path)


@pytest.fixture
def durable(fresh_ps3, tmp_path):
    """``fresh_ps3`` checkpointed into a store, its model saved beside it."""
    system, __, spec = fresh_ps3
    (tmp_path / "store").mkdir()
    store = system.attach_store(tmp_path / "store")
    system.checkpoint()
    save_model(system.model, tmp_path / "model.json")
    return system, spec, store, tmp_path / "model.json"


class TestDurableAppend:
    """Validate, journal, apply: what is rejected never becomes durable."""

    @pytest.mark.parametrize("shape, error", REJECTED)
    def test_rejected_append_never_reaches_the_journal(
        self, durable, tmp_path, shape, error
    ):
        system, spec, store, model_path = durable
        base = system.ptable
        system.append(_new_rows(spec, 120, seed=7))
        journal = (store.wal.last_seq, store.wal.path.stat().st_size)
        with pytest.raises(error):
            system.append(_rejected_rows(spec, shape))
        assert (store.wal.last_seq, store.wal.path.stat().st_size) == journal
        assert WriteAheadLog(store.wal.path).last_seq == journal[0]
        assert system.ptable.num_partitions == base.num_partitions + 1
        system.append(_new_rows(spec, 90, seed=8))

        live = _state_bytes(system, tmp_path / "live.ps3stats")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing to skip, nothing degraded
            recovered = StatisticsStore(store.directory).load_statistics()
            reopened = PS3.open(base, system.workload, store.directory, model_path)
        assert _bundle_bytes(recovered[0], tmp_path / "recovered.ps3stats") == live
        assert _state_bytes(reopened, tmp_path / "reopened.ps3stats") == live

    @pytest.mark.parametrize("shape", [shape for shape, __ in REJECTED])
    def test_old_journal_holding_a_rejected_batch_still_recovers(
        self, durable, tmp_path, shape
    ):
        """Before validation preceded the journal write, the rejected
        batch was durable; replay skips what no live system applied."""
        system, spec, store, model_path = durable
        base = system.ptable
        system.append(_new_rows(spec, 120, seed=7))
        store.log_append(_rejected_rows(spec, shape))  # what the old order left
        system.append(_new_rows(spec, 90, seed=8))

        live = _state_bytes(system, tmp_path / "live.ps3stats")
        with pytest.warns(DegradedLoadWarning) as caught:
            recovered = StatisticsStore(store.directory).load_statistics()
        assert [w.message.reason for w in caught] == ["wal-rejected-batch"]
        assert _bundle_bytes(recovered[0], tmp_path / "recovered.ps3stats") == live
        with pytest.warns(DegradedLoadWarning, match="skipping record 2"):
            reopened = PS3.open(base, system.workload, store.directory, model_path)
        assert _state_bytes(reopened, tmp_path / "reopened.ps3stats") == live
        # The skip is for a record that is intact and wrong, never for damage.
        raw = bytearray(store.wal.path.read_bytes())
        raw[-10] ^= 0x40  # inside the last record's payload
        store.wal.path.write_bytes(bytes(raw))
        with pytest.raises(WalReplayError, match="checksum"):
            StatisticsStore(store.directory).load_statistics()
        with pytest.raises(WalReplayError, match="checksum"):
            PS3.open(base, system.workload, store.directory, model_path)

    def test_checkpoint_keeps_an_append_it_races(self, durable, tmp_path):
        """An append journaled while a checkpoint writes its bundle would
        be in neither the bundle nor the truncated journal; the checkpoint
        holds the state lock, so the append waits for it and lands in the
        journal after the truncation."""
        system, spec, store, __ = durable
        system.append(_new_rows(spec, 120, seed=7))
        appended = []

        class AppendDuringBundleWrite(FileIO):
            thread = None

            def write(self, handle, data):
                if self.thread is None and str(handle.name).endswith(".ps3stats.tmp"):
                    rows = _new_rows(spec, 90, seed=8)
                    self.thread = threading.Thread(
                        target=lambda: appended.append(system.append(rows))
                    )
                    self.thread.start()
                    self.thread.join(timeout=0.2)  # time to journal, if it can
                super().write(handle, data)

        io = AppendDuringBundleWrite()
        system.attach_store(store.directory, io=io)
        system.checkpoint()
        io.thread.join(timeout=30)
        assert appended == [system.ptable.num_partitions - 1]
        stats, index = StatisticsStore(store.directory).load_statistics()
        assert stats.num_partitions == system.statistics.num_partitions
        assert index is stats.index
        live = _state_bytes(system, tmp_path / "live.ps3stats")
        assert _bundle_bytes(stats, tmp_path / "recovered.ps3stats") == live

    def test_checkpoint_persists_no_other_deployments_predicates(
        self, durable, trained_ps3
    ):
        """The default plan cache is process-wide: what it holds says
        nothing about this store (it was once written into the bundle)."""
        system, __, store, ___ = durable
        trained_ps3.query(
            trained_ps3.training_data.queries[0], budget_partitions=2
        )
        assert len(system.feature_builder.plan_cache) > 0
        system.checkpoint()
        manifest, __ = _read_manifest(store.stats_path, io=None)
        assert "plan_cache_keys" not in manifest


class TestOpenEqualsNeverCrashed:
    """fit → checkpoint → append ×2 → checkpoint → append → crash →
    ``PS3.open``: the reopened system is the live one, bit for bit."""

    @pytest.fixture
    def timelines(self, durable):
        system, spec, store, model_path = durable
        for seed in (11, 12):
            system.append(_new_rows(spec, 150, seed=seed))
        system.checkpoint()
        at_checkpoint = system.ptable
        system.append(_new_rows(spec, 80, seed=13))
        reopened = PS3.open(
            at_checkpoint, system.workload, store.directory, model_path
        )
        return system, reopened, at_checkpoint, store, model_path

    def test_statistics_index_and_answers_equal(self, timelines, tmp_path):
        live, reopened, *__ = timelines
        assert reopened.ptable.num_partitions == live.ptable.num_partitions
        assert _state_bytes(reopened, tmp_path / "r.ps3stats") == _state_bytes(
            live, tmp_path / "l.ps3stats"
        )
        ours = reopened.feature_builder.sketch_index
        theirs = live.feature_builder.sketch_index
        for name, column in theirs.columns.items():
            for key, array in column.array_state().items():
                np.testing.assert_array_equal(
                    ours.columns[name].array_state()[key], array, err_msg=name
                )
        queries = QueryGenerator(
            live.workload, live.ptable.table, seed=31
        ).sample_queries(12)
        for fraction in (0.1, 0.4):
            for query in queries:
                want = live.query(query, budget_fraction=fraction)
                got = reopened.query(query, budget_fraction=fraction)
                assert got.budget == want.budget
                assert got.selection == want.selection
                assert list(got.groups) == list(want.groups)
                for key, values in want.groups.items():
                    assert got.groups[key].tobytes() == values.tobytes()

    def test_reopened_system_serves_appends_and_checkpoints(self, timelines):
        live, reopened, at_checkpoint, store, model_path = timelines
        query = live.training_data.queries[0]
        with reopened.serve() as front:
            served = front.submit(query, budget_fraction=0.5).result(timeout=30)
        assert served.num_partitions == reopened.ptable.num_partitions
        # The store came back attached: the timeline continues on it.
        rows = dict(live.ptable[0].columns)
        assert reopened.append(rows) == live.append(rows)
        assert reopened.checkpoint() == store.wal.last_seq
        again = PS3.open(
            reopened.ptable, live.workload, store.directory, model_path
        )
        assert again.statistics.num_partitions == live.statistics.num_partitions

    def test_open_fails_typed_never_half_open(self, timelines, tmp_path):
        live, __, at_checkpoint, store, model_path = timelines
        with pytest.raises(ConfigError, match="partitions"):
            PS3.open(live.ptable, live.workload, store.directory, model_path)
        narrower = WorkloadSpec(
            live.workload.groupby_universe[:-1],
            live.workload.aggregate_columns,
            live.workload.predicate_columns,
        )
        with pytest.raises(ConfigError, match="group-by universe"):
            PS3.open(at_checkpoint, narrower, store.directory, model_path)
        with pytest.raises(ConfigError, match="no picker model"):
            PS3.open(
                at_checkpoint, live.workload, store.directory, tmp_path / "none"
            )
        torn = tmp_path / "torn.json"
        torn.write_bytes(model_path.read_bytes()[:-40])
        with pytest.raises(CorruptBundleError):
            PS3.open(at_checkpoint, live.workload, store.directory, torn)
