"""The append write-ahead log: framing, replay, and damage handling.

The parity contract (append → crash → replay is bit-identical to append
without a crash) is pinned here at the statistics level; the full
crash-point enumeration lives in ``test_killpoints.py``.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    DegradedLoadWarning,
    SchemaError,
    StorageError,
    WalReplayError,
)
from repro.sketches.builder import append_partition_statistics
from repro.storage import (
    WriteAheadLog,
    replay_batch_into_statistics,
    save_statistics,
)
from repro.storage.faults import FaultyIO


@pytest.fixture
def batch(rng):
    n = 40
    return {
        "x": rng.exponential(10.0, n) + 1.0,
        "y": rng.normal(0.0, 5.0, n),
        "d": rng.integers(0, 100, n),
        "cat": rng.choice(["a", "b", "c", "dd"], n),
        "tag": rng.choice([f"t{i:03d}" for i in range(300)], n),
    }


def _bundle_bytes(stats, path):
    save_statistics(stats, path)
    return path.read_bytes()


class TestRoundtrip:
    def test_columns_and_meta_survive_exactly(self, tmp_path, batch):
        wal = WriteAheadLog(tmp_path / "w.ps3wal")
        seq = wal.append(batch, meta={"rows": 40, "seed": 7})
        assert seq == 1
        (replayed,) = WriteAheadLog(tmp_path / "w.ps3wal").replay()
        assert replayed.seq == 1
        assert replayed.meta == {"rows": 40, "seed": 7}
        assert set(replayed.columns) == set(batch)
        for name, values in batch.items():
            arr = np.asarray(values)
            assert replayed.columns[name].dtype == arr.dtype, name
            np.testing.assert_array_equal(replayed.columns[name], arr)

    def test_sequence_numbers_increment(self, tmp_path, batch):
        wal = WriteAheadLog(tmp_path / "w.ps3wal")
        assert [wal.append(batch) for __ in range(3)] == [1, 2, 3]
        assert [b.seq for b in wal.replay(after_seq=1)] == [2, 3]

    def test_truncate_preserves_the_sequence_counter(self, tmp_path, batch):
        wal = WriteAheadLog(tmp_path / "w.ps3wal")
        wal.append(batch)
        wal.append(batch)
        wal.truncate()
        fresh = WriteAheadLog(tmp_path / "w.ps3wal")
        assert fresh.replay() == []
        # Sequence numbers never regress across checkpoints.
        assert fresh.append(batch) == 3

    def test_missing_file_replays_empty(self, tmp_path):
        assert WriteAheadLog(tmp_path / "none.ps3wal").replay() == []

    def test_object_dtype_rejected_at_append(self, tmp_path, batch):
        wal = WriteAheadLog(tmp_path / "w.ps3wal")
        batch["cat"] = np.array(["a", 3.5, None], dtype=object)
        with pytest.raises(StorageError, match="object dtype"):
            wal.append(batch)


class TestDamage:
    def test_torn_tail_dropped_with_warning(self, tmp_path, batch):
        path = tmp_path / "w.ps3wal"
        wal = WriteAheadLog(path)
        wal.append(batch, meta={"n": 1})
        intact_size = path.stat().st_size
        wal.append(batch, meta={"n": 2})
        # Tear the second record mid-payload, as a crash would.
        raw = path.read_bytes()
        path.write_bytes(raw[: intact_size + (len(raw) - intact_size) // 2])
        with pytest.warns(DegradedLoadWarning) as caught:
            batches = WriteAheadLog(path).replay()
        assert caught[0].message.reason == "wal-torn-tail"
        assert [b.meta["n"] for b in batches] == [1]

    def test_torn_tail_still_advances_the_counter(self, tmp_path, batch):
        path = tmp_path / "w.ps3wal"
        wal = WriteAheadLog(path)
        wal.append(batch)
        intact_size = path.stat().st_size
        wal.append(batch)
        raw = path.read_bytes()
        path.write_bytes(raw[: intact_size + 10])
        fresh = WriteAheadLog(path)
        with pytest.warns(DegradedLoadWarning):
            fresh.replay()
        # The next append must not reuse the torn record's slot... the
        # torn record was never acknowledged, so seq 2 is free again.
        assert fresh.append(batch) == 2

    def test_bitrot_before_intact_records_refuses_replay(
        self, tmp_path, batch
    ):
        path = tmp_path / "w.ps3wal"
        wal = WriteAheadLog(path)
        wal.append(batch)
        first_size = path.stat().st_size
        wal.append(batch)
        raw = bytearray(path.read_bytes())
        raw[first_size - 10] ^= 0x40  # inside record 1's payload
        path.write_bytes(bytes(raw))
        with pytest.raises(WalReplayError, match="checksum"):
            WriteAheadLog(path).replay()

    def test_corrupt_header_refuses_replay(self, tmp_path, batch):
        path = tmp_path / "w.ps3wal"
        WriteAheadLog(path).append(batch)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0x40
        path.write_bytes(bytes(raw))
        with pytest.raises(WalReplayError, match="header"):
            WriteAheadLog(path).replay()

    def test_unsynced_append_is_lost_on_crash(self, tmp_path, batch):
        path = tmp_path / "w.ps3wal"
        WriteAheadLog(path).append(batch)
        io = FaultyIO(crash_at_op=1)  # record write lands, fsync never runs
        wal = WriteAheadLog(path, io=io)
        with pytest.raises(BaseException, match="simulated crash"):
            wal.append(batch)
        assert len(WriteAheadLog(path).replay()) == 1


class TestReplayParity:
    def test_replay_matches_live_append_bit_for_bit(
        self, tiny_stats, tiny_ptable, batch, tmp_path
    ):
        """Journal replay runs the same seal path as a live append."""
        live = copy.deepcopy(tiny_stats)
        recovered = copy.deepcopy(tiny_stats)

        # Live timeline: seal the batch exactly as PS3.append does.
        from repro.engine.layout import append_rows

        grown = append_rows(tiny_ptable, batch)
        append_partition_statistics(live, grown[grown.num_partitions - 1])

        # Crashed timeline: the batch went through the journal.
        wal = WriteAheadLog(tmp_path / "w.ps3wal")
        wal.append(batch)
        for replayed in WriteAheadLog(tmp_path / "w.ps3wal").replay():
            replay_batch_into_statistics(recovered, replayed.columns)

        assert _bundle_bytes(live, tmp_path / "live.ps3stats") == _bundle_bytes(
            recovered, tmp_path / "recovered.ps3stats"
        )

    @pytest.mark.parametrize(
        "damage, error",
        [
            (lambda b: b.pop("cat"), ConfigError),
            (lambda b: b.update(y=b["y"][:7]), ConfigError),
            (lambda b: b.update(x=np.array(["many"] * len(b["x"]))), SchemaError),
        ],
        ids=["missing column", "ragged columns", "wrong kind"],
    )
    def test_replay_rejects_what_a_live_append_rejects(
        self, tiny_stats, tiny_ptable, batch, damage, error
    ):
        """One checker for both: the same typed error, nothing applied."""
        from repro.engine.layout import append_rows

        bad = dict(batch)
        damage(bad)
        recovered = copy.deepcopy(tiny_stats)
        with pytest.raises(error) as live:
            append_rows(tiny_ptable, bad)
        with pytest.raises(error) as replayed:
            replay_batch_into_statistics(recovered, bad)
        assert str(replayed.value) == str(live.value)
        assert recovered.num_partitions == tiny_stats.num_partitions

    def test_recovered_multi_block_partition_equals_the_live_one(
        self, tiny_ptable, rng, tmp_path
    ):
        """A journaled partition longer than one lossy-counting block
        (700 rows at width 200: three full blocks and a partial one)
        reloads with the index rows and running heavy-hitter state a live
        append sealed — replay, append and the offline build share one
        seal path."""
        from repro.engine.layout import append_rows
        from repro.sketches.builder import (
            SketchConfig,
            build_dataset_statistics,
            seal_partition,
        )
        from repro.storage import StatisticsStore

        n = 700
        batch = {
            "x": rng.exponential(10.0, n) + 1.0,
            "y": rng.normal(0.0, 5.0, n),
            "d": rng.integers(0, 100, n),
            "cat": rng.choice(["a", "b", "c", "dd"], n, p=[0.7, 0.2, 0.07, 0.03]),
            "tag": rng.choice([f"t{i:03d}" for i in range(300)], n),
        }
        live = build_dataset_statistics(tiny_ptable, SketchConfig(hh_support=0.05))
        store = StatisticsStore(tmp_path)
        store.checkpoint(live)
        store.log_append(batch)

        grown = append_rows(tiny_ptable, batch)
        append_partition_statistics(live, grown[grown.num_partitions - 1])
        sealed = seal_partition(live.schema, batch, 0, live.config)
        assert sealed.hitters["tag"].bucket == 4

        recovered, __ = StatisticsStore(tmp_path).load_statistics()
        assert recovered.num_partitions == live.num_partitions
        for name, sketch in live.running_heavy_hitters.items():
            theirs = recovered.running_heavy_hitters[name]
            assert theirs.entries() == sketch.entries(), name
            assert theirs.total == sketch.total
        assert _bundle_bytes(live, tmp_path / "live.ps3stats") == _bundle_bytes(
            recovered, tmp_path / "recovered.ps3stats"
        )
