"""Kill-point sweeps: the crash-safety claims, proven by enumeration.

Every mutating filesystem operation in a save / WAL append / checkpoint
is a kill point; :func:`~repro.storage.faults.sweep_kill_points` crashes
the operation sequence before each one and the checks assert the
recovered state is *bit-identical* to either the pre-crash or the
post-crash state — never a third thing. Byte-level faults (torn writes,
ENOSPC, bit flips) ride the same harness.

The unmarked tests are the tier-1 subset (small statistics, sampled
flip offsets); the ``slow``-marked variants sweep exhaustively.
"""

from __future__ import annotations

import copy
import warnings

import pytest

from repro.errors import (
    CorruptBundleError,
    DegradedLoadWarning,
    StorageError,
)
from repro.storage import (
    StatisticsStore,
    load_statistics_bundle,
    recover_statistics_bundle,
    replay_batch_into_statistics,
    save_statistics,
)
from repro.storage.atomic import backup_path
from repro.storage.faults import FaultyIO, SimulatedCrash, sweep_kill_points


@pytest.fixture
def batch(rng):
    n = 30
    return {
        "x": rng.exponential(10.0, n) + 1.0,
        "y": rng.normal(0.0, 5.0, n),
        "d": rng.integers(0, 100, n),
        "cat": rng.choice(["a", "b", "c", "dd"], n),
        "tag": rng.choice([f"t{i:03d}" for i in range(300)], n),
    }


def _serialize(stats, path) -> bytes:
    """Canonical bundle bytes for bit-level state comparison."""
    save_statistics(stats, path)
    return path.read_bytes()


class TestSaveStatisticsSweep:
    def test_every_crash_point_leaves_old_or_new_bundle(
        self, tiny_stats, tmp_path
    ):
        path = tmp_path / "stats.ps3stats"
        save_statistics(tiny_stats, path, wal_applied_seq=1)
        old = path.read_bytes()
        save_statistics(
            tiny_stats, tmp_path / "ref.ps3stats", wal_applied_seq=2
        )
        new = (tmp_path / "ref.ps3stats").read_bytes()
        assert old != new

        def action(io):
            save_statistics(
                tiny_stats, path, wal_applied_seq=2, io=io
            )

        def check(io):
            # Never a torn file: the target is exactly one generation...
            assert path.read_bytes() in (old, new)
            # ...and it loads (clean checksums), possibly via recovery.
            bundle = recover_statistics_bundle(path)
            assert bundle.statistics.num_partitions == tiny_stats.num_partitions

        # write, fsync, (unlink+link+replace for .bak), replace, fsync_dir
        assert sweep_kill_points(action, check) >= 5

    def test_every_crash_point_leaves_a_bundle_that_loads_clean(
        self, tiny_stats, tmp_path
    ):
        """The same crash sweep: every kill point leaves a file whose
        manifest and blob both verify, with no degrade."""
        path = tmp_path / "stats.ps3stats"
        save_statistics(tiny_stats, path, wal_applied_seq=1)
        old = path.read_bytes()
        save_statistics(tiny_stats, tmp_path / "ref.ps3stats", wal_applied_seq=2)
        new = (tmp_path / "ref.ps3stats").read_bytes()

        def action(io):
            save_statistics(tiny_stats, path, wal_applied_seq=2, io=io)

        def check(io):
            assert path.read_bytes() in (old, new)
            with warnings.catch_warnings():
                warnings.simplefilter("error", DegradedLoadWarning)
                bundle = load_statistics_bundle(path)
            statistics = bundle.statistics
            assert statistics.index.num_partitions == tiny_stats.num_partitions

        assert sweep_kill_points(action, check) >= 5

    def test_backup_generation_survives_the_overwrite(self, tiny_stats, tmp_path):
        path = tmp_path / "stats.ps3stats"
        save_statistics(tiny_stats, path, wal_applied_seq=1)
        old = path.read_bytes()
        save_statistics(tiny_stats, path, wal_applied_seq=2)
        assert backup_path(path).read_bytes() == old


class TestWalAppendSweep:
    def test_append_crash_replay_parity(self, tiny_stats, batch, tmp_path):
        """Acceptance: append -> crash -> replay == append without crash."""
        base = copy.deepcopy(tiny_stats)
        store = StatisticsStore(tmp_path)
        store.checkpoint(base)  # also creates the empty journal

        pre = _serialize(base, tmp_path / "pre.ref")
        post_stats = copy.deepcopy(base)
        replay_batch_into_statistics(post_stats, batch)
        post = _serialize(post_stats, tmp_path / "post.ref")
        assert pre != post

        def action(io):
            StatisticsStore(tmp_path, io=io).log_append(batch)

        def check(io):
            stats, __ = StatisticsStore(tmp_path).load_statistics()
            recovered = _serialize(stats, tmp_path / "got.ref")
            assert recovered in (pre, post)

        assert sweep_kill_points(action, check) == 2  # record write, fsync

    @pytest.mark.parametrize("torn_at", [1, 17, 64, 300, 1500])
    def test_torn_record_write_recovers_to_pre_state(
        self, tiny_stats, batch, tmp_path, torn_at
    ):
        """A crash partway through the record write loses only the batch."""
        base = copy.deepcopy(tiny_stats)
        store = StatisticsStore(tmp_path)
        store.checkpoint(base)
        pre = _serialize(base, tmp_path / "pre.ref")

        io = FaultyIO(crash_after_bytes=torn_at)
        with pytest.raises(SimulatedCrash):
            StatisticsStore(tmp_path, io=io).log_append(batch)

        with warnings.catch_warnings():
            # The torn tail is the expected crash residue.
            warnings.simplefilter("ignore", DegradedLoadWarning)
            stats, __ = StatisticsStore(tmp_path).load_statistics()
        assert _serialize(stats, tmp_path / "got.ref") == pre


class TestCheckpointSweep:
    def test_every_crash_point_preserves_logical_state(
        self, tiny_stats, batch, tmp_path
    ):
        base = copy.deepcopy(tiny_stats)
        store = StatisticsStore(tmp_path)
        store.checkpoint(base)
        store.log_append(batch)
        store.log_append(batch)
        expected_stats, __ = StatisticsStore(tmp_path).load_statistics()
        expected = _serialize(expected_stats, tmp_path / "expected.ref")

        def action(io):
            crashing = StatisticsStore(tmp_path, io=io)
            stats, __ = crashing.load_statistics()
            crashing.checkpoint(stats)

        def check(io):
            stats, __ = StatisticsStore(tmp_path).load_statistics()
            assert _serialize(stats, tmp_path / "got.ref") == expected

        # bundle save (7 ops) + journal truncation (its own atomic write)
        assert sweep_kill_points(action, check) >= 10


class TestEnospc:
    def test_enospc_mid_checkpoint_keeps_the_old_state(
        self, tiny_stats, batch, tmp_path
    ):
        base = copy.deepcopy(tiny_stats)
        store = StatisticsStore(tmp_path)
        store.checkpoint(base)
        store.log_append(batch)
        expected_stats, __ = StatisticsStore(tmp_path).load_statistics()
        expected = _serialize(expected_stats, tmp_path / "expected.ref")

        io = FaultyIO(enospc_after_bytes=500)
        sick = StatisticsStore(tmp_path, io=io)
        stats, __ = sick.load_statistics()
        with pytest.raises(StorageError, match="atomic write"):
            sick.checkpoint(stats)

        recovered, __ = StatisticsStore(tmp_path).load_statistics()
        assert _serialize(recovered, tmp_path / "got.ref") == expected

    def test_enospc_mid_append_leaves_recoverable_journal(
        self, tiny_stats, batch, tmp_path
    ):
        base = copy.deepcopy(tiny_stats)
        store = StatisticsStore(tmp_path)
        store.checkpoint(base)
        pre = _serialize(base, tmp_path / "pre.ref")

        io = FaultyIO(enospc_after_bytes=200)
        with pytest.raises(OSError) as excinfo:
            StatisticsStore(tmp_path, io=io).log_append(batch)
        assert excinfo.value.errno is not None

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedLoadWarning)
            stats, __ = StatisticsStore(tmp_path).load_statistics()
        assert _serialize(stats, tmp_path / "got.ref") == pre


def _assert_flip_detected(raw: bytes, offset: int, tmp_path):
    """Flipping ``raw[offset]`` must raise: every byte is under a
    checksum, and nothing in a bundle is a cache to degrade to, so
    corruption is *never silent*."""
    flipped = bytearray(raw)
    flipped[offset] ^= 0x40
    bad = tmp_path / "flipped.ps3stats"
    bad.write_bytes(bytes(flipped))
    with pytest.raises(CorruptBundleError):
        recover_statistics_bundle(bad)


class TestFlippedBytes:
    """Differential sweep: no single flipped byte is ever silent."""

    @pytest.fixture()
    def saved(self, tiny_stats, tmp_path_factory):
        path = tmp_path_factory.mktemp("flip") / "stats.ps3stats"
        save_statistics(tiny_stats, path, wal_applied_seq=1)
        return path.read_bytes()

    def test_sampled_offsets(self, saved, tmp_path):
        raw = saved
        # Framing bytes (length prefix, manifest head, footer) plus an
        # even sample across the whole file.
        offsets = list(range(12)) + list(range(len(raw) - 8, len(raw)))
        offsets += list(range(12, len(raw) - 8, 997))
        for offset in offsets:
            _assert_flip_detected(raw, offset, tmp_path)

    @pytest.mark.slow
    def test_exhaustive_offsets(self, saved, tmp_path):
        raw = saved
        for offset in range(0, len(raw), 13):
            _assert_flip_detected(raw, offset, tmp_path)


class TestBakFallback:
    def test_corrupt_bundle_recovers_from_backup(self, tiny_stats, tmp_path):
        path = tmp_path / "stats.ps3stats"
        save_statistics(tiny_stats, path, wal_applied_seq=1)
        save_statistics(tiny_stats, path, wal_applied_seq=2)
        raw = bytearray(path.read_bytes())
        raw[30] ^= 0x40  # rot inside the manifest
        path.write_bytes(bytes(raw))

        with pytest.warns(DegradedLoadWarning) as caught:
            bundle = recover_statistics_bundle(path)
        assert caught[0].message.reason == "bak-fallback"
        assert bundle.wal_applied_seq == 1

    def test_both_generations_corrupt_raises_the_primary_error(
        self, tiny_stats, tmp_path
    ):
        path = tmp_path / "stats.ps3stats"
        save_statistics(tiny_stats, path)
        save_statistics(tiny_stats, path, wal_applied_seq=2)
        for victim in (path, backup_path(path)):
            raw = bytearray(victim.read_bytes())
            raw[30] ^= 0x40
            victim.write_bytes(bytes(raw))
        with pytest.raises(CorruptBundleError):
            recover_statistics_bundle(path)


@pytest.mark.slow
class TestSweepWithStamp:
    """Exhaustive variant: the full bundle (journal stamp included) swept."""

    def test_save_with_stamp_killpoints(self, tiny_stats, tmp_path):
        path = tmp_path / "stats.ps3stats"
        save_statistics(tiny_stats, path)
        old = path.read_bytes()
        save_statistics(tiny_stats, tmp_path / "ref.ps3stats", wal_applied_seq=1)
        new = (tmp_path / "ref.ps3stats").read_bytes()

        def action(io):
            save_statistics(tiny_stats, path, wal_applied_seq=1, io=io)

        def check(io):
            assert path.read_bytes() in (old, new)
            bundle = recover_statistics_bundle(path)
            assert bundle.statistics.num_partitions == tiny_stats.num_partitions

        assert sweep_kill_points(action, check) >= 5

    def test_multi_batch_checkpoint_killpoints(
        self, tiny_stats, batch, tmp_path
    ):
        base = copy.deepcopy(tiny_stats)
        store = StatisticsStore(tmp_path)
        store.checkpoint(base)
        for __ in range(3):
            store.log_append(batch)
        expected_stats, __ = StatisticsStore(tmp_path).load_statistics()
        expected = _serialize(expected_stats, tmp_path / "expected.ref")

        def action(io):
            crashing = StatisticsStore(tmp_path, io=io)
            stats, __ = crashing.load_statistics()
            crashing.checkpoint(stats)

        def check(io):
            stats, idx = StatisticsStore(tmp_path).load_statistics()
            assert _serialize(stats, tmp_path / "got.ref") == expected
            assert idx is stats.index
            assert idx.num_partitions == expected_stats.num_partitions

        assert sweep_kill_points(action, check) >= 10
