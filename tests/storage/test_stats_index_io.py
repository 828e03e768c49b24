"""Round-trips of the statistics bundle (format v4).

A bundle stores the statistics once, as the arrays queries read: the
columnar index, row counts, Table 4 sizes and the running global
heavy-hitter sketches. Pinned here:

* everything reloads bit-identical to what was saved, and drives
  identical features;
* version-1 and version-2 files are refused with
  :class:`~repro.errors.UnsupportedBundleError`; an unknown version or
  any damage (an index array out of bounds, a bad dtype, a missing
  array, a partition count that disagrees, a flipped byte, a torn file)
  raises :class:`~repro.errors.CorruptBundleError` — a
  :class:`~repro.errors.StorageError`, never a
  :class:`~repro.errors.ConfigError`, and never a silent degrade;
* a feature builder reads the statistics' own index and nothing else;
* a cold-loaded index still accepts appended partitions without writing
  into the arrays it was given (the buffer rule: arrays no growth buffer
  holds are copied into one on the first append), and lands
  bit-identical to the never-saved statistics.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np
import pytest
from sketch_oracle import assert_entries_identical, assert_indexes_identical

from repro.errors import (
    ConfigError,
    CorruptBundleError,
    StorageError,
    UnsupportedBundleError,
)
from repro.sketches.builder import build_dataset_statistics
from repro.stats.features import FeatureBuilder
from repro.storage import (
    load_model,
    load_statistics_bundle,
    replay_batch_into_statistics,
    save_model,
    save_statistics,
)

_FOOTER_MAGIC = b"PS3C"


@pytest.fixture(scope="module")
def saved(tiny_stats, tmp_path_factory):
    path = tmp_path_factory.mktemp("stats_v4") / "tiny.ps3stats"
    save_statistics(tiny_stats, path)
    return path


def assert_statistics_equal(expected, actual) -> None:
    """Two ``DatasetStatistics`` hold the same bytes everywhere."""
    assert actual.schema == expected.schema and actual.config == expected.config
    assert_indexes_identical(expected.index, actual.index)
    assert actual.num_rows.tolist() == expected.num_rows.tolist()
    assert actual.sizes.tolist() == expected.sizes.tolist()
    assert actual.global_heavy_hitters == expected.global_heavy_hitters
    assert list(actual.running_heavy_hitters) == list(expected.running_heavy_hitters)
    for name, sketch in expected.running_heavy_hitters.items():
        assert_entries_identical(sketch, actual.running_heavy_hitters[name], name)


def _rewrite_manifest(path, out_path, mutate):
    """Mutate the manifest while keeping the integrity footer valid.

    Recomputing the footer CRC makes the *mutation* the thing under
    test; without it every rewrite would trip the manifest checksum
    before reaching the targeted code path.
    """
    raw = path.read_bytes()
    header_size = int.from_bytes(raw[:8], "little")
    manifest = json.loads(raw[8 : 8 + header_size])
    blob = raw[8 + header_size : -8]
    mutate(manifest)
    header = json.dumps(manifest).encode("utf-8")
    footer = _FOOTER_MAGIC + struct.pack("<I", zlib.crc32(header))
    out_path.write_bytes(struct.pack("<Q", len(header)) + header + blob + footer)
    return out_path


def _batch(rng, n):
    return {
        "x": rng.exponential(10.0, n) + 1.0,
        "y": rng.normal(0.0, 5.0, n),
        "d": rng.integers(0, 100, n),
        "cat": rng.choice(["a", "b", "c", "dd"], n),
        "tag": rng.choice([f"t{i:03d}" for i in range(300)], n),
    }


class TestRoundtrip:
    def test_everything_reloads_bit_identical(self, saved, tiny_stats):
        bundle = load_statistics_bundle(saved)
        assert_statistics_equal(tiny_stats, bundle.statistics)
        assert bundle.wal_applied_seq == 0

    def test_loaded_statistics_drive_identical_features(self, saved, tiny_stats):
        bundle = load_statistics_bundle(saved)
        loaded = FeatureBuilder(bundle.statistics, ("cat", "d"))
        live = FeatureBuilder(tiny_stats, ("cat", "d"))
        np.testing.assert_array_equal(loaded.static_matrix, live.static_matrix)

    def test_resave_is_bit_identical(self, saved, tmp_path):
        again = tmp_path / "again.ps3stats"
        save_statistics(load_statistics_bundle(saved).statistics, again)
        assert again.read_bytes() == saved.read_bytes()

    def test_save_takes_no_index(self, tiny_stats):
        with pytest.raises(TypeError):
            save_statistics(tiny_stats, "/dev/null", index=tiny_stats.index)


class TestRetiredFormats:
    @pytest.mark.parametrize("version", [1, 2])
    def test_v1_and_v2_are_refused(self, saved, tmp_path, version):
        old = _rewrite_manifest(
            saved,
            tmp_path / f"v{version}.ps3stats",
            lambda manifest: manifest.update(version=version),
        )
        with pytest.raises(UnsupportedBundleError, match=f"v{version}") as caught:
            load_statistics_bundle(old)
        assert isinstance(caught.value, StorageError)
        assert not isinstance(caught.value, CorruptBundleError)


class TestCorruption:
    def test_unsupported_version_rejected(self, saved, tmp_path):
        bad = _rewrite_manifest(
            saved,
            tmp_path / "v99.ps3stats",
            lambda manifest: manifest.update(version=99),
        )
        # Damage in the world, not a caller bug: a StorageError, never a
        # ConfigError.
        with pytest.raises(CorruptBundleError, match="version") as caught:
            load_statistics_bundle(bad)
        assert isinstance(caught.value, StorageError)
        assert not isinstance(caught.value, ConfigError)

    @pytest.mark.parametrize(
        "clobber",
        [
            lambda m: m["index"]["x"]["stats"].__setitem__(0, 10**9),
            lambda m: m["index"]["x"]["stats"].__setitem__(2, "not-a-dtype"),
            lambda m: m["index"]["x"].pop("hist.edges"),
            lambda m: m.update(num_partitions=3),
            lambda m: m["sizes"].__setitem__(3, [2, 4]),
            lambda m: m["running_heavy_hitters"].pop("cat"),
        ],
        ids=[
            "out-of-bounds",
            "bad-dtype",
            "missing-array",
            "partition-count",
            "sizes-shape",
            "missing-running-sketch",
        ],
    )
    def test_structural_damage_is_corruption(self, saved, tmp_path, clobber):
        bad = _rewrite_manifest(saved, tmp_path / "bad.ps3stats", clobber)
        with pytest.raises(CorruptBundleError):
            load_statistics_bundle(bad)

    def test_flipped_manifest_byte_rejected(self, saved, tmp_path):
        """Manifest bit-rot that the footer CRC must catch.

        A flipped digit inside ``num_partitions`` keeps the JSON
        perfectly parseable — without the footer checksum this would load
        and serve wrong numbers.
        """
        raw = bytearray(saved.read_bytes())
        header_size = int.from_bytes(raw[:8], "little")
        marker = raw[8 : 8 + header_size].find(b'"num_partitions":')
        assert marker >= 0
        digit = 8 + marker + len(b'"num_partitions": ')
        raw[digit] = ord("9") if raw[digit] != ord("9") else ord("8")
        bad = tmp_path / "rot.ps3stats"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CorruptBundleError, match="manifest checksum"):
            load_statistics_bundle(bad)

    def test_flipped_blob_byte_rejected(self, saved, tmp_path):
        raw = bytearray(saved.read_bytes())
        header_size = int.from_bytes(raw[:8], "little")
        raw[8 + header_size + 3] ^= 0x40  # inside the array blob
        bad = tmp_path / "blobrot.ps3stats"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CorruptBundleError, match="section checksum"):
            load_statistics_bundle(bad)

    def test_truncated_file_rejected(self, saved, tmp_path):
        raw = saved.read_bytes()
        bad = tmp_path / "torn.ps3stats"
        bad.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptBundleError):
            load_statistics_bundle(bad)


class TestOneIndex:
    def test_feature_builder_reads_the_statistics_own_index(self, saved, tiny_stats):
        bundle = load_statistics_bundle(saved)
        stats = bundle.statistics
        builder = FeatureBuilder(stats, ("cat", "d"), index=stats.index)
        assert builder.sketch_index is stats.index
        assert FeatureBuilder(stats, ("cat", "d")).sketch_index is stats.index
        with pytest.raises(ConfigError, match="own index"):
            FeatureBuilder(stats, ("cat", "d"), index=tiny_stats.index)

    def test_model_cold_start_binds_the_loaded_index(self, trained_ps3, tmp_path):
        stats_path = tmp_path / "stats.ps3stats"
        model_path = tmp_path / "model.json"
        save_statistics(trained_ps3.statistics, stats_path)
        save_model(trained_ps3.model, model_path)
        statistics = load_statistics_bundle(stats_path).statistics
        model = load_model(model_path, statistics)
        assert model.feature_builder.sketch_index is statistics.index
        query = trained_ps3.training_data.queries[0]
        np.testing.assert_array_equal(
            model.feature_builder.features_for_query(query).matrix,
            trained_ps3.feature_builder.features_for_query(query).matrix,
        )


class TestAppendAfterColdLoad:
    """Regression: appends must keep working after a cold load.

    The loaded arrays are frozen here, so any append path that wrote
    into them in place would raise ``ValueError``; the seal must copy
    them into growth buffers on the first append (the buffer rule of
    ``repro.rowbuffers``: only rows past every older generation's views
    are ever written) and land bit-identical to the statistics never
    saved."""

    def test_appends_after_cold_load_match_the_live_statistics(
        self, saved, tiny_ptable, rng
    ):
        stats = load_statistics_bundle(saved).statistics
        for column in stats.index.columns.values():
            for arr in column.array_state().values():
                arr.flags.writeable = False
        live = build_dataset_statistics(tiny_ptable)
        before = stats.num_partitions
        for size in (40, 25, 31):
            batch = _batch(rng, size)
            replay_batch_into_statistics(stats, batch)
            replay_batch_into_statistics(live, batch)
        assert stats.num_partitions == stats.index.num_partitions == before + 3
        assert_statistics_equal(live, stats)
