"""Round-trips of the persisted columnar-index artifacts (formats v2/v3).

The stats file may now carry the :class:`ColumnarSketchIndex` arrays and
the warm plan-cache keys alongside the sketch blob. Pinned here:

* saved index arrays reload bit-identical to a fresh sketch-object
  export;
* version-1 files (no index section) still load, with ``index=None`` as
  the re-export fallback signal;
* a corrupted index *section* degrades (``index=None`` plus a
  :class:`~repro.errors.DegradedLoadWarning`) because the sketch blob
  can rebuild it; unsupported versions raise
  :class:`~repro.errors.CorruptBundleError`, a
  :class:`~repro.errors.StorageError` and not a
  :class:`~repro.errors.ConfigError`;
* a cold start through the persisted index never touches the
  sketch-object export path (spy test);
* a cold-loaded index still accepts appended partitions, and ``extend``
  never writes into the arrays it was given (copy-on-append).
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    CorruptBundleError,
    DegradedLoadWarning,
    StorageError,
)
from repro.sketches.columnar import ColumnarSketchIndex
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
def saved_with_index(tiny_stats, tmp_path_factory):
    path = tmp_path_factory.mktemp("stats_v3") / "tiny.ps3stats"
    index = ColumnarSketchIndex.build(tiny_stats)
    save_statistics(tiny_stats, path, index=index)
    return path, index


def _assert_indexes_identical(expected, actual):
    """Bitwise comparison of two ColumnarSketchIndex array sets."""
    assert actual.num_partitions == expected.num_partitions
    assert set(actual.columns) == set(expected.columns)
    for name, column in expected.columns.items():
        other = actual.columns[name].array_state()
        for key, arr in column.array_state().items():
            assert arr.dtype == other[key].dtype, (name, key)
            np.testing.assert_array_equal(arr, other[key], err_msg=f"{name}.{key}")


def _rewrite_manifest(path, out_path, mutate):
    """Mutate the manifest while keeping the v3 integrity footer valid.

    Recomputing the footer CRC makes the *mutation* the thing under
    test; without it every rewrite would trip the manifest checksum
    before reaching the targeted code path.
    """
    raw = path.read_bytes()
    header_size = int.from_bytes(raw[:8], "little")
    manifest = json.loads(raw[8 : 8 + header_size])
    blob = raw[8 + header_size :]
    had_footer = manifest.get("version", 1) >= 3
    if had_footer:
        blob = blob[:-8]
    mutate(manifest)
    header = json.dumps(manifest).encode("utf-8")
    if manifest.get("version", 1) >= 3:
        blob = blob + _FOOTER_MAGIC + struct.pack("<I", zlib.crc32(header))
    out_path.write_bytes(struct.pack("<Q", len(header)) + header + blob)
    return out_path


class TestIndexRoundtrip:
    def test_arrays_bit_identical_to_fresh_export(self, saved_with_index):
        path, saved_index = saved_with_index
        bundle = load_statistics_bundle(path)
        assert bundle.index is not None
        fresh = ColumnarSketchIndex.build(bundle.statistics)
        assert set(bundle.index.columns) == set(fresh.columns)
        for name, column in fresh.columns.items():
            loaded = bundle.index.columns[name].array_state()
            for key, arr in column.array_state().items():
                assert loaded[key].dtype == arr.dtype, (name, key)
                np.testing.assert_array_equal(
                    loaded[key], arr, err_msg=f"{name}.{key}"
                )

    def test_loaded_index_drives_identical_features(
        self, saved_with_index, tiny_stats
    ):
        path, __ = saved_with_index
        bundle = load_statistics_bundle(path)
        from_index = FeatureBuilder(
            bundle.statistics, ("cat", "d"), index=bundle.index
        )
        from_export = FeatureBuilder(bundle.statistics, ("cat", "d"))
        np.testing.assert_array_equal(
            from_index.static_matrix, from_export.static_matrix
        )

    def test_save_without_index_loads_none(self, tiny_stats, tmp_path):
        path = tmp_path / "noindex.ps3stats"
        save_statistics(tiny_stats, path)
        bundle = load_statistics_bundle(path)
        assert bundle.index is None

    def test_mismatched_index_rejected_at_save(self, tiny_stats):
        index = ColumnarSketchIndex.build(tiny_stats)
        index.num_partitions += 1
        with pytest.raises(ConfigError, match="partitions"):
            save_statistics(tiny_stats, "/dev/null", index=index)

    def test_foreign_columns_rejected_at_save(self, tiny_stats):
        """Same partition count, different dataset: caught at write time,
        not as a misleading 'corrupt' error on every later load."""
        index = ColumnarSketchIndex.build(tiny_stats)
        index.columns["ghost"] = index.columns.pop(next(iter(index.columns)))
        with pytest.raises(ConfigError, match="different dataset"):
            save_statistics(tiny_stats, "/dev/null", index=index)


class TestOldFormatFallback:
    def test_version1_file_loads_without_index(
        self, saved_with_index, tiny_stats, tmp_path
    ):
        path, __ = saved_with_index

        def downgrade(manifest):
            manifest["version"] = 1
            manifest.pop("index", None)
            manifest.pop("sections", None)
            manifest.pop("wal_applied_seq", None)

        v1 = _rewrite_manifest(path, tmp_path / "v1.ps3stats", downgrade)
        bundle = load_statistics_bundle(v1)
        assert bundle.index is None
        assert bundle.statistics.num_partitions == tiny_stats.num_partitions
        # The fallback is the pre-v2 export, and it still works.
        rebuilt = ColumnarSketchIndex.build(bundle.statistics)
        assert rebuilt.num_partitions == tiny_stats.num_partitions


class TestCorruption:
    def test_unsupported_version_rejected(self, saved_with_index, tmp_path):
        path, __ = saved_with_index
        bad = _rewrite_manifest(
            path,
            tmp_path / "v99.ps3stats",
            lambda manifest: manifest.update(version=99),
        )
        # Damage in the world, not a caller bug: a StorageError, never a
        # ConfigError.
        with pytest.raises(CorruptBundleError, match="version") as caught:
            load_statistics_bundle(bad)
        assert isinstance(caught.value, StorageError)
        assert not isinstance(caught.value, ConfigError)

    def _assert_degrades(self, bad, tiny_stats):
        """A damaged index section loads with index=None + a warning."""
        with pytest.warns(DegradedLoadWarning) as caught:
            bundle = load_statistics_bundle(bad)
        assert bundle.index is None
        assert caught[0].message.reason == "index-corrupt"
        # The statistics themselves are intact — the index is a cache.
        assert bundle.statistics.num_partitions == tiny_stats.num_partitions

    def test_out_of_bounds_array_degrades(
        self, saved_with_index, tiny_stats, tmp_path
    ):
        path, __ = saved_with_index

        def clobber(manifest):
            column = next(iter(manifest["index"]["columns"]))
            manifest["index"]["columns"][column]["stats"][0] = 10**9

        bad = _rewrite_manifest(path, tmp_path / "oob.ps3stats", clobber)
        self._assert_degrades(bad, tiny_stats)

    def test_bad_dtype_degrades(self, saved_with_index, tiny_stats, tmp_path):
        path, __ = saved_with_index

        def clobber(manifest):
            column = next(iter(manifest["index"]["columns"]))
            manifest["index"]["columns"][column]["stats"][2] = "not-a-dtype"

        bad = _rewrite_manifest(path, tmp_path / "dtype.ps3stats", clobber)
        self._assert_degrades(bad, tiny_stats)

    def test_missing_field_degrades(
        self, saved_with_index, tiny_stats, tmp_path
    ):
        path, __ = saved_with_index

        def clobber(manifest):
            column = next(iter(manifest["index"]["columns"]))
            del manifest["index"]["columns"][column]["hist.edges"]

        bad = _rewrite_manifest(path, tmp_path / "missing.ps3stats", clobber)
        self._assert_degrades(bad, tiny_stats)

    def test_partition_count_mismatch_degrades(
        self, saved_with_index, tiny_stats, tmp_path
    ):
        path, __ = saved_with_index
        bad = _rewrite_manifest(
            path,
            tmp_path / "count.ps3stats",
            lambda manifest: manifest["index"].update(num_partitions=3),
        )
        self._assert_degrades(bad, tiny_stats)

    def test_flipped_manifest_byte_rejected(self, saved_with_index, tmp_path):
        """Manifest bit-rot that the footer CRC must catch.

        A flipped digit inside ``num_rows`` keeps the JSON perfectly
        parseable — without the footer checksum this would load and
        serve wrong numbers.
        """
        path, __ = saved_with_index
        raw = bytearray(path.read_bytes())
        header_size = int.from_bytes(raw[:8], "little")
        marker = raw[8 : 8 + header_size].find(b'"num_rows":')
        assert marker >= 0
        digit = 8 + marker + len(b'"num_rows": ')
        raw[digit] = ord("9") if raw[digit] != ord("9") else ord("8")
        bad = tmp_path / "rot.ps3stats"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CorruptBundleError, match="manifest checksum"):
            load_statistics_bundle(bad)

    def test_flipped_sketch_blob_byte_rejected(
        self, saved_with_index, tmp_path
    ):
        path, __ = saved_with_index
        raw = bytearray(path.read_bytes())
        header_size = int.from_bytes(raw[:8], "little")
        raw[8 + header_size + 3] ^= 0x40  # inside the sketch region
        bad = tmp_path / "blobrot.ps3stats"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CorruptBundleError, match="sketch section"):
            load_statistics_bundle(bad)

    def test_truncated_file_rejected(self, saved_with_index, tmp_path):
        path, __ = saved_with_index
        raw = path.read_bytes()
        bad = tmp_path / "torn.ps3stats"
        bad.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptBundleError):
            load_statistics_bundle(bad)

    def test_stale_index_rejected_by_feature_builder(self, tiny_stats):
        index = ColumnarSketchIndex.build(tiny_stats)
        index.num_partitions -= 1
        with pytest.raises(ConfigError, match="rebuild"):
            FeatureBuilder(tiny_stats, ("cat", "d"), index=index)


class TestColdStartSkipsExport:
    """Cold start via the persisted index must never export sketches."""

    def test_feature_builder_does_not_export(
        self, saved_with_index, monkeypatch
    ):
        path, __ = saved_with_index
        bundle = load_statistics_bundle(path)

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("sketch-object export ran on cold start")

        monkeypatch.setattr(ColumnarSketchIndex, "build", boom)
        builder = FeatureBuilder(
            bundle.statistics, ("cat", "d"), index=bundle.index
        )
        assert builder.sketch_index is bundle.index

    def test_model_cold_start_does_not_export(
        self, trained_ps3, tmp_path, monkeypatch
    ):
        stats_path = tmp_path / "stats.ps3stats"
        model_path = tmp_path / "model.json"
        save_statistics(
            trained_ps3.statistics,
            stats_path,
            index=trained_ps3.feature_builder.sketch_index,
        )
        save_model(trained_ps3.model, model_path)
        bundle = load_statistics_bundle(stats_path)
        assert bundle.index is not None

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("sketch-object export ran on cold start")

        monkeypatch.setattr(ColumnarSketchIndex, "build", boom)
        model = load_model(model_path, bundle.statistics, index=bundle.index)
        features = model.feature_builder.features_for_query(
            trained_ps3.training_data.queries[0]
        )
        assert features.matrix.shape[0] == bundle.statistics.num_partitions


class TestAppendAfterColdLoad:
    """Regression: appends must keep working after a cold load.

    The loaded arrays are frozen here, so any append path that wrote
    into them in place would raise ``ValueError``;
    ``ColumnarSketchIndex.extend`` must allocate fresh arrays
    (copy-on-append: older generations keep reading theirs) and land
    bit-identical to a from-scratch build."""

    def test_extend_after_cold_load_matches_scratch_build(
        self, saved_with_index, rng
    ):
        path, __ = saved_with_index
        bundle = load_statistics_bundle(path)
        stats, index = bundle.statistics, bundle.index
        for column in index.columns.values():
            for arr in column.array_state().values():
                arr.flags.writeable = False
        before = stats.num_partitions
        n = 40
        batch = {
            "x": rng.exponential(10.0, n) + 1.0,
            "y": rng.normal(0.0, 5.0, n),
            "d": rng.integers(0, 100, n),
            "cat": rng.choice(["a", "b", "c", "dd"], n),
            "tag": rng.choice([f"t{i:03d}" for i in range(300)], n),
        }
        replay_batch_into_statistics(stats, batch, index)
        assert stats.num_partitions == before + 1
        assert index.num_partitions == stats.num_partitions
        _assert_indexes_identical(ColumnarSketchIndex.build(stats), index)

    def test_double_extend_stays_consistent(self, saved_with_index, rng):
        """Two appends in a row: the second extends arrays the first
        already copied — still bit-identical to scratch."""
        path, __ = saved_with_index
        bundle = load_statistics_bundle(path)
        stats, index = bundle.statistics, bundle.index
        for size in (25, 31):
            batch = {
                "x": rng.exponential(10.0, size) + 1.0,
                "y": rng.normal(0.0, 5.0, size),
                "d": rng.integers(0, 100, size),
                "cat": rng.choice(["a", "b", "c", "dd"], size),
                "tag": rng.choice([f"t{i:03d}" for i in range(300)], size),
            }
            replay_batch_into_statistics(stats, batch, index)
        _assert_indexes_identical(ColumnarSketchIndex.build(stats), index)
