"""Tests for statistics and model persistence."""

import json
import zlib

import numpy as np
import pytest

from repro.core.picker import PickerConfig, PS3Picker
from repro.errors import ConfigError, CorruptBundleError
from repro.ml.gbrt import GBRTRegressor
from repro.storage import (
    load_model,
    load_statistics_bundle,
    save_model,
    save_statistics,
)


class TestStatisticsRoundtrip:
    @pytest.fixture(scope="class")
    def roundtripped(self, tiny_stats, tmp_path_factory):
        path = tmp_path_factory.mktemp("stats") / "tiny.ps3stats"
        save_statistics(tiny_stats, path)
        return path, load_statistics_bundle(path).statistics

    def test_schema_preserved(self, roundtripped, tiny_stats):
        __, restored = roundtripped
        assert restored.schema.names == tiny_stats.schema.names
        for name in tiny_stats.schema.names:
            assert restored.schema[name].kind == tiny_stats.schema[name].kind

    def test_config_preserved(self, roundtripped, tiny_stats):
        __, restored = roundtripped
        assert restored.config == tiny_stats.config

    def test_global_heavy_hitters_preserved(self, roundtripped, tiny_stats):
        __, restored = roundtripped
        assert restored.global_heavy_hitters == tiny_stats.global_heavy_hitters

    def test_statistics_preserved(self, roundtripped, tiny_stats):
        __, restored = roundtripped
        for name, column in tiny_stats.index.columns.items():
            loaded = restored.index.columns[name].array_state()
            for key, arr in column.array_state().items():
                assert loaded[key].tobytes() == arr.tobytes(), (name, key)
        assert restored.sizes.tolist() == tiny_stats.sizes.tolist()
        assert restored.num_rows.tolist() == tiny_stats.num_rows.tolist()
        for name, sketch in tiny_stats.running_heavy_hitters.items():
            assert restored.running_heavy_hitters[name].items() == sketch.items()

    def test_file_stays_within_the_sketch_accounting(self, roundtripped, tiny_stats):
        """The bundle holds the index, not the sketch encodings: it is no
        larger than a small multiple of Table 4's bytes."""
        path, __ = roundtripped
        accounted = int(tiny_stats.sizes.sum())
        assert 0 < path.stat().st_size <= accounted * 3 + 100_000

    def test_version_check(self, tmp_path, tiny_stats):
        path = tmp_path / "bad.ps3stats"
        save_statistics(tiny_stats, path)
        raw = path.read_bytes()
        header_size = int.from_bytes(raw[:8], "little")
        manifest = json.loads(raw[8 : 8 + header_size])
        manifest["version"] = 99
        header = json.dumps(manifest).encode()
        footer = b"PS3C" + zlib.crc32(header).to_bytes(4, "little")
        path.write_bytes(
            len(header).to_bytes(8, "little")
            + header
            + raw[8 + header_size : -8]
            + footer
        )
        with pytest.raises(CorruptBundleError, match="version"):
            load_statistics_bundle(path).statistics


class TestGBRTState:
    def test_state_roundtrip_predicts_identically(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 10))
        y = X[:, 2] * 4 - X[:, 7]
        model = GBRTRegressor(n_trees=15, seed=1).fit(X, y)
        restored = GBRTRegressor.from_state(model.to_state())
        np.testing.assert_allclose(restored.predict(X), model.predict(X))
        np.testing.assert_allclose(
            restored.feature_importances(), model.feature_importances()
        )

    def test_state_is_json_safe(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 4))
        model = GBRTRegressor(n_trees=3).fit(X, X[:, 0])
        json.dumps(model.to_state())  # must not raise

    def test_compiled_table_is_derived_not_persisted(self):
        """The inference table is rebuilt on load; the state format is fixed."""
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 6))
        model = GBRTRegressor(n_trees=8, seed=4).fit(X, X[:, 1] - X[:, 3])
        state = model.to_state()
        assert sorted(state) == ["base", "bin_edges", "num_features", "params", "trees"]
        assert sorted(state["trees"][0]) == [
            "feature",
            "gain_by_feature",
            "left",
            "right",
            "threshold",
            "value",
        ]
        assert "compiled" not in repr(model)
        restored = GBRTRegressor.from_state(json.loads(json.dumps(state)))
        assert restored.to_state() == state
        np.testing.assert_array_equal(restored.predict(X), model.predict(X))
        # Importances and the tree count still read the tree list.
        assert restored.num_trees_fitted == len(state["trees"]) == 8
        np.testing.assert_array_equal(
            restored.feature_importances(), model.feature_importances()
        )


class TestModelRoundtrip:
    @pytest.fixture(scope="class")
    def saved(self, trained_ps3, tmp_path_factory):
        directory = tmp_path_factory.mktemp("model")
        stats_path = directory / "stats.ps3stats"
        model_path = directory / "model.json"
        save_statistics(trained_ps3.statistics, stats_path)
        save_model(trained_ps3.model, model_path)
        return stats_path, model_path

    def test_loaded_model_picks_identically(self, saved, trained_ps3):
        stats_path, model_path = saved
        statistics = load_statistics_bundle(stats_path).statistics
        model = load_model(model_path, statistics)
        original_picker = PS3Picker(
            trained_ps3.model, PickerConfig(seed=9)
        )
        restored_picker = PS3Picker(model, PickerConfig(seed=9))
        query = trained_ps3.training_data.queries[0]
        original = original_picker.select(query, 5)
        restored = restored_picker.select(query, 5)
        assert [(c.partition, c.weight) for c in original.selection] == [
            (c.partition, c.weight) for c in restored.selection
        ]

    def test_resaved_bytes_and_predictions_are_identical(
        self, saved, trained_ps3, tmp_path
    ):
        stats_path, model_path = saved
        model = load_model(model_path, load_statistics_bundle(stats_path).statistics)
        save_model(model, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == model_path.read_bytes()
        query = trained_ps3.training_data.queries[0]
        features = trained_ps3.model.feature_builder.features_for_query(query)
        normalized = trained_ps3.model.normalizer.transform(features.matrix)
        for loaded, original in zip(model.regressors, trained_ps3.model.regressors):
            np.testing.assert_array_equal(
                loaded.predict(normalized), original.predict(normalized)
            )

    def test_thresholds_and_exclusions_preserved(self, saved, trained_ps3):
        stats_path, model_path = saved
        model = load_model(model_path, load_statistics_bundle(stats_path).statistics)
        np.testing.assert_allclose(model.thresholds, trained_ps3.model.thresholds)
        assert model.excluded_families == trained_ps3.model.excluded_families

    def test_dimension_mismatch_rejected(self, saved, trained_ps3, tmp_path):
        __, model_path = saved
        payload = json.loads(model_path.read_text())
        payload["feature_dimension"] += 1
        # Drop the self-checksum: this test is about the semantic
        # dimension check, not corruption detection (legacy files
        # without a crc32 key still load).
        payload.pop("crc32", None)
        bad_path = tmp_path / "bad_model.json"
        bad_path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="retrain"):
            load_model(bad_path, trained_ps3.statistics)

    def test_tampered_model_fails_checksum(self, saved, trained_ps3, tmp_path):
        __, model_path = saved
        payload = json.loads(model_path.read_text())
        payload["feature_dimension"] += 1
        bad_path = tmp_path / "rotted_model.json"
        bad_path.write_text(json.dumps(payload))
        with pytest.raises(CorruptBundleError, match="checksum"):
            load_model(bad_path, trained_ps3.statistics)
