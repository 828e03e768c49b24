"""On-disk format for trained picker models.

A model file is plain JSON: the normalizer scale vector, the thresholds,
the excluded clustering feature families, the group-by universe the
feature builder was constructed with, the partition count it was
trained on (files written before it was recorded lack it), and the full
regressor funnel via :meth:`repro.ml.gbrt.GBRTRegressor.to_state`.
Loading re-binds the model to a
:class:`~repro.sketches.builder.DatasetStatistics` (statistics are
stored separately — they change when partitions are appended; the model
only changes on retraining).

Writes go through the atomic writer (temp + fsync + rename, ``.bak``
generation kept) and the payload carries a ``crc32`` self-checksum, so a
crash mid-save cannot tear the file and bit-rot raises
:class:`~repro.errors.CorruptBundleError` instead of producing a model
that mis-predicts. Files written before the checksum existed (no
``crc32`` key) still load.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from repro.core.training import PickerModel
from repro.errors import ConfigError, CorruptBundleError
from repro.ml.gbrt import GBRTRegressor
from repro.sketches.builder import DatasetStatistics
from repro.stats.features import FeatureBuilder
from repro.stats.normalization import Normalizer
from repro.storage.atomic import FileIO, atomic_write_bytes, read_with_retry

_MAGIC_VERSION = 1


def _payload_crc(payload: dict) -> int:
    """Checksum over the canonical dump of everything but ``crc32``."""
    body = {k: v for k, v in payload.items() if k != "crc32"}
    return zlib.crc32(json.dumps(body, sort_keys=True).encode("utf-8"))


def save_model(
    model: PickerModel, path: str | Path, *, io: FileIO | None = None
) -> None:
    """Write a trained picker model to ``path`` (JSON, atomic)."""
    if model.normalizer.scale is None:
        raise ConfigError("cannot save an unfitted model (normalizer has no scale)")
    payload = {
        "version": _MAGIC_VERSION,
        "groupby_columns": list(model.feature_builder.schema.groupby_columns),
        "feature_dimension": model.feature_builder.schema.dimension,
        "normalizer_scale": model.normalizer.scale.tolist(),
        "thresholds": model.thresholds.tolist(),
        "excluded_families": sorted(model.excluded_families),
        "regressors": [regressor.to_state() for regressor in model.regressors],
    }
    if model.trained_partitions is not None:
        payload["trained_partitions"] = model.trained_partitions
    payload["crc32"] = _payload_crc(payload)
    atomic_write_bytes(path, json.dumps(payload).encode("utf-8"), io=io)


def load_model(
    path: str | Path,
    statistics: DatasetStatistics,
    *,
    io: FileIO | None = None,
) -> PickerModel:
    """Read a model and re-bind it to (freshly loaded) statistics.

    The statistics must describe the same dataset/workload the model was
    trained for; the feature dimension is cross-checked to catch obvious
    mismatches (schema drift requires retraining, paper section 7).
    """
    try:
        payload = json.loads(read_with_retry(path, io=io).decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("model payload is not an object")
    except (ValueError, UnicodeDecodeError) as error:
        raise CorruptBundleError(
            f"corrupt model file {path}: {error}"
        ) from None
    if "crc32" in payload and payload["crc32"] != _payload_crc(payload):
        raise CorruptBundleError(
            f"corrupt model file {path}: payload checksum mismatch"
        )
    if payload.get("version") != _MAGIC_VERSION:
        raise ConfigError(f"unsupported model file version {payload.get('version')!r}")
    feature_builder = FeatureBuilder(statistics, tuple(payload["groupby_columns"]))
    if feature_builder.schema.dimension != payload["feature_dimension"]:
        raise ConfigError(
            "statistics do not match the model: feature dimension "
            f"{feature_builder.schema.dimension} != "
            f"{payload['feature_dimension']} (retrain after schema or "
            "bitmap changes)"
        )
    normalizer = Normalizer(feature_builder.schema)
    normalizer.scale = np.asarray(payload["normalizer_scale"], dtype=np.float64)
    return PickerModel(
        feature_builder=feature_builder,
        normalizer=normalizer,
        regressors=[
            GBRTRegressor.from_state(state) for state in payload["regressors"]
        ],
        thresholds=np.asarray(payload["thresholds"], dtype=np.float64),
        excluded_families=frozenset(payload["excluded_families"]),
        trained_partitions=payload.get("trained_partitions"),
    )
