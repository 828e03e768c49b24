"""On-disk format for dataset statistics.

Layout of a ``.ps3stats`` file::

    [8-byte little-endian manifest length][manifest JSON][blob][footer]

Version 4 stores the statistics once, in the form queries read. The
manifest records the schema (so loading is self-describing), the sketch
configuration, the frozen global heavy hitters, and for each array its
``[offset, length, dtype, shape]`` inside the blob, where it is stored
raw:

* every column's :class:`~repro.sketches.columnar.ColumnarSketchIndex`
  arrays (``ColumnIndex.array_state``);
* each partition's row count and its encoded sketch bytes per Table 4
  family (``DatasetStatistics.sizes``);
* each column's running global heavy-hitter sketch (values, counts,
  deltas; its row total in the manifest), so a reopened system measures
  drift as the live one did.

The file is trustworthy after a crash or silent bit-rot:

* the manifest carries the blob's CRC32 and a footer (``b"PS3C"`` +
  CRC32 of the manifest bytes) follows the blob, so *any* flipped byte
  is detected at load (:class:`~repro.errors.CorruptBundleError`)
  instead of surfacing as wrong query answers;
* writes go through :func:`repro.storage.atomic.atomic_write_bytes`
  (temp + fsync + ``os.replace``, last good generation kept as
  ``<name>.bak``), so a crash mid-save can never leave a torn file;
  :func:`recover_statistics_bundle` falls back to the ``.bak``
  generation;
* ``wal_applied_seq`` records the write-ahead-log position folded into
  the bundle, making checkpoint + WAL replay idempotent
  (:mod:`repro.storage.wal`).

Version 3 files, which stored every partition's sketch encodings beside
the index, upgrade one way on load: the index section is read as it is,
row counts and global heavy hitters come from the manifest, the sizes
are the lengths of the sketch encodings, and the running global sketches
are merged from the persisted heavy hitters (which kept only each
partition's reported values, without their lossy-counting deltas). The
next checkpoint writes version 4. Versions 1 and 2 are refused with
:class:`~repro.errors.UnsupportedBundleError`.
"""

from __future__ import annotations

import json
import struct
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.engine.schema import Column, ColumnKind, Schema
from repro.errors import (
    ConfigError,
    CorruptBundleError,
    DegradedLoadWarning,
    UnsupportedBundleError,
)
from repro.storage.atomic import (
    FileIO,
    atomic_write_bytes,
    backup_path,
    cleanup_stale_temps,
    read_with_retry,
)
from repro.sketches.builder import FAMILIES, DatasetStatistics, SketchConfig
from repro.sketches.columnar import ColumnarSketchIndex
from repro.sketches.heavy_hitter import HeavyHitterSketch

_MAGIC_VERSION = 4
_FOOTER_MAGIC = b"PS3C"
_FOOTER_SIZE = 8  # magic + u32 CRC32 of the manifest bytes
#: A running heavy-hitter sketch's arrays (``HeavyHitterSketch.arrays``).
_AUTOMATON = ("values", "counts", "deltas")
#: Where each v3 sketch encoding's bytes count in Table 4.
_V3_FAMILY = {
    "measures": "measure",
    "histogram": "histogram",
    "akmv": "akmv",
    "heavy_hitter": "hh",
    "exact_dict": "hh",
}


def _encode_hh_value(value: object) -> list:
    if isinstance(value, str):
        return ["s", value]
    return ["f", float(value)]


def _decode_hh_value(tagged: list) -> object:
    tag, value = tagged
    return value if tag == "s" else float(value)


def _schema_to_json(schema: Schema) -> list[dict]:
    return [
        {
            "name": column.name,
            "kind": column.kind.value,
            "positive": column.positive,
            "low_cardinality": column.low_cardinality,
        }
        for column in schema
    ]


def _schema_from_json(columns: list[dict]) -> Schema:
    return Schema(
        tuple(
            Column(
                name=c["name"],
                kind=ColumnKind(c["kind"]),
                positive=c["positive"],
                low_cardinality=c["low_cardinality"],
            )
            for c in columns
        )
    )


def _encode_array(arr: np.ndarray, blob: bytearray) -> list:
    """Append ``arr`` to the blob; return its manifest entry."""
    arr = np.ascontiguousarray(arr)
    encoded = arr.tobytes()
    entry = [len(blob), len(encoded), arr.dtype.str, list(arr.shape)]
    blob.extend(encoded)
    return entry


def _decode_array(entry: list, blob: bytes) -> np.ndarray:
    """A fresh array (detached from ``blob``) from its manifest entry."""
    offset, length, dtype_str, shape = entry
    if offset < 0 or length < 0 or offset + length > len(blob):
        raise CorruptBundleError("corrupt statistics bundle: array out of bounds")
    try:
        dtype = np.dtype(dtype_str)
        return (
            np.frombuffer(blob[offset : offset + length], dtype=dtype)
            .reshape(shape)
            .copy()
        )
    except (TypeError, ValueError) as error:
        raise CorruptBundleError(f"corrupt statistics bundle: {error}") from None


@dataclass
class StatisticsBundle:
    """Everything a cold start needs: the statistics and the journal
    position. ``wal_applied_seq`` is the highest WAL sequence number
    folded into this bundle (0 = none); replay skips records at or below
    it, making checkpoints idempotent."""

    statistics: DatasetStatistics
    wal_applied_seq: int = 0


def save_statistics(
    stats: DatasetStatistics,
    path: str | Path,
    *,
    wal_applied_seq: int = 0,
    io: FileIO | None = None,
) -> None:
    """Write dataset statistics to ``path`` atomically (format v4).

    The write is all-or-nothing (temp + fsync + rename) and the previous
    generation survives as ``<name>.bak``; ``wal_applied_seq`` stamps the
    journal position a checkpoint folded in. ``io`` is the
    fault-injection seam (tests only).
    """
    blob = bytearray()
    manifest = {
        "version": _MAGIC_VERSION,
        "schema": _schema_to_json(stats.schema),
        "config": {
            "histogram_buckets": stats.config.histogram_buckets,
            "akmv_k": stats.config.akmv_k,
            "hh_support": stats.config.hh_support,
            "hh_epsilon": stats.config.hh_epsilon,
            "exact_dict_limit": stats.config.exact_dict_limit,
            "bitmap_k": stats.config.bitmap_k,
        },
        "global_heavy_hitters": {
            column: [_encode_hh_value(v) for v in values]
            for column, values in stats.global_heavy_hitters.items()
        },
        "num_partitions": stats.num_partitions,
        "num_rows": _encode_array(stats.num_rows, blob),
        "sizes": _encode_array(stats.sizes, blob),
        "index": {
            name: {key: _encode_array(arr, blob) for key, arr in state.items()}
            for name, state in stats.index.array_state().items()
        },
        "running_heavy_hitters": {
            name: {
                "total": sketch.total,
                **{
                    key: _encode_array(arr, blob)
                    for key, arr in zip(_AUTOMATON, sketch.arrays())
                },
            }
            for name, sketch in stats.running_heavy_hitters.items()
        },
        "blob_crc32": zlib.crc32(blob),
        "wal_applied_seq": int(wal_applied_seq),
    }
    header = json.dumps(manifest).encode("utf-8")
    footer = _FOOTER_MAGIC + struct.pack("<I", zlib.crc32(header))
    data = b"".join((struct.pack("<Q", len(header)), header, blob, footer))
    atomic_write_bytes(path, data, io=io)


def _read_manifest(
    path: str | Path, *, io: FileIO | None = None
) -> tuple[dict, bytes]:
    """Parse and verify the manifest; return ``(manifest, blob)``."""
    raw = read_with_retry(path, io=io)
    try:
        (header_size,) = struct.unpack("<Q", raw[:8])
        header = raw[8 : 8 + header_size]
        if len(header) != header_size:
            raise ValueError("truncated manifest")
        manifest = json.loads(header.decode("utf-8"))
        if not isinstance(manifest, dict):
            raise ValueError("manifest is not an object")
    except (struct.error, ValueError, UnicodeDecodeError) as error:
        raise CorruptBundleError(
            f"corrupt statistics file {path}: unreadable manifest ({error})"
        ) from None
    blob = raw[8 + header_size :]
    version = manifest.get("version")
    if version in (1, 2):
        raise UnsupportedBundleError(
            f"statistics file {path} is format v{version}, which this "
            "version no longer reads; rebuild the statistics"
        )
    if version not in (3, _MAGIC_VERSION):
        raise CorruptBundleError(f"unsupported statistics file version {version!r}")
    # Chain of trust: the footer CRC covers the manifest; the manifest's
    # CRCs cover the blob. Any flipped byte breaks a link.
    if len(blob) < _FOOTER_SIZE or blob[-_FOOTER_SIZE:-4] != _FOOTER_MAGIC:
        raise CorruptBundleError(
            f"corrupt statistics file {path}: missing integrity footer"
        )
    (manifest_crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(header) != manifest_crc:
        raise CorruptBundleError(
            f"corrupt statistics file {path}: manifest checksum mismatch"
        )
    blob = blob[:-_FOOTER_SIZE]
    if version == 3:
        sections = manifest.get("sections", {})
        checked = [sections.get("sketches", [0, 0, 0]), sections.get("index")]
    else:
        checked = [[0, len(blob), manifest.get("blob_crc32")]]
    for section in checked:
        if section is None:
            raise CorruptBundleError(
                f"statistics file {path} has no index section to upgrade"
            )
        offset, length, crc = section
        with memoryview(blob) as view:  # checksum in place: no copy
            part = view[offset : offset + length]
            if len(part) != length or zlib.crc32(part) != crc:
                raise CorruptBundleError(
                    f"corrupt statistics file {path}: section checksum mismatch"
                )
    return manifest, blob


def _index_from_manifest(
    columns: dict, num_partitions: int, blob: bytes, schema: Schema
) -> ColumnarSketchIndex:
    state = {
        name: {key: _decode_array(entry, blob) for key, entry in fields.items()}
        for name, fields in columns.items()
    }
    if list(state) != list(schema.names):
        raise CorruptBundleError(
            "corrupt statistics index: columns do not match the schema"
        )
    return ColumnarSketchIndex.from_array_state(state, num_partitions)


def _statistics_from_manifest(manifest: dict, blob: bytes) -> DatasetStatistics:
    schema = _schema_from_json(manifest["schema"])
    config = SketchConfig(**manifest["config"])
    if manifest["version"] == 3:
        index = manifest["index"]["columns"]
        n = manifest["index"]["num_partitions"]
        num_rows, sizes, running = _v3_arrays(manifest, blob, schema, config)
    else:
        index, n = manifest["index"], manifest["num_partitions"]
        num_rows = _decode_array(manifest["num_rows"], blob)
        sizes = _decode_array(manifest["sizes"], blob)
        running = {
            name: HeavyHitterSketch(
                config.hh_support,
                config.hh_epsilon,
                int(entry["total"]),
                *(_decode_array(entry[key], blob) for key in _AUTOMATON),
            )
            for name, entry in manifest["running_heavy_hitters"].items()
        }
    stats = DatasetStatistics(
        schema=schema,
        config=config,
        index=_index_from_manifest(index, int(n), blob, schema),
        num_rows=num_rows,
        sizes=sizes,
        global_heavy_hitters={
            column: tuple(_decode_hh_value(v) for v in values)
            for column, values in manifest["global_heavy_hitters"].items()
        },
        running_heavy_hitters=running,
    )
    if (
        len(stats.num_rows) != stats.num_partitions
        or stats.sizes.shape != (stats.num_partitions, len(FAMILIES))
        or set(stats.running_heavy_hitters) != set(schema.names)
    ):
        raise CorruptBundleError(
            "corrupt statistics bundle: arrays do not cover the partitions"
        )
    return stats


def _v3_arrays(
    manifest: dict, blob: bytes, schema: Schema, config: SketchConfig
) -> tuple[np.ndarray, np.ndarray, dict[str, HeavyHitterSketch]]:
    """Row counts, sizes and running sketches from a v3 manifest."""
    partitions = manifest["partitions"]
    num_rows = np.array([p["num_rows"] for p in partitions], dtype=np.int64)
    sizes = np.zeros((len(partitions), len(FAMILIES)), dtype=np.int64)
    hitters: dict[str, list[HeavyHitterSketch]] = {n: [] for n in schema.names}
    for i, pmanifest in enumerate(partitions):
        for name, entry in pmanifest["columns"].items():
            for sketch_field, (offset, length) in entry.items():
                sizes[i, FAMILIES.index(_V3_FAMILY[sketch_field])] += length
            if "heavy_hitter" in entry:
                offset, length = entry["heavy_hitter"]
                hitters[name].append(
                    HeavyHitterSketch.from_bytes(blob[offset : offset + length])
                )
    running = {}
    for name, sketches in hitters.items():
        running[name] = config.heavy_hitter_sketch()
        running[name].merge(*sketches)
    return num_rows, sizes, running


def load_statistics_bundle(
    path: str | Path, *, io: FileIO | None = None
) -> StatisticsBundle:
    """Read statistics plus the journal position, every CRC checked.

    Damage raises :class:`CorruptBundleError`; a v1 / v2 file raises
    :class:`UnsupportedBundleError`.
    """
    manifest, blob = _read_manifest(path, io=io)
    try:
        statistics = _statistics_from_manifest(manifest, blob)
    except (
        ConfigError,
        IndexError,
        KeyError,
        TypeError,
        ValueError,
        struct.error,
    ) as error:
        # The CRC chain fires first on bit-rot; a structurally wrong file
        # that passes it is still damage, not caller misuse.
        raise CorruptBundleError(f"corrupt statistics file: {error!r}") from error
    return StatisticsBundle(
        statistics=statistics,
        wal_applied_seq=int(manifest.get("wal_applied_seq", 0)),
    )


def recover_statistics_bundle(
    path: str | Path, *, io: FileIO | None = None
) -> StatisticsBundle:
    """Load a bundle, falling back to the ``.bak`` generation on damage.

    The degraded path emits a :class:`~repro.errors.DegradedLoadWarning`
    (``reason="bak-fallback"``) so services can alert: answers are
    served from the previous checkpoint generation. If both generations
    are unreadable, the *primary* file's error propagates. Stale
    ``.tmp`` siblings from crashed writers are removed first.
    """
    path = Path(path)
    cleanup_stale_temps(path, io=io)
    try:
        return load_statistics_bundle(path, io=io)
    except (CorruptBundleError, FileNotFoundError) as error:
        backup = backup_path(path)
        file_io = io or FileIO()
        if not file_io.exists(backup):
            raise
        try:
            bundle = load_statistics_bundle(backup, io=io)
        except (CorruptBundleError, FileNotFoundError):
            raise error from None
        warnings.warn(
            DegradedLoadWarning(
                f"statistics bundle {path} is unreadable ({error}); "
                "serving the previous generation from its .bak sibling",
                reason="bak-fallback",
            ),
            stacklevel=2,
        )
        return bundle
