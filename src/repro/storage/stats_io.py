"""On-disk format for dataset statistics.

Layout of a ``.ps3stats`` file::

    [8-byte little-endian manifest length][manifest JSON][binary blob]

The manifest records the schema (so loading is self-describing), the
sketch configuration, the global heavy hitters, and for every partition
and column the (offset, length) of each sketch encoding inside the blob.
Sketch bytes are exactly the ``to_bytes`` encodings the sketches define,
so storage accounting matches what Table 4 measures.

Version 2 adds an optional cold-start artifact, backward- and
forward-compatible with the sketch blob: the
:class:`~repro.sketches.columnar.ColumnarSketchIndex` arrays, so
``load_statistics_bundle`` rehydrates the columnar index directly from
disk instead of re-exporting every sketch object (the dominant cold
start cost at high partition counts); each array is stored raw in the
blob with its dtype/shape in the manifest. Files written by older trees
may also carry ``plan_cache_keys`` (predicate ``repr`` strings of the
training workload); loads ignore the key and nothing writes it.

Version 3 makes the file trustworthy after a crash or silent bit-rot:

* the manifest carries per-section CRC32s over the blob (the sketch
  region and the index region separately) plus a footer
  (``b"PS3C"`` + CRC32 of the manifest bytes) appended after the blob,
  so *any* flipped byte is detected at load instead of surfacing as
  wrong query answers;
* writes go through :func:`repro.storage.atomic.atomic_write_bytes`
  (temp + fsync + ``os.replace``, last good generation kept as
  ``<name>.bak``), so a crash mid-save can never leave a torn file;
* ``wal_applied_seq`` records the write-ahead-log position folded into
  the bundle, making checkpoint + WAL replay idempotent
  (:mod:`repro.storage.wal`).

Corruption raises :class:`~repro.errors.CorruptBundleError` — except a
damaged *index* section, which degrades to ``index=None`` with a
:class:`~repro.errors.DegradedLoadWarning` because the sketch-blob
fallback can rebuild it. :func:`recover_statistics_bundle` adds the
``.bak``-generation fallback on top. Version-1 and version-2 files (no
checksums) still load; v1 files have no index section and callers fall
back to the sketch-object export.
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
from repro.errors import ConfigError, CorruptBundleError, DegradedLoadWarning
from repro.storage.atomic import (
    FileIO,
    atomic_write_bytes,
    backup_path,
    cleanup_stale_temps,
    read_with_retry,
)
from repro.sketches.akmv import AKMVSketch
from repro.sketches.builder import (
    ColumnStatistics,
    DatasetStatistics,
    PartitionStatistics,
    SketchConfig,
)
from repro.sketches.columnar import ColumnarSketchIndex
from repro.sketches.exact_dict import ExactDictionary
from repro.sketches.heavy_hitter import HeavyHitterSketch
from repro.sketches.histogram import EquiDepthHistogram
from repro.sketches.measures import MeasuresSketch

_MAGIC_VERSION = 3
_SUPPORTED_VERSIONS = (1, 2, 3)
_FOOTER_MAGIC = b"PS3C"
_FOOTER_SIZE = 8  # magic + u32 CRC32 of the manifest bytes

_SKETCH_TYPES = {
    "measures": MeasuresSketch,
    "histogram": EquiDepthHistogram,
    "akmv": AKMVSketch,
    "heavy_hitter": HeavyHitterSketch,
    "exact_dict": ExactDictionary,
}
_SKETCH_FIELDS = tuple(_SKETCH_TYPES)


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
        raise CorruptBundleError("corrupt statistics index: array out of bounds")
    try:
        dtype = np.dtype(dtype_str)
        return (
            np.frombuffer(blob[offset : offset + length], dtype=dtype)
            .reshape(shape)
            .copy()
        )
    except (TypeError, ValueError) as error:
        raise CorruptBundleError(f"corrupt statistics index: {error}") from None


def _encode_partition(
    pstats: PartitionStatistics, base: int, crc: int
) -> tuple[bytes, str, int]:
    """A sealed partition's sketch section and its manifest entry.

    Returns ``(section, entry, crc)``: the partition's sketch encodings
    back to back, its manifest entry as JSON text, whose ``column ->
    sketch field -> [offset, length]`` offsets place the section at
    ``base`` in the blob, and the sketch region's running CRC32 carried
    from ``crc`` (the CRC of the sections before it) through the section.
    All are memoized on the partition (``PartitionStatistics.encoded``,
    with the base and the incoming CRC): a sealed partition is encoded
    once, and since partitions only append, its base, its entry and the
    sections before it stay put from one checkpoint to the next. Saved
    at another base it is encoded afresh, after other bytes its CRC is
    carried afresh.
    """
    memo = pstats.encoded
    if memo is None or memo[2] != base:
        section = bytearray()
        columns: dict[str, dict[str, list[int]]] = {}
        for name, cstats in pstats.columns.items():
            entry: dict[str, list[int]] = {}
            for sketch_field in _SKETCH_FIELDS:
                sketch = getattr(cstats, sketch_field)
                if sketch is None:
                    continue
                encoded = sketch.to_bytes()
                entry[sketch_field] = [base + len(section), len(encoded)]
                section += encoded
            columns[name] = entry
        manifest_entry = {
            "index": pstats.partition_index,
            "num_rows": pstats.num_rows,
            "columns": columns,
        }
        memo = (bytes(section), json.dumps(manifest_entry), base, None, 0)
    if memo[3] != crc:
        memo = (*memo[:3], crc, zlib.crc32(memo[0], crc))
    pstats.encoded = memo
    return memo[0], memo[1], memo[4]


@dataclass
class StatisticsBundle:
    """Everything a cold start needs: statistics plus optional artifacts.

    ``index`` is ``None`` for version-1 files or files saved without an
    index — callers fall back to the sketch-object export
    (``ColumnarSketchIndex.build``). ``wal_applied_seq`` is the highest
    WAL sequence number folded into this bundle (0 = none); replay skips
    records at or below it, making checkpoints idempotent.
    """

    statistics: DatasetStatistics
    index: ColumnarSketchIndex | None = None
    wal_applied_seq: int = 0


def save_statistics(
    stats: DatasetStatistics,
    path: str | Path,
    *,
    index: ColumnarSketchIndex | None = None,
    wal_applied_seq: int = 0,
    io: FileIO | None = None,
) -> None:
    """Write dataset statistics to ``path`` atomically (format v3).

    Pass the live :class:`ColumnarSketchIndex` (e.g.
    ``feature_builder.sketch_index``) to persist its arrays alongside
    the sketches; ``load_statistics_bundle`` then skips the export on
    reload. The write is all-or-nothing (temp + fsync + rename) and the
    previous generation survives as ``<name>.bak``; ``wal_applied_seq``
    stamps the journal position a checkpoint folded in. ``io`` is the
    fault-injection seam (tests only).
    """
    if index is not None:
        if index.num_partitions != stats.num_partitions:
            raise ConfigError(
                "columnar index covers "
                f"{index.num_partitions} partitions but statistics have "
                f"{stats.num_partitions}; refresh the index before saving"
            )
        schema_columns = {column.name for column in stats.schema}
        if set(index.columns) != schema_columns:
            raise ConfigError(
                "columnar index columns do not match the statistics "
                "schema; it was built from a different dataset"
            )
    blob = bytearray()
    partition_entries = []
    crc = 0  # of the sketch region so far
    for pstats in stats.partitions:
        section, entry, crc = _encode_partition(pstats, len(blob), crc)
        partition_entries.append(entry)
        blob += section
    sketch_length = len(blob)
    head = {
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
    }
    tail: dict = {}  # the fields after "partitions"
    if index is not None:
        tail["index"] = {
            "num_partitions": index.num_partitions,
            "columns": {
                name: {
                    key: _encode_array(arr, blob)
                    for key, arr in column_state.items()
                }
                for name, column_state in index.array_state().items()
            },
        }
    # Per-section CRC32s: the sketch region and the (optional) index
    # region are verified independently at load, so index bit-rot can
    # degrade to a rebuild while sketch bit-rot is a hard error.
    sections = {"sketches": [0, sketch_length, crc]}
    if len(blob) > sketch_length:
        with memoryview(blob) as view:  # checksum in place: no copy of a section
            index_crc = zlib.crc32(view[sketch_length:])
        sections["index"] = [sketch_length, len(blob) - sketch_length, index_crc]
    tail["sections"] = sections
    tail["wal_applied_seq"] = int(wal_applied_seq)
    # json.dumps({**head, "partitions": [...], **tail}), byte for byte,
    # with each partition's memoized entry text spliced in.
    header = (
        f'{json.dumps(head)[:-1]}, "partitions": [{", ".join(partition_entries)}], '
        f"{json.dumps(tail)[1:]}"
    ).encode("utf-8")
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
    if version not in _SUPPORTED_VERSIONS:
        raise CorruptBundleError(
            f"unsupported statistics file version {version!r}"
        )
    if version >= 3:
        # Chain of trust: footer CRC covers the manifest; the manifest's
        # section CRCs cover the blob. Any flipped byte breaks a link.
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
        sections = manifest.get("sections", {})
        offset, length, crc = sections.get("sketches", [0, 0, 0])
        section = blob[offset : offset + length]
        if len(section) != length or zlib.crc32(section) != crc:
            raise CorruptBundleError(
                f"corrupt statistics file {path}: sketch section "
                "checksum mismatch"
            )
    return manifest, blob


def _index_section_ok(manifest: dict, blob: bytes) -> bool:
    """Whether the v3 index-section checksum verifies (v1/v2: trusted)."""
    if manifest.get("version", 1) < 3:
        return True
    entry = manifest.get("sections", {}).get("index")
    if entry is None:
        return "index" not in manifest
    offset, length, crc = entry
    section = blob[offset : offset + length]
    return len(section) == length and zlib.crc32(section) == crc


def _statistics_from_manifest(manifest: dict, blob: bytes) -> DatasetStatistics:
    try:
        return _statistics_from_manifest_unchecked(manifest, blob)
    except (KeyError, IndexError, TypeError, ValueError, struct.error) as error:
        # v1/v2 files have no checksums; structural decode failure is
        # their only corruption signal. v3 rarely reaches this (the CRC
        # chain fires first) but the wrap keeps the contract uniform.
        raise CorruptBundleError(
            f"corrupt statistics file: {error!r}"
        ) from error


def _statistics_from_manifest_unchecked(
    manifest: dict, blob: bytes
) -> DatasetStatistics:
    schema = _schema_from_json(manifest["schema"])
    config = SketchConfig(**manifest["config"])
    partitions = []
    for pmanifest in manifest["partitions"]:
        columns: dict[str, ColumnStatistics] = {}
        for name, entry in pmanifest["columns"].items():
            cstats = ColumnStatistics(column=schema[name])
            for sketch_field, (offset, length) in entry.items():
                sketch_type = _SKETCH_TYPES[sketch_field]
                payload = blob[offset : offset + length]
                setattr(cstats, sketch_field, sketch_type.from_bytes(payload))
            columns[name] = cstats
        partitions.append(
            PartitionStatistics(
                partition_index=pmanifest["index"],
                num_rows=pmanifest["num_rows"],
                columns=columns,
            )
        )
    stats = DatasetStatistics(schema=schema, config=config, partitions=partitions)
    stats.global_heavy_hitters = {
        column: tuple(_decode_hh_value(v) for v in values)
        for column, values in manifest["global_heavy_hitters"].items()
    }
    return stats


def _index_from_manifest(
    manifest: dict, blob: bytes
) -> ColumnarSketchIndex | None:
    """Decode the persisted index, degrading to ``None`` on damage.

    The index is a rebuildable cache of the sketch blob, so a corrupt
    section is not fatal: the caller gets ``index=None`` plus a
    :class:`DegradedLoadWarning` (``reason="index-corrupt"``) and falls
    back to the sketch-object export — slower cold start, same bits.
    Consistency with the statistics is validated against the *manifest*
    (partition count, schema names): both come from the same manifest.
    """
    index_manifest = manifest.get("index")
    if index_manifest is None:
        return None
    try:
        if not _index_section_ok(manifest, blob):
            raise CorruptBundleError("index section checksum mismatch")
        num_partitions = int(index_manifest["num_partitions"])
        state = {
            name: {
                key: _decode_array(entry, blob)
                for key, entry in column_state.items()
            }
            for name, column_state in index_manifest["columns"].items()
        }
        stats_partitions = len(manifest["partitions"])
        if num_partitions != stats_partitions:
            raise CorruptBundleError(
                "corrupt statistics index: covers "
                f"{num_partitions} partitions, statistics have "
                f"{stats_partitions}"
            )
        if set(state) != {c["name"] for c in manifest["schema"]}:
            raise CorruptBundleError(
                "corrupt statistics index: columns do not match the schema"
            )
        return ColumnarSketchIndex.from_array_state(state, num_partitions)
    except (
        CorruptBundleError,
        ConfigError,
        KeyError,
        TypeError,
        ValueError,
    ) as error:
        # ConfigError: the structural checks inside
        # ColumnIndex.from_array_state (missing arrays).
        warnings.warn(
            DegradedLoadWarning(
                f"statistics index section is corrupt ({error}); loading "
                "with index=None — cold start falls back to the "
                "sketch-object export",
                reason="index-corrupt",
            ),
            stacklevel=3,
        )
        return None


def load_statistics_bundle(
    path: str | Path, *, io: FileIO | None = None
) -> StatisticsBundle:
    """Read statistics plus the persisted cold-start artifacts.

    For version-1 files (or files saved without an index) the bundle's
    ``index`` is ``None`` and callers should fall back to
    ``ColumnarSketchIndex.build`` — the pre-PR-5 export path. A corrupt
    index *section* also degrades to ``index=None`` (with a
    :class:`DegradedLoadWarning`); corruption anywhere else raises
    :class:`CorruptBundleError`.
    """
    manifest, blob = _read_manifest(path, io=io)
    return StatisticsBundle(
        statistics=_statistics_from_manifest(manifest, blob),
        index=_index_from_manifest(manifest, blob),
        wal_applied_seq=int(manifest.get("wal_applied_seq", 0)),
    )


def recover_statistics_bundle(
    path: str | Path, *, io: FileIO | None = None
) -> StatisticsBundle:
    """Load a bundle, falling back to the ``.bak`` generation on damage.

    The degraded path emits a :class:`DegradedLoadWarning`
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
