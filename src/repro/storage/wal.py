"""Write-ahead journal for live appends, and the durable store around it.

``PS3.append`` mutates in-memory statistics; before this module existed
a crash lost every appended batch. The WAL closes that hole with the
classic log-structured recipe (LogBase/BVLSM, PAPERS.md), minimized for
this codebase:

* :class:`WriteAheadLog` — an append-only journal. Each
  ``append_rows`` batch is serialized (columns through the same
  ``_encode_array`` framing the bundle format uses) and fsynced to the
  journal *before* the in-memory mutation, one CRC32-guarded record per
  batch with a monotonically increasing sequence number.
* :class:`StatisticsStore` — a checkpoint bundle + journal pair in one
  directory. ``load`` recovers the last checkpoint (``.bak`` fallback
  included) plus the journal records not yet folded into it;
  ``checkpoint`` atomically writes a fresh v4 bundle stamped with the
  journal position (``wal_applied_seq``) and then truncates the
  journal. A crash between those two steps is harmless: replay skips
  records at or below the stamp, so batches are never applied twice.
* :func:`replay_batch_into_statistics` — applies one journal batch via
  the exact machinery live appends use (``validate_batch``, then
  ``seal_appended_columns``), so append → crash → replay is
  bit-identical to append without a crash — the property the
  kill-point suite asserts, differentially.

Journal file layout::

    [b"PSW1"][u64 base_seq][u32 crc32(base_seq)]       file header
    [b"PSWR"][u64 seq][u32 len][u32 crc32(payload)][payload]   per record

A torn final record — the expected residue of a crash mid-append — is
dropped with a :class:`DegradedLoadWarning` (``reason="wal-torn-tail"``);
damage *before* intact records raises :class:`WalReplayError`, because
replaying past it could fabricate state. Truncation rewrites the header
with ``base_seq`` advanced to the last assigned sequence number (through
the atomic writer), so sequence numbers never regress across
checkpoints.
"""

from __future__ import annotations

import json
import struct
import time
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.obs import get_registry, trace_span

from repro.engine.layout import validate_batch
from repro.errors import (
    ConfigError,
    DegradedLoadWarning,
    SchemaError,
    StorageError,
    WalReplayError,
)
from repro.sketches.builder import DatasetStatistics, seal_appended_columns
from repro.sketches.columnar import ColumnarSketchIndex
from repro.storage.atomic import (
    FileIO,
    atomic_write_bytes,
    read_with_retry,
)
from repro.storage.stats_io import (
    StatisticsBundle,
    _decode_array,
    _encode_array,
    recover_statistics_bundle,
    save_statistics,
)

#: File names of a :class:`StatisticsStore` directory: the checkpoint
#: bundle and the journal.
STATS_NAME = "stats.ps3stats"
WAL_NAME = "stats.ps3wal"

_FILE_MAGIC = b"PSW1"
_FILE_HEADER = struct.Struct("<4sQI")
_RECORD_MAGIC = b"PSWR"
_RECORD_HEADER = struct.Struct("<4sQII")


@dataclass(frozen=True)
class WalBatch:
    """One journaled append: the columns plus caller metadata."""

    seq: int
    columns: dict[str, np.ndarray]
    meta: dict


def _encode_batch(columns: dict[str, np.ndarray], meta: dict | None) -> bytes:
    blob = bytearray()
    entries = {}
    for name, values in columns.items():
        arr = np.asarray(values)
        if arr.dtype == object:
            raise StorageError(
                f"cannot journal column {name!r}: object dtype has no "
                "stable byte encoding (cast to str or numeric first)"
            )
        entries[name] = _encode_array(arr, blob)
    header = json.dumps({"columns": entries, "meta": meta or {}}).encode()
    return struct.pack("<Q", len(header)) + header + bytes(blob)


def _decode_batch(seq: int, payload: bytes) -> WalBatch:
    try:
        (header_size,) = struct.unpack("<Q", payload[:8])
        manifest = json.loads(payload[8 : 8 + header_size].decode("utf-8"))
        blob = payload[8 + header_size :]
        columns = {
            name: _decode_array(entry, blob)
            for name, entry in manifest["columns"].items()
        }
    except (struct.error, ValueError, KeyError, TypeError) as error:
        # The record CRC already passed, so this is a writer bug or a
        # CRC collision — either way the journal cannot be trusted.
        raise WalReplayError(
            f"WAL record {seq} has a valid checksum but an unreadable "
            f"payload ({error!r})"
        ) from None
    return WalBatch(seq=seq, columns=columns, meta=manifest.get("meta", {}))


class WriteAheadLog:
    """Append-only, checksummed journal of ``append_rows`` batches."""

    def __init__(self, path: str | Path, *, io: FileIO | None = None) -> None:
        self.path = Path(path)
        self.io = io or FileIO()
        self._last_seq: int | None = None

    def exists(self) -> bool:
        return self.io.exists(self.path)

    # -- writing ------------------------------------------------------------

    def _ensure_file(self) -> None:
        if self.exists():
            return
        self._write_header(0)
        self._last_seq = 0

    def _write_header(self, base_seq: int) -> None:
        header = _FILE_HEADER.pack(
            _FILE_MAGIC, base_seq, zlib.crc32(struct.pack("<Q", base_seq))
        )
        atomic_write_bytes(self.path, header, io=self.io, keep_backup=False)

    def append(
        self, columns: dict[str, np.ndarray], meta: dict | None = None
    ) -> int:
        """Journal one batch durably; returns its sequence number.

        The record is fsynced before this returns — callers mutate
        in-memory state only afterwards, which is the whole point.
        """
        self._ensure_file()
        seq = self.last_seq + 1
        payload = _encode_batch(columns, meta)
        record = (
            _RECORD_HEADER.pack(
                _RECORD_MAGIC, seq, len(payload), zlib.crc32(payload)
            )
            + payload
        )
        registry = get_registry()
        append_start = time.perf_counter()
        handle = self.io.open(self.path, "ab")
        try:
            self.io.write(handle, record)
            fsync_start = time.perf_counter()
            self.io.fsync(handle)
            fsync_end = time.perf_counter()
        finally:
            self.io.close(handle)
        registry.histogram("storage.wal.append_seconds").observe(
            time.perf_counter() - append_start
        )
        registry.histogram("storage.wal.fsync_seconds").observe(
            fsync_end - fsync_start
        )
        registry.counter("storage.wal.appends").inc()
        registry.counter("storage.wal.bytes").inc(len(record))
        self._last_seq = seq
        return seq

    def truncate(self) -> None:
        """Drop all records, preserving the sequence counter.

        Called after a checkpoint folded the journal into the bundle.
        The rewrite goes through the atomic writer, so a crash leaves
        either the full journal or the clean header — never garbage.
        """
        last = self.last_seq
        self._write_header(last)
        self._last_seq = last

    # -- reading ------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        if self._last_seq is None:
            base, batches = self._scan()
            self._last_seq = batches[-1].seq if batches else base
        return self._last_seq

    def replay(self, after_seq: int = 0) -> list[WalBatch]:
        """Intact journal batches with ``seq > after_seq``, in order."""
        base, batches = self._scan()
        self._last_seq = batches[-1].seq if batches else base
        replayed = [b for b in batches if b.seq > after_seq]
        get_registry().counter("storage.wal.replayed_batches").inc(
            len(replayed)
        )
        return replayed

    def _scan(self) -> tuple[int, list[WalBatch]]:
        if not self.exists():
            return 0, []
        raw = read_with_retry(self.path, io=self.io)
        if len(raw) < _FILE_HEADER.size:
            raise WalReplayError(
                f"WAL {self.path} is shorter than its header"
            )
        magic, base_seq, base_crc = _FILE_HEADER.unpack(
            raw[: _FILE_HEADER.size]
        )
        if magic != _FILE_MAGIC or base_crc != zlib.crc32(
            struct.pack("<Q", base_seq)
        ):
            raise WalReplayError(f"WAL {self.path} has a corrupt header")
        batches: list[WalBatch] = []
        previous = base_seq
        offset = _FILE_HEADER.size
        while offset < len(raw):
            header = raw[offset : offset + _RECORD_HEADER.size]
            if len(header) < _RECORD_HEADER.size:
                self._warn_torn(len(raw) - offset)
                break
            magic, seq, length, crc = _RECORD_HEADER.unpack(header)
            if magic != _RECORD_MAGIC:
                raise WalReplayError(
                    f"WAL {self.path}: bad record magic at offset {offset}"
                )
            end = offset + _RECORD_HEADER.size + length
            if end > len(raw):
                self._warn_torn(len(raw) - offset)
                break
            payload = raw[offset + _RECORD_HEADER.size : end]
            if zlib.crc32(payload) != crc:
                raise WalReplayError(
                    f"WAL {self.path}: record {seq} fails its checksum "
                    "(bit-rot before intact records cannot be skipped)"
                )
            if seq != previous + 1:
                raise WalReplayError(
                    f"WAL {self.path}: sequence jumped {previous} -> {seq}"
                )
            batches.append(_decode_batch(seq, payload))
            previous = seq
            offset = end
        return base_seq, batches

    def _warn_torn(self, trailing: int) -> None:
        warnings.warn(
            DegradedLoadWarning(
                f"WAL {self.path} ends in a torn record "
                f"({trailing} trailing bytes) — dropping it and "
                "recovering to the last durable batch",
                reason="wal-torn-tail",
            ),
            stacklevel=4,
        )


def replay_batch_into_statistics(
    stats: DatasetStatistics, columns: dict[str, np.ndarray]
) -> None:
    """Apply one journaled batch to in-memory statistics.

    Runs what a live ``PS3.append`` runs — ``validate_batch``, then
    ``seal_appended_columns`` — so recovered statistics are bit-identical
    to the never-crashed timeline, and a batch a live append would
    reject raises the same typed error here.
    """
    seal_appended_columns(stats, validate_batch(stats.schema, columns))


class StatisticsStore:
    """A crash-safe statistics directory: checkpoint bundle + journal.

    :data:`STATS_NAME` holds the last atomic checkpoint (with ``.bak``
    as the previous generation); :data:`WAL_NAME` journals the appends
    since. At every kill point the pair recovers to a consistent state:
    the checkpoint plus every durably journaled batch.
    """

    def __init__(self, directory: str | Path, *, io: FileIO | None = None) -> None:
        self.directory = Path(directory)
        self.stats_path = self.directory / STATS_NAME
        self.wal = WriteAheadLog(self.directory / WAL_NAME, io=io)
        self.io = io

    def log_append(
        self, columns: dict[str, np.ndarray], meta: dict | None = None
    ) -> int:
        """Journal a batch before the caller mutates in-memory state."""
        return self.wal.append(columns, meta)

    def checkpoint(self, stats: DatasetStatistics) -> int:
        """Fold the journal into a fresh bundle; returns the stamped seq.

        Ordering is the crash-safety argument: the bundle (carrying
        ``wal_applied_seq``) lands atomically *first*, then the journal
        is truncated. A crash in between leaves both the folded bundle
        and the journal — replay skips the already-applied records.
        """
        with trace_span(
            "storage.checkpoint", partitions=stats.num_partitions
        ):
            applied = self.wal.last_seq
            save_statistics(
                stats, self.stats_path, wal_applied_seq=applied, io=self.io
            )
            self.wal.truncate()
            return applied

    def load(self) -> tuple[StatisticsBundle, list[WalBatch]]:
        """The last good checkpoint plus the journal batches after it.

        The batches are validated against the checkpoint's schema, so
        what comes back can be applied as it is. A journal written
        before validation preceded the journal write may hold a batch
        its live system rejected and never applied: replay skips it
        with a :class:`DegradedLoadWarning`
        (``reason="wal-rejected-batch"``).
        """
        bundle = recover_statistics_bundle(self.stats_path, io=self.io)
        batches = []
        for batch in self.wal.replay(after_seq=bundle.wal_applied_seq):
            try:
                columns = validate_batch(bundle.statistics.schema, batch.columns)
            except (ConfigError, SchemaError) as error:
                warnings.warn(
                    DegradedLoadWarning(
                        f"WAL {self.wal.path}: skipping record {batch.seq}, "
                        f"which no live system can have applied ({error})",
                        reason="wal-rejected-batch",
                    ),
                    stacklevel=2,
                )
                continue
            batches.append(WalBatch(batch.seq, columns, batch.meta))
        return bundle, batches

    def load_statistics(
        self,
    ) -> tuple[DatasetStatistics, ColumnarSketchIndex]:
        """Recover fully-replayed statistics and their index in one call."""
        bundle, batches = self.load()
        stats = bundle.statistics
        for batch in batches:
            replay_batch_into_statistics(stats, batch.columns)
        return stats, stats.index
