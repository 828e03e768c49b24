"""Persistence for statistics and trained picker models.

A production deployment builds sketches at partition-seal time and trains
the picker offline (paper section 2.3); both artifacts must survive
process restarts and live next to — not inside — the data. This package
provides pickle-free, crash-safe on-disk formats:

* :mod:`~repro.storage.stats_io` — a single binary statistics file per
  (dataset, layout): JSON manifest + the columnar index, row counts,
  Table 4 sizes and running global heavy-hitter sketches as raw arrays
  (format v4), with a blob CRC32 and a manifest footer checksum so
  bit-rot is detected at load instead of surfacing as wrong answers;
  v3 files upgrade on load, v1 / v2 files are refused;
* :mod:`~repro.storage.model_io` — a JSON model file capturing the
  normalizer, the regressor funnel (tree arrays + bin edges), thresholds,
  and excluded clustering families, with a payload self-checksum;
* :mod:`~repro.storage.atomic` — the atomic write-replace primitive
  (temp + fsync + rename, last good generation kept as ``.bak``) every
  durable artifact goes through;
* :mod:`~repro.storage.wal` — the append write-ahead journal and the
  :class:`~repro.storage.wal.StatisticsStore` checkpoint/recovery pair
  that make live appends durable;
* :mod:`~repro.storage.faults` — deterministic fault injection (kill
  points, torn writes, ENOSPC, EIO, bit flips) used by the kill-point
  sweep suite to *prove* the crash-safety claims above.
"""

from repro.storage.atomic import (
    FileIO,
    atomic_write_bytes,
    backup_path,
    read_with_retry,
)
from repro.storage.model_io import load_model, save_model
from repro.storage.stats_io import (
    StatisticsBundle,
    load_statistics_bundle,
    recover_statistics_bundle,
    save_statistics,
)
from repro.storage.wal import (
    StatisticsStore,
    WalBatch,
    WriteAheadLog,
    replay_batch_into_statistics,
)

__all__ = [
    "FileIO",
    "StatisticsBundle",
    "StatisticsStore",
    "WalBatch",
    "WriteAheadLog",
    "atomic_write_bytes",
    "backup_path",
    "load_model",
    "load_statistics_bundle",
    "read_with_retry",
    "recover_statistics_bundle",
    "replay_batch_into_statistics",
    "save_model",
    "save_statistics",
]
