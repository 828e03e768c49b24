"""Sketch-build plane: scalar per-partition reference vs the seal plane.

Times the offline half of the statistics builder (paper Figure 1,
section 2.3.1) two ways:

* **build**: the per-partition sketch-constructor loop — composed here
  from ``build_column_statistics`` per column per partition slice plus
  ``_global_heavy_hitters``; production has no such path — against
  ``build_dataset_statistics``, which makes one chunked numpy pass per
  column over the fused table view (one counting pass for the distincts
  and the lossy-counting sketches of every partition, per-dataset
  distinct hashing, batch sketch constructors);
* **cold start**: loading a saved deployment the pre-PR-5 way
  (``load_statistics`` + ``ColumnarSketchIndex.build``, i.e. re-export
  every sketch object into arrays) against
  ``load_statistics_bundle`` on a file that persisted the index arrays,
  and against the mmap load (``mmap=True``), which maps the file and
  hands out the index as read-only zero-copy views without ever
  decoding (or even checksumming) the sketch section.

Every comparison asserts bit-identical results (sketch encodings for
the build, index arrays for the cold starts) before any timing is
reported — the speedups are only meaningful if the artifacts cannot
drift. Alongside the timings, the cold-start rows record the *bytes a
load must touch* (whole file for the deserializing paths; manifest +
index section + footer for the index-only mmap path — deterministic,
from the manifest) and the measured RSS delta of one load (advisory:
allocator noise makes it a trend, not a bar). Emits
``BENCH_perf_sketch_plane.json`` under ``benchmarks/results/``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_perf_sketch_plane.py

or via pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_sketch_plane.py -q
"""

from __future__ import annotations

import json
import struct
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench.reporting import emit, format_table, results_dir
from repro.engine.layout import partition_evenly, sort_table
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table
from repro.sketches.builder import (
    DatasetStatistics,
    PartitionStatistics,
    SketchConfig,
    _global_heavy_hitters,
    build_column_statistics,
    build_dataset_statistics,
)
from repro.sketches.columnar import ColumnarSketchIndex
from repro.storage import (
    load_statistics,
    load_statistics_bundle,
    save_statistics,
)

PARTITION_COUNTS = (64, 256, 1024)
ROWS_PER_PARTITION = 50
REPEATS = 3

SCHEMA = Schema.of(
    Column("x", ColumnKind.NUMERIC, positive=True),
    Column("y", ColumnKind.NUMERIC),
    Column("d", ColumnKind.DATE),
    Column("cat", ColumnKind.CATEGORICAL, low_cardinality=True),
)


def _build_ptable(num_partitions: int, seed: int = 13):
    rng = np.random.default_rng(seed)
    n = num_partitions * ROWS_PER_PARTITION
    table = Table(
        SCHEMA,
        {
            "x": rng.exponential(10.0, n) + 1.0,
            "y": rng.normal(0.0, 5.0, n),
            "d": rng.integers(0, 365, n),
            "cat": rng.choice(["a", "b", "c", "dd"], n, p=[0.55, 0.25, 0.15, 0.05]),
        },
    )
    return partition_evenly(sort_table(table, "d"), num_partitions)


def _scalar_reference(ptable) -> DatasetStatistics:
    """Every sketch built on its own partition slice, one at a time."""
    config = SketchConfig()
    partitions = [
        PartitionStatistics(
            partition_index=partition.index,
            num_rows=partition.num_rows,
            columns={
                column.name: build_column_statistics(
                    column, partition.column(column.name), config
                )
                for column in ptable.schema
            },
        )
        for partition in ptable
    ]
    dataset = DatasetStatistics(
        schema=ptable.schema, config=config, partitions=partitions
    )
    for column in ptable.schema:
        dataset.global_heavy_hitters[column.name] = _global_heavy_hitters(
            partitions, column.name, config
        )
    return dataset


def _sketches_identical(a, b) -> bool:
    """Bit-level equality of two DatasetStatistics (serialized sketches)."""
    if a.num_partitions != b.num_partitions:
        return False
    if a.global_heavy_hitters != b.global_heavy_hitters:
        return False
    for p in range(a.num_partitions):
        for name, ca in a.partitions[p].columns.items():
            cb = b.partitions[p].columns[name]
            for field in (
                "measures",
                "histogram",
                "akmv",
                "heavy_hitter",
                "exact_dict",
            ):
                sa, sb = getattr(ca, field), getattr(cb, field)
                if (sa is None) != (sb is None):
                    return False
                if sa is not None and sa.to_bytes() != sb.to_bytes():
                    return False
    return True


def _indexes_identical(a: ColumnarSketchIndex, b: ColumnarSketchIndex) -> bool:
    if set(a.columns) != set(b.columns):
        return False
    for name, col in a.columns.items():
        other = b.columns[name].array_state()
        for key, arr in col.array_state().items():
            if arr.dtype != other[key].dtype or not np.array_equal(
                arr, other[key]
            ):
                return False
    return True


def _time_builds(ptable) -> tuple[float, float, bool]:
    """Best-of-REPEATS seconds for the scalar reference and the plane."""
    scalar_s, vector_s = [], []
    scalar = vector = None
    for __ in range(REPEATS):
        started = time.perf_counter()
        scalar = _scalar_reference(ptable)
        scalar_s.append(time.perf_counter() - started)
        started = time.perf_counter()
        vector = build_dataset_statistics(ptable)
        vector_s.append(time.perf_counter() - started)
    return min(scalar_s), min(vector_s), _sketches_identical(scalar, vector)


def _rss_kb() -> float:
    """Resident set size in kB from ``/proc`` (0.0 where unavailable)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def _bytes_touched(path: Path) -> tuple[int, int]:
    """(whole file, manifest + index section + footer) in bytes.

    The second figure is what the index-only mmap cold start faults in:
    everything a deserializing load reads except the sketch section,
    straight from the manifest's section table — deterministic, unlike
    page-cache accounting."""
    total = path.stat().st_size
    with open(path, "rb") as fh:
        (header_size,) = struct.unpack("<Q", fh.read(8))
        manifest = json.loads(fh.read(header_size))
    index_length = manifest["sections"].get("index", [0, 0, 0])[1]
    return total, 8 + header_size + index_length + 8


def _time_cold_start(
    stats, directory: Path
) -> tuple[float, float, float, dict, bool]:
    """Best-of-REPEATS seconds: export-on-load vs persisted-index load
    vs index-only mmap load — plus the bytes-touched/RSS side channel."""
    path = directory / "deploy.ps3stats"
    fresh_index = ColumnarSketchIndex.build(stats)
    save_statistics(stats, path, index=fresh_index)
    export_s, bundle_s, mmap_s = [], [], []
    loaded_index = mapped_index = None
    for __ in range(REPEATS):
        started = time.perf_counter()
        reloaded = load_statistics(path)
        ColumnarSketchIndex.build(reloaded)
        export_s.append(time.perf_counter() - started)
        started = time.perf_counter()
        loaded_index = load_statistics_bundle(path).index
        bundle_s.append(time.perf_counter() - started)
        started = time.perf_counter()
        mapped_index = load_statistics_bundle(path, mmap=True).index
        mmap_s.append(time.perf_counter() - started)
    file_bytes, mmap_bytes = _bytes_touched(path)
    before = _rss_kb()
    full_bundle = load_statistics_bundle(path)
    rss_full = _rss_kb() - before
    before = _rss_kb()
    mapped_bundle = load_statistics_bundle(path, mmap=True).index
    rss_mmap = _rss_kb() - before
    del full_bundle, mapped_bundle
    footprint = {
        "file_kb": file_bytes / 1024.0,
        "touched_mmap_kb": mmap_bytes / 1024.0,
        "rss_full_kb": rss_full,
        "rss_mmap_kb": rss_mmap,
    }
    identical = _indexes_identical(
        fresh_index, loaded_index
    ) and _indexes_identical(fresh_index, mapped_index)
    return min(export_s), min(bundle_s), min(mmap_s), footprint, identical


def run() -> dict:
    rows = []
    for num_partitions in PARTITION_COUNTS:
        ptable = _build_ptable(num_partitions)
        build_dataset_statistics(ptable)  # warm caches/allocator
        scalar_s, vector_s, build_identical = _time_builds(ptable)
        assert build_identical, (
            "vectorized and scalar builders disagree — parity is a hard "
            "precondition of the speedup claim"
        )
        stats = build_dataset_statistics(ptable)
        with tempfile.TemporaryDirectory() as tmp:
            export_s, bundle_s, mmap_s, footprint, index_identical = (
                _time_cold_start(stats, Path(tmp))
            )
        assert index_identical, (
            "persisted index differs from a fresh export — parity is a "
            "hard precondition of the cold-start claim"
        )
        rows.append(
            {
                "partitions": num_partitions,
                "scalar_build_ms": scalar_s * 1e3,
                "vectorized_build_ms": vector_s * 1e3,
                "speedup": scalar_s / vector_s,
                "cold_export_ms": export_s * 1e3,
                "cold_index_ms": bundle_s * 1e3,
                "cold_mmap_ms": mmap_s * 1e3,
                "cold_speedup": export_s / bundle_s,
                "mmap_speedup": bundle_s / mmap_s,
                "bit_identical": True,
                **footprint,
            }
        )
    report = {
        "benchmark": "perf_sketch_plane",
        "rows_per_partition": ROWS_PER_PARTITION,
        "repeats": REPEATS,
        "timed_step": (
            "per-slice build_column_statistics reference vs "
            "build_dataset_statistics; cold start load+export vs "
            "persisted-index bundle load"
        ),
        "results": rows,
    }
    (results_dir() / "BENCH_perf_sketch_plane.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    emit(
        "perf_sketch_plane",
        format_table(
            [
                "partitions",
                "scalar (ms)",
                "vectorized (ms)",
                "speedup",
                "cold export (ms)",
                "cold index (ms)",
                "cold mmap (ms)",
                "cold speedup",
                "mmap speedup",
                "touched (kB)",
            ],
            [
                [
                    r["partitions"],
                    r["scalar_build_ms"],
                    r["vectorized_build_ms"],
                    f"{r['speedup']:.1f}x",
                    r["cold_export_ms"],
                    r["cold_index_ms"],
                    r["cold_mmap_ms"],
                    f"{r['cold_speedup']:.1f}x",
                    f"{r['mmap_speedup']:.1f}x",
                    f"{r['touched_mmap_kb']:.0f}/{r['file_kb']:.0f}",
                ]
                for r in rows
            ],
            title=f"Sketch build + cold start (best of {REPEATS})",
        ),
    )
    return report


def test_perf_sketch_plane():
    report = run()
    # The vectorized plane must never lose, and must be measurably
    # faster (acceptance bar) from 256 partitions up; the mmap cold
    # start must clear 2x over the full deserializing bundle load at
    # 1024 partitions.
    for row in report["results"]:
        assert row["speedup"] > 1.0, row
        assert row["cold_speedup"] > 1.0, row
        assert row["mmap_speedup"] > 1.0, row
        assert row["touched_mmap_kb"] < row["file_kb"], row
        if row["partitions"] >= 256:
            assert row["speedup"] >= 1.5, row
        if row["partitions"] >= 1024:
            assert row["mmap_speedup"] >= 2.0, row


if __name__ == "__main__":
    run()
