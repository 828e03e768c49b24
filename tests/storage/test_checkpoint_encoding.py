"""A checkpoint writes the statistics once, in format v4.

``save_statistics`` lays every array — the columnar index, row counts,
Table 4 sizes and the running global heavy-hitter sketches — into one
blob behind a JSON manifest, and guards the two with CRCs. The
reference below re-derives those bytes from the documented layout, and
each case compares a saved bundle with it byte for byte: a fresh build,
appends with a checkpoint after every second one, a journal stamp, and
a reopened system. The bundle of a seeded history is pinned by sha256.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.api import PS3
from repro.storage import load_statistics_bundle, save_model, save_statistics
from repro.storage.stats_io import _encode_hh_value, _schema_to_json
from repro.workload import QueryGenerator
from repro.workload.spec import WorkloadSpec

WORKLOAD = WorkloadSpec(
    groupby_universe=("cat", "d"),
    aggregate_columns=("x", "y"),
    predicate_columns=("x", "y", "d", "cat", "tag"),
)

#: sha256 of the bundle after ``seeded_history`` on the tiny table,
#: re-pinned once when bundles moved to format v4 (the statistics in it
#: did not change).
HISTORY_SHA256 = "3da1683bea13bd3f8ab1e63533cfaf2f42ff794dc777a73376d71fda23adda80"


def reference_bundle(stats, wal_applied_seq: int = 0) -> bytes:
    """The v4 bundle of ``stats``, assembled from the documented layout."""
    blob = bytearray()

    def put(arr: np.ndarray) -> list:
        arr = np.ascontiguousarray(arr)
        entry = [len(blob), arr.nbytes, arr.dtype.str, list(arr.shape)]
        blob.extend(arr.tobytes())
        return entry

    config = stats.config
    manifest = {
        "version": 4,
        "schema": _schema_to_json(stats.schema),
        "config": {
            "histogram_buckets": config.histogram_buckets,
            "akmv_k": config.akmv_k,
            "hh_support": config.hh_support,
            "hh_epsilon": config.hh_epsilon,
            "exact_dict_limit": config.exact_dict_limit,
            "bitmap_k": config.bitmap_k,
        },
        "global_heavy_hitters": {
            column: [_encode_hh_value(v) for v in values]
            for column, values in stats.global_heavy_hitters.items()
        },
        "num_partitions": stats.num_partitions,
        "num_rows": put(stats.num_rows),
        "sizes": put(stats.sizes),
        "index": {
            name: {key: put(arr) for key, arr in column.array_state().items()}
            for name, column in stats.index.columns.items()
        },
        "running_heavy_hitters": {
            name: {
                "total": sketch.total,
                "values": put(sketch.arrays()[0]),
                "counts": put(sketch.arrays()[1]),
                "deltas": put(sketch.arrays()[2]),
            }
            for name, sketch in stats.running_heavy_hitters.items()
        },
        "blob_crc32": zlib.crc32(blob),
        "wal_applied_seq": wal_applied_seq,
    }
    header = json.dumps(manifest).encode("utf-8")
    return b"".join(
        (
            struct.pack("<Q", len(header)),
            header,
            bytes(blob),
            b"PS3C",
            struct.pack("<I", zlib.crc32(header)),
        )
    )


def batch(round_: int) -> dict[str, np.ndarray]:
    """Appended rows: new, wider and non-ASCII strings now and then."""
    rng = np.random.default_rng(2500 + round_)
    n = 90 + 10 * round_
    cats = ["a", "b", "c", "dd", "eee", "ünï"][: 4 + round_ % 3]
    tags = [f"t{i:03d}" for i in range(290, 320)] + ["tag-ω"]
    return {
        "x": rng.exponential(10.0, n) + 1.0,
        "y": rng.normal(0.0, 5.0, n),
        "d": rng.integers(100, 120, n),
        "cat": rng.choice(cats, n),
        "tag": rng.choice(tags, n),
    }


def seeded_history(ptable, directory: Path) -> PS3:
    """Build, then six appends with a checkpoint after every second."""
    system = PS3(ptable, WORKLOAD)
    system.attach_store(directory)
    for round_ in range(6):
        system.append(batch(round_))
        if round_ % 2:
            system.checkpoint()
    return system


def test_fresh_build(tiny_ptable, tmp_path):
    system = PS3(tiny_ptable, WORKLOAD)
    path = tmp_path / "fresh.ps3stats"
    save_statistics(system.statistics, path)
    assert path.read_bytes() == reference_bundle(system.statistics)
    save_statistics(system.statistics, path, wal_applied_seq=7)
    assert path.read_bytes() == reference_bundle(system.statistics, 7)


def test_appends_with_a_checkpoint_every_second_one(tiny_ptable, tmp_path):
    system = PS3(tiny_ptable, WORKLOAD)
    store = system.attach_store(tmp_path)
    system.checkpoint()
    assert store.stats_path.read_bytes() == reference_bundle(system.statistics)
    for round_ in range(6):
        system.append(batch(round_))
        if round_ % 2:
            seq = system.checkpoint()
            expected = reference_bundle(system.statistics, seq)
            assert store.stats_path.read_bytes() == expected


def test_reopened_system_checkpoints_the_same_bytes(tiny_ptable, tmp_path):
    generator = QueryGenerator(WORKLOAD, tiny_ptable.table, seed=5)
    train, __ = generator.train_test_split(6, 1)
    system = PS3(tiny_ptable, WORKLOAD).fit(train)
    store = system.attach_store(tmp_path)
    system.checkpoint()
    save_model(system.model, tmp_path / "model.json")
    reopened = PS3.open(tiny_ptable, WORKLOAD, tmp_path, tmp_path / "model.json")
    for round_ in range(2):
        system.append(batch(round_))
        reopened.append(batch(round_))
    seq = reopened.checkpoint()
    assert store.stats_path.read_bytes() == reference_bundle(system.statistics, seq)
    loaded = load_statistics_bundle(store.stats_path)
    assert loaded.wal_applied_seq == seq


def test_seeded_history_bundle_is_pinned(tiny_ptable, tmp_path):
    system = seeded_history(tiny_ptable, tmp_path)
    assert system.statistics.num_partitions == tiny_ptable.num_partitions + 6
    digest = hashlib.sha256(system.store.stats_path.read_bytes()).hexdigest()
    assert digest == HISTORY_SHA256
