"""A checkpoint encodes each sealed partition once.

``save_statistics`` joins the per-partition sections memoized on
``PartitionStatistics.encoded``; a loaded partition starts without one,
so it is encoded from its decoded sketches on the first save after the
load. The reference below is the loop it replaced: every sketch of
every partition through ``to_bytes``, on every save. Each case compares
the saved sketch region and its manifest entries with that loop, and
the whole bundle with a save whose memos were all cleared.
"""

from __future__ import annotations

import copy
import hashlib
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.api import PS3
from repro.sketches.builder import DatasetStatistics
from repro.storage import (
    load_statistics_bundle,
    save_model,
    save_statistics,
)
from repro.storage.stats_io import _SKETCH_FIELDS, _SKETCH_TYPES, _read_manifest
from repro.workload import QueryGenerator
from repro.workload.spec import WorkloadSpec

FIXTURES = Path(__file__).resolve().parent / "fixtures"

WORKLOAD = WorkloadSpec(
    groupby_universe=("cat", "d"),
    aggregate_columns=("x", "y"),
    predicate_columns=("x", "y", "d", "cat", "tag"),
)

#: sha256 of the bundle after ``seeded_history`` on the tiny table,
#: recorded before partitions memoized their encoding.
HISTORY_SHA256 = "c8a0e83e55288eb7fd9f7ef9c90a5a05e656e915ac0d59d0437a02da4a545e1a"


def reference_sketch_region(stats) -> tuple[list, bytes]:
    """The manifest's partition entries and the sketch blob, encoded now."""
    blob = bytearray()
    partitions = []
    for pstats in stats.partitions:
        columns: dict[str, dict] = {}
        for name, cstats in pstats.columns.items():
            entry: dict[str, list[int]] = {}
            for sketch_field in _SKETCH_FIELDS:
                sketch = getattr(cstats, sketch_field)
                if sketch is None:
                    continue
                encoded = sketch.to_bytes()
                entry[sketch_field] = [len(blob), len(encoded)]
                blob.extend(encoded)
            columns[name] = entry
        partitions.append(
            {
                "index": pstats.partition_index,
                "num_rows": pstats.num_rows,
                "columns": columns,
            }
        )
    return partitions, bytes(blob)


def assert_matches_reference(stats, path: Path, index=None, wal_applied_seq=0):
    manifest, blob = _read_manifest(path)
    partitions, sketches = reference_sketch_region(stats)
    assert manifest["partitions"] == partitions
    assert manifest["sections"]["sketches"] == [0, len(sketches), zlib.crc32(sketches)]
    assert blob[: len(sketches)] == sketches
    unmemoized = copy.deepcopy(stats)
    for pstats in unmemoized.partitions:
        pstats.encoded = None
    fresh = path.with_name(path.name + ".fresh")
    save_statistics(
        unmemoized,
        fresh,
        index=index,
        plan_cache_keys=tuple(manifest.get("plan_cache_keys", ())),
        wal_applied_seq=wal_applied_seq,
    )
    assert fresh.read_bytes() == path.read_bytes()


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


@pytest.fixture
def sketch_encodings(monkeypatch):
    """Counts ``to_bytes`` calls across every sketch type."""
    calls = []
    for sketch_type in _SKETCH_TYPES.values():
        original = sketch_type.to_bytes

        def counted(self, original=original):
            calls.append(type(self).__name__)
            return original(self)

        monkeypatch.setattr(sketch_type, "to_bytes", counted)
    return calls


def _sketch_count(partitions) -> int:
    return sum(
        getattr(cstats, sketch_field) is not None
        for pstats in partitions
        for cstats in pstats.columns.values()
        for sketch_field in _SKETCH_FIELDS
    )


def test_fresh_build(tiny_ptable, tmp_path):
    system = PS3(tiny_ptable, WORKLOAD)
    index = system.feature_builder.sketch_index
    path = tmp_path / "fresh.ps3stats"
    save_statistics(system.statistics, path, index=index)
    assert_matches_reference(system.statistics, path, index=index)
    # Memoized partitions saved at other offsets re-encode there.
    tail = DatasetStatistics(
        schema=system.statistics.schema,
        config=system.statistics.config,
        partitions=system.statistics.partitions[5:],
    )
    save_statistics(tail, path)
    assert_matches_reference(tail, path)


def test_appends_with_a_checkpoint_every_second_one(
    tiny_ptable, tmp_path, sketch_encodings
):
    system = PS3(tiny_ptable, WORKLOAD)
    store = system.attach_store(tmp_path)
    system.checkpoint()
    assert len(sketch_encodings) == _sketch_count(system.statistics.partitions)
    for round_ in range(6):
        system.append(batch(round_))
        if round_ % 2:
            sketch_encodings.clear()
            seq = system.checkpoint()
            # Only the two partitions sealed since the last checkpoint.
            assert len(sketch_encodings) == _sketch_count(
                system.statistics.partitions[-2:]
            )
            assert_matches_reference(
                system.statistics,
                store.stats_path,
                index=system.feature_builder.sketch_index,
                wal_applied_seq=seq,
            )


def test_reopened_system_checkpoints_at_delta_cost(
    tiny_ptable, tmp_path, sketch_encodings
):
    generator = QueryGenerator(WORKLOAD, tiny_ptable.table, seed=5)
    train, __ = generator.train_test_split(6, 1)
    system = PS3(tiny_ptable, WORKLOAD).fit(train)
    store = system.attach_store(tmp_path)
    system.checkpoint()
    save_model(system.model, tmp_path / "model.json")
    reopened = PS3.open(tiny_ptable, WORKLOAD, tmp_path, tmp_path / "model.json")
    for round_ in range(3):
        reopened.append(batch(round_))
    sketch_encodings.clear()
    reopened.checkpoint()
    # The first checkpoint after a load encodes every partition once ...
    assert len(sketch_encodings) == _sketch_count(reopened.statistics.partitions)
    for round_ in range(3, 5):
        reopened.append(batch(round_))
    sketch_encodings.clear()
    seq = reopened.checkpoint()
    # ... and every later one only the partitions sealed since.
    assert len(sketch_encodings) == _sketch_count(reopened.statistics.partitions[-2:])
    assert_matches_reference(
        reopened.statistics,
        store.stats_path,
        index=reopened.feature_builder.sketch_index,
        wal_applied_seq=seq,
    )


def test_resave_folds_a_pre_rule_heavy_hitter_payload(
    tiny_ptable, tmp_path, monkeypatch
):
    """A bundle written before the NaN rule re-saves in today's encoding.

    Its heavy-hitter payload holds one NaN entry per block; loading
    folds them into one, so the re-save must encode the folded sketch,
    exactly as the per-sketch loop does, not repeat the bytes it read.
    """
    system = PS3(tiny_ptable, WORKLOAD)
    target = next(
        cstats.heavy_hitter
        for cstats in system.statistics.partitions[0].columns.values()
        if cstats.heavy_hitter is not None
    )
    nan = b"f" + struct.pack("<d", float("nan"))
    one = b"f" + struct.pack("<d", 1.0)
    legacy = struct.pack("<ddQI", target.support, target.epsilon, 2400, 4) + b"".join(
        struct.pack("<Id", len(value), count) + value
        for value, count in ((nan, 600.0), (one, 700.0), (nan, 600.0), (nan, 500.0))
    )
    original = type(target).to_bytes
    monkeypatch.setattr(
        type(target),
        "to_bytes",
        lambda self: legacy if self is target else original(self),
    )
    old = tmp_path / "old.ps3stats"
    save_statistics(system.statistics, old)
    monkeypatch.undo()

    bundle = load_statistics_bundle(old)
    path = tmp_path / "resaved.ps3stats"
    save_statistics(bundle.statistics, path)
    assert_matches_reference(bundle.statistics, path)
    __, old_blob = _read_manifest(old)
    __, sketches = reference_sketch_region(bundle.statistics)
    assert legacy in old_blob and legacy not in sketches


@pytest.mark.parametrize("name", ["v1.ps3stats", "v2.ps3stats"])
def test_frozen_fixtures_reopened_and_resaved(name, tmp_path):
    bundle = load_statistics_bundle(FIXTURES / name)
    path = tmp_path / name
    save_statistics(
        bundle.statistics,
        path,
        index=bundle.index,
        plan_cache_keys=bundle.plan_cache_keys,
    )
    assert_matches_reference(bundle.statistics, path, index=bundle.index)


def test_seeded_history_bundle_is_pinned(tiny_ptable, tmp_path):
    system = seeded_history(tiny_ptable, tmp_path)
    assert system.statistics.num_partitions == tiny_ptable.num_partitions + 6
    digest = hashlib.sha256(system.store.stats_path.read_bytes()).hexdigest()
    assert digest == HISTORY_SHA256
