"""A checkpoint encodes each sealed partition once.

``save_statistics`` joins the per-partition sections memoized on
``PartitionStatistics.encoded`` and splices their memoized manifest
entry texts into the header; a loaded partition starts without a memo,
so it is encoded from its decoded sketches on the first save after the
load. The references below are what that replaced: every sketch of
every partition through ``to_bytes``, and the whole manifest assembled
as one dict through one ``json.dumps``, on every save. Each case
compares the saved sketch region, its manifest entries and the header
bytes with them, and the whole bundle with a save whose memos were all
cleared.
"""

from __future__ import annotations

import copy
import hashlib
import json
import struct
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import PS3
from repro.sketches.builder import DatasetStatistics
from repro.storage import (
    load_statistics_bundle,
    save_model,
    save_statistics,
)
from repro.storage import stats_io
from repro.storage.stats_io import (
    _SKETCH_FIELDS,
    _SKETCH_TYPES,
    _encode_array,
    _encode_hh_value,
    _read_manifest,
    _schema_to_json,
)
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


def reference_header(stats, *, index=None, wal_applied_seq=0) -> bytes:
    """The manifest assembled as one dict and dumped once, as every
    save did before entries were memoized as text."""
    partitions, sketches = reference_sketch_region(stats)
    blob = bytearray(sketches)
    manifest = {
        "version": 3,
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
        "partitions": partitions,
    }
    if index is not None:
        manifest["index"] = {
            "num_partitions": index.num_partitions,
            "columns": {
                name: {
                    key: _encode_array(arr, blob)
                    for key, arr in column_state.items()
                }
                for name, column_state in index.array_state().items()
            },
        }
    sections = {"sketches": [0, len(sketches), zlib.crc32(sketches)]}
    if len(blob) > len(sketches):
        sections["index"] = [
            len(sketches),
            len(blob) - len(sketches),
            zlib.crc32(bytes(blob[len(sketches) :])),
        ]
    manifest["sections"] = sections
    manifest["wal_applied_seq"] = int(wal_applied_seq)
    return json.dumps(manifest).encode("utf-8")


def saved_header(path: Path) -> bytes:
    raw = path.read_bytes()
    (size,) = struct.unpack("<Q", raw[:8])
    return raw[8 : 8 + size]


def assert_matches_reference(stats, path: Path, index=None, wal_applied_seq=0):
    manifest, blob = _read_manifest(path)
    assert saved_header(path) == reference_header(
        stats,
        index=index,
        wal_applied_seq=wal_applied_seq,
    )
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


@pytest.fixture
def entry_dumps(monkeypatch):
    """Partition indexes whose manifest entry ``save_statistics`` dumps."""
    calls = []

    def dumps(obj, *args, **kwargs):
        if isinstance(obj, dict) and "num_rows" in obj:
            calls.append(obj["index"])
        return json.dumps(obj, *args, **kwargs)

    spy = SimpleNamespace(dumps=dumps, loads=json.loads)
    monkeypatch.setattr(stats_io, "json", spy)
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


@pytest.mark.parametrize(
    "case", ["zero partitions", "no index", "index", "journal stamp"]
)
def test_header_is_one_dumps_of_the_manifest(case, tiny_ptable, tmp_path):
    system = PS3(tiny_ptable, WORKLOAD)
    stats, options = system.statistics, {}
    if case == "zero partitions":
        stats = DatasetStatistics(
            schema=stats.schema,
            config=stats.config,
            partitions=[],
            global_heavy_hitters=stats.global_heavy_hitters,
        )
    if case in ("index", "journal stamp"):
        options["index"] = system.feature_builder.sketch_index
    if case == "journal stamp":
        options["wal_applied_seq"] = 7
    path = tmp_path / "bundle.ps3stats"
    save_statistics(stats, path, **options)
    assert saved_header(path) == reference_header(stats, **options)
    assert load_statistics_bundle(path).statistics.num_partitions == len(
        stats.partitions
    )


def test_appends_with_a_checkpoint_every_second_one(
    tiny_ptable, tmp_path, sketch_encodings, entry_dumps
):
    system = PS3(tiny_ptable, WORKLOAD)
    store = system.attach_store(tmp_path)
    system.checkpoint()
    assert len(sketch_encodings) == _sketch_count(system.statistics.partitions)
    assert entry_dumps == list(range(tiny_ptable.num_partitions))
    for round_ in range(6):
        system.append(batch(round_))
        if round_ % 2:
            sketch_encodings.clear()
            entry_dumps.clear()
            seq = system.checkpoint()
            # Only the two partitions sealed since the last checkpoint.
            assert len(sketch_encodings) == _sketch_count(
                system.statistics.partitions[-2:]
            )
            total = system.statistics.num_partitions
            assert entry_dumps == [total - 2, total - 1]
            assert_matches_reference(
                system.statistics,
                store.stats_path,
                index=system.feature_builder.sketch_index,
                wal_applied_seq=seq,
            )


def test_reopened_system_checkpoints_at_delta_cost(
    tiny_ptable, tmp_path, sketch_encodings, entry_dumps
):
    generator = QueryGenerator(WORKLOAD, tiny_ptable.table, seed=5)
    train, __ = generator.train_test_split(6, 1)
    system = PS3(tiny_ptable, WORKLOAD).fit(train)
    store = system.attach_store(tmp_path)
    system.checkpoint()
    save_model(system.model, tmp_path / "model.json")
    reopened = PS3.open(tiny_ptable, WORKLOAD, tmp_path, tmp_path / "model.json")
    for round_ in range(2):
        reopened.append(batch(round_))
    sketch_encodings.clear()
    entry_dumps.clear()
    seq = reopened.checkpoint()
    # The first checkpoint after a load encodes every partition once ...
    assert len(sketch_encodings) == _sketch_count(reopened.statistics.partitions)
    assert entry_dumps == list(range(tiny_ptable.num_partitions + 2))
    assert saved_header(store.stats_path) == reference_header(
        reopened.statistics,
        index=reopened.feature_builder.sketch_index,
        wal_applied_seq=seq,
    )
    for round_ in range(2, 4):
        reopened.append(batch(round_))
    sketch_encodings.clear()
    entry_dumps.clear()
    seq = reopened.checkpoint()
    # ... and every later one only the partitions sealed since.
    total = reopened.statistics.num_partitions
    assert len(sketch_encodings) == _sketch_count(reopened.statistics.partitions[-2:])
    assert entry_dumps == [total - 2, total - 1]
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
    save_statistics(bundle.statistics, path, index=bundle.index)
    assert_matches_reference(bundle.statistics, path, index=bundle.index)


def test_seeded_history_bundle_is_pinned(tiny_ptable, tmp_path):
    system = seeded_history(tiny_ptable, tmp_path)
    assert system.statistics.num_partitions == tiny_ptable.num_partitions + 6
    digest = hashlib.sha256(system.store.stats_path.read_bytes()).hexdigest()
    assert digest == HISTORY_SHA256


def test_same_offsets_after_other_bytes_carry_the_crc_afresh(tiny_ptable, tmp_path):
    """A memoized partition saved at its old base behind a different
    first section keeps its entry but not the running sketch CRC."""
    system = PS3(tiny_ptable, WORKLOAD)
    stats = system.statistics
    save_statistics(stats, tmp_path / "first.ps3stats")
    other = copy.deepcopy(stats.partitions[0])
    other.encoded = None
    next(iter(other.columns.values())).measures.total += 1.0  # same length
    changed = DatasetStatistics(
        schema=stats.schema,
        config=stats.config,
        partitions=[other, *stats.partitions[1:]],
        global_heavy_hitters=stats.global_heavy_hitters,
    )
    path = tmp_path / "changed.ps3stats"
    save_statistics(changed, path)
    assert_matches_reference(changed, path)
    assert stats.partitions[1].encoded[2] == changed.partitions[1].encoded[2]
    assert load_statistics_bundle(path).statistics.num_partitions == len(
        changed.partitions
    )
