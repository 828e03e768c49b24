"""Compatibility against *frozen* bundle bytes written by older trees.

``fixtures/v1.ps3stats`` and ``fixtures/v2.ps3stats`` were written by
the v2-era tree (``fixtures/make_fixtures.py``): this tree refuses them
with a typed error. ``fixtures/v3/`` is a statistics store (a v3
checkpoint plus a journal holding one batch appended after it) and the
picker model, written by the v3-era tree
(``fixtures/make_v3_fixture.py``), with what that tree answered after
reopening the store in ``fixtures/v3/expected.json``. Reopened here, the
store must answer the same bytes, report the same staleness and Table 4
footprint, and checkpoint as v4.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from repro.api import PS3
from repro.errors import StorageError, UnsupportedBundleError
from repro.storage import (
    StatisticsStore,
    load_statistics_bundle,
    save_statistics,
)
from repro.storage.stats_io import _read_manifest

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _v3_generator():
    spec = importlib.util.spec_from_file_location(
        "make_v3_fixture", FIXTURES / "make_v3_fixture.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


V3 = _v3_generator()


@pytest.fixture(scope="module")
def expected():
    return json.loads((FIXTURES / "v3" / "expected.json").read_text())


@pytest.fixture
def v3_store(tmp_path):
    """A copy of the frozen v3 store (reopening may write to it)."""
    directory = tmp_path / "v3"
    shutil.copytree(FIXTURES / "v3", directory)
    return directory


def reopen(directory: Path, ptable=None) -> PS3:
    ptable = V3.fixture_table() if ptable is None else ptable
    return PS3.open(ptable, V3.WORKLOAD, directory, directory / "model.json")


class TestRetiredFormats:
    @pytest.mark.parametrize("name", ["v1.ps3stats", "v2.ps3stats"])
    def test_v1_and_v2_are_refused(self, name):
        with pytest.raises(UnsupportedBundleError) as caught:
            load_statistics_bundle(FIXTURES / name)
        assert isinstance(caught.value, StorageError)


class TestFrozenV3:
    def test_the_fixture_really_is_version_3(self, v3_store):
        manifest, __ = _read_manifest(v3_store / "stats.ps3stats")
        assert manifest["version"] == 3
        assert set(manifest["sections"]) == {"sketches", "index"}

    def test_reopened_store_answers_as_the_v3_tree_did(self, v3_store, expected):
        system = reopen(v3_store)
        assert system.statistics.num_partitions == expected["num_partitions"]
        assert V3.answers(system) == expected["answers"]
        staleness = system.staleness()
        assert [
            staleness.partitions_added,
            staleness.fraction_new,
            staleness.heavy_hitter_drift,
            staleness.needs_retraining,
        ] == expected["staleness"]
        assert system.storage_overhead_bytes() == expected["storage_overhead_bytes"]

    def test_checkpoint_writes_v4_and_reopens_the_same(self, v3_store, expected):
        system = reopen(v3_store)
        system.checkpoint()
        manifest, __ = _read_manifest(v3_store / "stats.ps3stats")
        assert manifest["version"] == 4
        again = reopen(v3_store, system.ptable)  # the journaled batch folded in
        assert V3.answers(again) == expected["answers"]
        # Staleness counts appends from the checkpoint; the drift carries.
        drift = again.staleness().heavy_hitter_drift
        assert drift == system.staleness().heavy_hitter_drift
        assert again.storage_overhead_bytes() == expected["storage_overhead_bytes"]


class TestV4Roundtrip:
    def test_v4_stores_the_statistics_once(self, v3_store, tmp_path):
        """The v3 file kept every sketch encoding beside the index; the
        v4 file is smaller than the v3 one without its sketch section."""
        path = v3_store / "stats.ps3stats"
        manifest, __ = _read_manifest(path)
        sketch_bytes = manifest["sections"]["sketches"][1]
        upgraded = tmp_path / "v4.ps3stats"
        save_statistics(load_statistics_bundle(path).statistics, upgraded)
        assert upgraded.stat().st_size < path.stat().st_size - sketch_bytes

    def test_resave_load_resave_is_bit_identical(self, v3_store, tmp_path):
        """v3 bytes upgraded to v4 round-trip deterministically."""
        bundle = load_statistics_bundle(v3_store / "stats.ps3stats")
        first = tmp_path / "first.ps3stats"
        save_statistics(bundle.statistics, first)
        reloaded = load_statistics_bundle(first)
        second = tmp_path / "second.ps3stats"
        save_statistics(reloaded.statistics, second)
        assert first.read_bytes() == second.read_bytes()

    def test_checkpoint_of_upgraded_bundle_round_trips(self, v3_store, tmp_path):
        """Old bytes -> store checkpoint -> recovery: still bit-stable."""
        bundle = load_statistics_bundle(v3_store / "stats.ps3stats")
        store = StatisticsStore(tmp_path)
        store.checkpoint(bundle.statistics)
        first = (tmp_path / "stats.ps3stats").read_bytes()
        stats, index = StatisticsStore(tmp_path).load_statistics()
        assert index is stats.index
        StatisticsStore(tmp_path).checkpoint(stats)
        assert (tmp_path / "stats.ps3stats").read_bytes() == first
