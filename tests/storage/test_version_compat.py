"""Backward compatibility against *frozen* pre-v3 bundle bytes.

``fixtures/v1.ps3stats`` and ``fixtures/v2.ps3stats`` were written by
the v2-era tree (see ``fixtures/make_fixtures.py``) and committed as
binary artifacts, so the v3 loader is tested against real old bytes —
not old bytes synthesized by new code. ``fixtures/expected.json``
records the facts both files must decode to.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.storage import (
    StatisticsStore,
    load_statistics_bundle,
    save_statistics,
)
from repro.storage.stats_io import _read_manifest

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture(scope="module")
def expected():
    return json.loads((FIXTURES / "expected.json").read_text())


def _assert_statistics_match(stats, expected):
    assert stats.num_partitions == expected["num_partitions"]
    assert list(stats.schema.names) == expected["columns"]
    assert [p.num_rows for p in stats.partitions] == expected["num_rows"]
    assert (
        list(stats.global_heavy_hitters["cat"])
        == expected["global_heavy_hitters_cat"]
    )
    for p, mean in enumerate(expected["x_means"]):
        assert stats.partitions[p].columns["x"].measures.mean == pytest.approx(
            mean, rel=1e-12
        )


class TestFrozenV2:
    def test_loads_with_index_and_plan_keys(self, expected):
        """The file carries plan keys from older trees; they are ignored."""
        manifest, __ = _read_manifest(FIXTURES / "v2.ps3stats", io=None)
        assert manifest["plan_cache_keys"] == ["frozen-plan-key"]
        bundle = load_statistics_bundle(FIXTURES / "v2.ps3stats")
        _assert_statistics_match(bundle.statistics, expected)
        assert bundle.index is not None
        assert bundle.index.num_partitions == expected["num_partitions"]
        # Pre-v3 bundles predate the journal: the stamp defaults to 0.
        assert bundle.wal_applied_seq == 0

    def test_manifest_really_is_version_2(self):
        manifest, __ = _read_manifest(FIXTURES / "v2.ps3stats", io=None)
        assert manifest["version"] == 2
        assert "sections" not in manifest


class TestFrozenV1:
    def test_loads_with_index_none(self, expected):
        bundle = load_statistics_bundle(FIXTURES / "v1.ps3stats")
        _assert_statistics_match(bundle.statistics, expected)
        assert bundle.index is None


class TestV3Roundtrip:
    def test_resave_load_resave_is_bit_identical(self, tmp_path):
        """v2 bytes upgraded to v3 round-trip deterministically."""
        bundle = load_statistics_bundle(FIXTURES / "v2.ps3stats")
        first = tmp_path / "first.ps3stats"
        save_statistics(bundle.statistics, first, index=bundle.index)
        reloaded = load_statistics_bundle(first)
        second = tmp_path / "second.ps3stats"
        save_statistics(reloaded.statistics, second, index=reloaded.index)
        assert first.read_bytes() == second.read_bytes()
        manifest, __ = _read_manifest(first, io=None)
        assert manifest["version"] == 3
        assert set(manifest["sections"]) >= {"sketches"}

    def test_checkpoint_of_upgraded_bundle_round_trips(self, tmp_path):
        """Old bytes -> store checkpoint -> recovery: still bit-stable."""
        bundle = load_statistics_bundle(FIXTURES / "v2.ps3stats")
        store = StatisticsStore(tmp_path)
        store.checkpoint(bundle.statistics, index=bundle.index)
        first = (tmp_path / "stats.ps3stats").read_bytes()
        stats, index = StatisticsStore(tmp_path).load_statistics()
        StatisticsStore(tmp_path).checkpoint(stats, index=index)
        assert (tmp_path / "stats.ps3stats").read_bytes() == first
