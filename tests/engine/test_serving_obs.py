"""Serving-path observability: spans/stats consistency, PS3.metrics().

The front end's ``stats`` object became a view over its private
:class:`~repro.obs.MetricsRegistry`; these tests pin the contract that
migration must not break — the legacy integer attributes
(``front.stats.queries`` and friends) and the registry snapshot are two
reads of the *same* counts — and that the span taxonomy
(``serving.pick`` / ``serving.sweep`` / ``serving.scatter`` /
``serving.admission_wait_seconds``) fires consistently with those
counts. ``PS3.metrics()`` must merge all three planes.
"""

from __future__ import annotations

import json

import pytest

from repro.api import PS3
from repro.datasets.registry import get_dataset
from repro.engine.serving import ServingStats
from repro.obs import MetricsRegistry, snapshot_delta
from repro.workload import QueryGenerator


@pytest.fixture(scope="module")
def served_system():
    spec = get_dataset("kdd")
    ptable = spec.build(3000, 12, seed=4)
    workload = spec.workload()
    train, test = QueryGenerator(
        workload, ptable.table, seed=6
    ).train_test_split(10, 4)
    return PS3(ptable, workload).fit(train), test


class TestStatsRegistryConsistency:
    def test_legacy_views_equal_registry_counters(self, served_system):
        system, test = served_system
        front = system.serve()
        try:
            for query in test:
                front.query(query, budget_fraction=0.25)
        finally:
            front.stop()
        snap = front.registry.snapshot()
        stats = front.stats
        assert stats.queries == len(test)
        for name in ServingStats._COUNTER_NAMES:
            assert snap["counters"][f"serving.{name}"] == getattr(
                stats, name
            ), name
        for name in ServingStats._GAUGE_NAMES:
            assert snap["gauges"][f"serving.{name}"] == getattr(
                stats, name
            ), name

    def test_spans_fire_consistently_with_batch_counts(self, served_system):
        system, test = served_system
        front = system.serve()
        try:
            for query in test:
                front.query(query, budget_fraction=0.25)
        finally:
            front.stop()
        snap = front.registry.snapshot()
        batches = front.stats.batches
        assert batches >= 1
        # One pick span per processed batch; one sweep and one scatter
        # span per batch that had at least one picked request (all of
        # them here — no failures were injected).
        assert snap["counters"]["serving.pick.calls"] == batches
        assert snap["counters"]["serving.sweep.calls"] == batches
        assert snap["counters"]["serving.scatter.calls"] == batches
        for stage in ("serving.pick", "serving.sweep", "serving.scatter"):
            hist = snap["histograms"][f"{stage}.wall_seconds"]
            assert hist["count"] == batches
            assert hist["sum"] >= 0.0
            assert hist["p50"] is not None
        # Every dequeued request recorded its admission wait.
        wait = snap["histograms"]["serving.admission_wait_seconds"]
        assert wait["count"] == front.stats.queries
        assert wait["p50"] <= wait["p95"] <= wait["p99"]

    def test_stats_survive_stop_and_stay_readable(self, served_system):
        system, test = served_system
        front = system.serve()
        front.query(test[0], budget_fraction=0.25)
        front.stop()
        assert front.stats.queries == 1
        assert front.stats.batches == 1
        assert front.stats.queue_depth == 0

    def test_each_front_end_gets_its_own_registry(self, served_system):
        system, test = served_system
        with system.serve() as first:
            first.query(test[0], budget_fraction=0.25)
        with system.serve() as second:
            pass
        assert first.registry is not second.registry
        assert first.stats.queries == 1
        assert second.stats.queries == 0

    def test_explicit_registry_is_honored(self, served_system):
        system, test = served_system
        from repro.engine.serving import ServingFrontEnd

        mine = MetricsRegistry()
        front = ServingFrontEnd(system, registry=mine)
        with front:
            front.query(test[0], budget_fraction=0.25)
        assert front.registry is mine
        assert mine.snapshot()["counters"]["serving.queries"] == 1

    def test_mutation_helpers_update_both_views(self):
        # The real shed/degrade paths are pinned in
        # test_serving_overload.py (reading the same legacy views); here
        # pin that every helper writes one count visible both ways.
        stats = ServingStats()
        stats.count("shed")
        stats.count("failures", 3)
        stats.note_enqueue()
        stats.note_enqueue()
        stats.note_dequeue()
        stats.note_batch(4)
        stats.note_batch(1)
        assert stats.shed == 1
        assert stats.failures == 3
        assert stats.queue_depth == 1
        assert stats.queue_peak == 2
        assert stats.batches == 2
        assert stats.queries == 5
        assert stats.largest_batch == 4
        assert stats.batched_queries == 4
        snap = stats.registry.snapshot()
        assert snap["counters"]["serving.shed"] == 1
        assert snap["counters"]["serving.failures"] == 3
        assert snap["gauges"]["serving.queue_depth"] == 1
        assert snap["gauges"]["serving.queue_peak"] == 2
        assert snap["gauges"]["serving.largest_batch"] == 4
        with pytest.raises(AttributeError):
            stats.nonexistent_counter


class TestPS3Metrics:
    def test_merges_serving_engine_and_storage_planes(
        self, served_system, tmp_path
    ):
        system, test = served_system
        system.attach_store(tmp_path)
        system.append(
            {
                name: values[:50]
                for name, values in system.ptable.table.columns.items()
            }
        )
        system.checkpoint()
        front = system.serve()
        try:
            before = system.metrics()
            front.query(test[0], budget_fraction=0.25)
        finally:
            front.stop()
        snap = system.metrics()
        # Serving plane (from the front end's private registry).
        assert snap["counters"]["serving.queries"] >= 1
        assert "serving.sweep.wall_seconds" in snap["histograms"]
        # Engine plane (process-global registry): the served query opened
        # exactly one engine.sweep span of its own — a delta, because
        # the registry is shared with whatever answered queries before.
        served = snapshot_delta(before, snap)
        assert served["counters"]["engine.sweep.calls"] == 1
        assert served["histograms"]["engine.sweep.wall_seconds"]["count"] == 1
        assert not any(
            name.startswith("mask_cache.") for name in snap["counters"]
        )
        # Storage plane.
        assert snap["counters"]["storage.wal.appends"] >= 1
        assert "storage.wal.fsync_seconds" in snap["histograms"]
        assert snap["counters"]["storage.checkpoint.calls"] >= 1

    def test_snapshot_is_json_serializable(self, served_system):
        system, __ = served_system
        json.dumps(system.metrics())

    def test_metrics_without_serve_is_global_only(self, served_system):
        system, __ = served_system
        fresh = PS3.__new__(PS3)
        fresh._serving_registry = None
        snap = PS3.metrics(fresh)
        assert set(snap) == {"counters", "gauges", "histograms"}
