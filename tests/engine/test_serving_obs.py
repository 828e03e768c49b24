"""Serving-path observability: spans/stats consistency, PS3.metrics().

The front end's ``stats`` attributes are the instruments of its private
:class:`~repro.obs.MetricsRegistry`; these tests pin that
``front.stats.queries.value`` and friends and the registry snapshot are
two reads of the *same* counts, and that the span taxonomy
(``serving.answer`` / ``serving.admission_wait_seconds``) fires
consistently with those counts. ``PS3.metrics()`` must merge all three
planes.
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
    def test_stats_attributes_are_the_registry_instruments(
        self, served_system
    ):
        system, test = served_system
        front = system.serve()
        try:
            for query in test:
                front.query(query, budget_fraction=0.25)
        finally:
            front.stop()
        snap = front.registry.snapshot()
        stats = front.stats
        assert stats.queries.value == len(test)
        instruments = {
            name: value for name, value in vars(stats).items() if name != "registry"
        }
        assert len(instruments) == 9
        for name, instrument in instruments.items():
            kind = "gauges" if name.startswith("queue_") else "counters"
            assert instrument.name == f"serving.{name}"
            assert snap[kind][instrument.name] == instrument.value, name

    def test_answer_span_fires_once_per_answered_request(self, served_system):
        system, test = served_system
        front = system.serve()
        try:
            for query in test:
                front.query(query, budget_fraction=0.25)
        finally:
            front.stop()
        snap = front.registry.snapshot()
        queries = front.stats.queries.value
        assert queries == len(test)
        # One loop iteration, one answer span per request (none failed
        # or expired here).
        assert front.stats.batches.value == queries
        assert snap["counters"]["serving.answer.calls"] == queries
        hist = snap["histograms"]["serving.answer.wall_seconds"]
        assert hist["count"] == queries
        assert hist["sum"] >= 0.0
        assert hist["p50"] is not None
        # Every dequeued request recorded its admission wait.
        wait = snap["histograms"]["serving.admission_wait_seconds"]
        assert wait["count"] == queries
        assert wait["p50"] <= wait["p95"] <= wait["p99"]

    def test_stats_survive_stop_and_stay_readable(self, served_system):
        system, test = served_system
        front = system.serve()
        front.query(test[0], budget_fraction=0.25)
        front.stop()
        assert front.stats.queries.value == 1
        assert front.stats.batches.value == 1
        assert front.stats.queue_depth.value == 0

    def test_each_front_end_gets_its_own_registry(self, served_system):
        system, test = served_system
        with system.serve() as first:
            first.query(test[0], budget_fraction=0.25)
        with system.serve() as second:
            pass
        assert first.registry is not second.registry
        assert first.stats.queries.value == 1
        assert second.stats.queries.value == 0

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
        # The real shed path is pinned in test_serving_overload.py; here
        # pin that every write is one count visible both ways.
        stats = ServingStats()
        stats.shed.inc()
        stats.failures.inc(3)
        stats.note_enqueue()
        stats.note_enqueue()
        stats.note_dequeue()
        assert stats.shed.value == 1
        assert stats.failures.value == 3
        assert stats.queue_depth.value == 1
        assert stats.queue_peak.value == 2
        snap = stats.registry.snapshot()
        assert snap["counters"]["serving.shed"] == 1
        assert snap["counters"]["serving.failures"] == 3
        assert snap["gauges"]["serving.queue_depth"] == 1
        assert snap["gauges"]["serving.queue_peak"] == 2
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
        assert "serving.answer.wall_seconds" in snap["histograms"]
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
