"""Shared compiled-plan cache across FeatureBuilder instances."""

import numpy as np
from sketch_oracle import oracle_dataset

from repro.engine.aggregates import count_star
from repro.engine.layout import partition_evenly
from repro.engine.predicates import And, Comparison, InSet
from repro.engine.query import Query
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table
from repro.sketches.builder import build_dataset_statistics
from repro.stats.features import FeatureBuilder
from repro.stats.plan import SHARED_PLAN_CACHE, PlanCache

PREDICATE = And([Comparison("x", ">", 3.0), InSet("cat", {"a"})])


def _other_table():
    """A second, differently-shaped table sharing the column names."""
    schema = Schema.of(
        Column("x", ColumnKind.NUMERIC),
        Column("cat", ColumnKind.CATEGORICAL, low_cardinality=True),
    )
    rng = np.random.default_rng(31)
    n = 400
    table = Table(
        schema,
        {"x": rng.normal(5.0, 2.0, n), "cat": rng.choice(["a", "b"], n)},
    )
    return partition_evenly(table, 8)


class TestPlanCacheSharing:
    def test_second_builder_hits_instead_of_recompiling(self, tiny_stats):
        cache = PlanCache()
        query = Query([count_star()], PREDICATE)
        first = FeatureBuilder(tiny_stats, ("cat",), plan_cache=cache)
        first.features_for_query(query)
        assert cache.misses == 1 and cache.hits == 0
        # A different builder over the same workload: pure cache hits.
        second = FeatureBuilder(tiny_stats, ("cat", "d"), plan_cache=cache)
        second.features_for_query(query)
        assert cache.misses == 1 and cache.hits == 1
        second.features_for_query(query)
        assert cache.misses == 1 and cache.hits == 2

    def test_shared_default_cache(self, tiny_stats):
        builder = FeatureBuilder(tiny_stats, ("cat",))
        assert builder.plan_cache is SHARED_PLAN_CACHE

    def test_plans_are_dataset_independent(
        self, tiny_stats, tiny_oracle, scalar_features
    ):
        """One cached plan serves two datasets with correct per-dataset output."""
        cache = PlanCache()
        query = Query([count_star()], PREDICATE)
        tiny_builder = FeatureBuilder(tiny_stats, ("cat",), plan_cache=cache)
        other_table = _other_table()
        other_builder = FeatureBuilder(
            build_dataset_statistics(other_table), ("cat",), plan_cache=cache
        )
        tiny_vec = tiny_builder.features_for_query(query)
        other_vec = other_builder.features_for_query(query)
        assert cache.misses == 1 and cache.hits == 1
        # Each builder still evaluated against its own sketch index, and
        # matches its scalar estimator bit for bit.
        for builder, features, oracle in (
            (tiny_builder, tiny_vec, tiny_oracle),
            (other_builder, other_vec, oracle_dataset(other_table)),
        ):
            scalar = scalar_features(builder, query, oracle)
            np.testing.assert_array_equal(features.matrix, scalar.matrix)

    def test_no_predicate_is_cacheable(self, tiny_stats):
        cache = PlanCache()
        builder = FeatureBuilder(tiny_stats, (), plan_cache=cache)
        query = Query([count_star()])
        builder.features_for_query(query)
        builder.features_for_query(query)
        assert cache.misses == 1 and cache.hits == 1


class TestLRUEviction:
    """Crossing ``limit`` evicts exactly the least recently used plan —
    not the whole cache (the regression: the 257th distinct predicate
    used to clear everything and collapse the hit rate)."""

    PREDICATES = [Comparison("x", ">", float(i)) for i in range(8)]

    def test_overflow_evicts_one_entry_not_all(self):
        cache = PlanCache(limit=2)
        a, b, c = self.PREDICATES[:3]
        cache.get(a)
        cache.get(b)
        cache.get(c)  # at capacity: evicts a (oldest), keeps b
        assert len(cache) == 2
        assert cache.misses == 3 and cache.hits == 0
        cache.get(b)
        cache.get(c)
        assert cache.hits == 2 and cache.misses == 3

    def test_hit_refreshes_recency(self):
        cache = PlanCache(limit=2)
        a, b, c = self.PREDICATES[:3]
        cache.get(a)
        cache.get(b)
        cache.get(a)  # a is now most recent
        cache.get(c)  # evicts b, not a
        assert cache.hits == 1
        cache.get(a)
        assert cache.hits == 2  # a survived the eviction
        cache.get(b)  # b was the one evicted
        assert cache.misses == 4

    def test_long_scan_keeps_hot_entry_alive(self):
        """A hot predicate interleaved with a stream of distinct cold
        ones stays cached across many limit crossings."""
        cache = PlanCache(limit=3)
        hot = self.PREDICATES[0]
        cache.get(hot)
        for cold in self.PREDICATES[1:]:
            cache.get(cold)
            cache.get(hot)
        assert cache.hits == len(self.PREDICATES) - 1
        assert cache.misses == len(self.PREDICATES)
        assert len(cache) == 3

    def test_compiled_plan_identity_preserved_on_hit(self):
        cache = PlanCache(limit=2)
        plan = cache.get(self.PREDICATES[0])
        assert cache.get(self.PREDICATES[0]) is plan


class TestThreadSafety:
    """Concurrent ``get`` used to race: two threads could both pop the
    same key in the LRU refresh (KeyError), or both evict at capacity
    and drop a just-inserted plan. The cache now holds a lock across
    the whole lookup/insert/evict step."""

    def test_concurrent_get_hammer(self):
        import threading

        cache = PlanCache(limit=4)
        predicates = [Comparison("x", ">", float(i)) for i in range(12)]
        errors: list[BaseException] = []
        barrier = threading.Barrier(8)

        def hammer(seed: int) -> None:
            rng = np.random.default_rng(seed)
            barrier.wait()
            try:
                for __ in range(400):
                    predicate = predicates[int(rng.integers(len(predicates)))]
                    plan = cache.get(predicate)
                    assert plan is not None
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(seed,)) for seed in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # The cache never exceeds its limit and its counters balance.
        assert len(cache) <= 4
        assert cache.hits + cache.misses == 8 * 400

    def test_hit_returns_same_plan_under_contention(self):
        import threading

        cache = PlanCache(limit=8)
        predicate = Comparison("x", ">", 1.0)
        canonical = cache.get(predicate)
        seen: list[object] = []
        barrier = threading.Barrier(6)

        def reader() -> None:
            barrier.wait()
            for __ in range(200):
                seen.append(cache.get(predicate))

        threads = [threading.Thread(target=reader) for __ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(plan is canonical for plan in seen)


class TestPersistedKeys:
    """Predicate ``repr``s, which older bundles persisted as plan keys."""

    def test_inset_repr_independent_of_value_order(self):
        # repr goes through label(), which sorts the frozenset — a
        # printed predicate must not depend on hash randomization.
        assert repr(InSet("c", ["b", "a", "z"])) == repr(
            InSet("c", ["z", "a", "b"])
        )


class TestHashOnce:
    """Queries and predicate nodes hash once; a cache lookup hashes its
    key once; copies and pickles hash afresh (string hashes are per
    process)."""

    def test_a_hit_hashes_its_key_once_and_no_node_again(self, monkeypatch):
        cache = PlanCache()
        predicate = And([Comparison("x", ">", 3.0), InSet("cat", {"a", "b"})])
        cache.get(predicate)
        calls = []
        for node in (And, Comparison, InSet):
            original = node.__hash__

            def spy(self, original=original):
                calls.append(type(self).__name__)
                return original(self)

            monkeypatch.setattr(node, "__hash__", spy)
        # An equal tree built afresh: hashes its nodes once, on first use.
        cache.get(And([Comparison("x", ">", 3.0), InSet("cat", {"b", "a"})]))
        assert sorted(calls) == ["And", "Comparison", "InSet"]
        calls.clear()
        assert cache.get(predicate) is cache.get(predicate)
        assert calls == ["And", "And"]
        assert cache.hits == 3 and cache.misses == 1

    def test_copies_and_pickles_drop_the_stored_hash(self):
        import copy
        import pickle

        query = Query([count_star()], PREDICATE, ("cat",))
        hash(query)
        assert "_hash" in vars(query) and "_hash" in vars(PREDICATE)
        for clone in (copy.deepcopy(query), pickle.loads(pickle.dumps(query))):
            assert "_hash" not in vars(clone)
            assert "_hash" not in vars(clone.predicate)
            assert clone == query and hash(clone) == hash(query)
