"""Unit tests for the vectorized feature plane.

Covers the compile-once plan + columnar index against the scalar oracle
on fixed queries (the ``scalar_features`` composition of
``tests/conftest.py``), the FeatureBuilder rewiring (plan cache),
incremental refresh after appends, the index-backed
occurrence bitmaps, and the sketch-level frequency caches.
"""

import numpy as np
import pytest
from sketch_oracle import occurrence_bitmaps, oracle_dataset

from repro.engine.aggregates import count_star, sum_of
from repro.engine.expressions import col
from repro.engine.layout import partition_evenly, sort_table
from repro.engine.predicates import And, Comparison, Contains, InSet, Not, Or
from repro.engine.query import Query
from repro.errors import QueryScopeError
from repro.sketches.builder import (
    append_partition_statistics,
    build_dataset_statistics,
)
from repro.sketches.exact_dict import ExactDictionary
from repro.sketches.heavy_hitter import HeavyHitterSketch
from repro.stats.features import FeatureBuilder
from repro.stats.plan import PredicatePlan

PREDICATES = (
    None,
    Comparison("x", ">", 5.0),
    Comparison("d", "!=", 10.0),
    And([Comparison("x", ">", 2.0), Comparison("x", "<", 30.0)]),
    And([Comparison("x", "==", 5.0), Comparison("x", "==", 6.0)]),
    Or([Comparison("y", "<", -5.0), Comparison("y", ">", 5.0)]),
    InSet("cat", {"a", "dd", "missing"}),
    InSet("tag", {"t001", "t250"}),
    Contains("cat", "d"),
    Contains("tag", "t0"),
    Not(And([Comparison("x", ">", 1.0), InSet("cat", {"b"})])),
)


class TestPlanAgainstScalar:
    @pytest.mark.parametrize("predicate", PREDICATES, ids=str)
    def test_features_match_scalar_path(
        self, tiny_feature_builder, tiny_oracle, scalar_features, predicate
    ):
        query = Query([count_star()], predicate)
        vectorized = tiny_feature_builder.features_for_query(query)
        scalar = scalar_features(tiny_feature_builder, query, tiny_oracle)
        np.testing.assert_array_equal(vectorized.matrix, scalar.matrix)

    def test_no_predicate_yields_full_selectivity(self, tiny_feature_builder):
        features = tiny_feature_builder.features_for_query(Query([count_star()]))
        sel = features.matrix[:, features.schema.selectivity_slice()]
        assert np.all(sel == 1.0)

    def test_unknown_column_raises(self, tiny_stats):
        index = tiny_stats.index
        plan = PredicatePlan.compile(Comparison("nope", ">", 1.0))
        with pytest.raises(QueryScopeError, match="nope"):
            plan.evaluate(index)

    def test_plan_is_compiled_once_per_predicate(self, tiny_feature_builder):
        predicate = Comparison("x", ">", 3.0)
        first = tiny_feature_builder._plan_for(predicate)
        again = tiny_feature_builder._plan_for(predicate)
        assert first is again

    def test_plan_ops_are_partition_count_independent(self):
        predicate = And(
            [Comparison("x", ">", 1.0), Comparison("x", "<", 9.0), InSet("cat", {"a"})]
        )
        plan = PredicatePlan.compile(predicate)
        # One joint interval + one InSet leaf + the AND combiner.
        assert len(plan.ops) == 3


class TestIndexBackedStatics:
    def test_occurrence_matrix_matches_bitmaps(self, tiny_stats, tiny_oracle):
        index = tiny_stats.index
        for name in ("cat", "d"):
            hitters = tiny_stats.global_heavy_hitters.get(name, ())
            expected = occurrence_bitmaps(tiny_oracle, name)
            np.testing.assert_array_equal(
                index.columns[name].occurrence_matrix(hitters), expected
            )

    def test_static_block_matches_column_stats(self, tiny_feature_builder, tiny_stats):
        index = tiny_feature_builder.sketch_index
        assert index.num_partitions == tiny_stats.num_partitions
        block = tiny_feature_builder.schema.stat_slice("x")
        np.testing.assert_array_equal(
            tiny_feature_builder.static_matrix[:, block],
            index.columns["x"].stats,
        )


class TestIncrementalRefresh:
    @pytest.fixture
    def growable(self, tiny_table):
        ptable = partition_evenly(sort_table(tiny_table, "d"), 8)
        dataset = build_dataset_statistics(ptable)
        builder = FeatureBuilder(dataset, ("cat", "d"))
        return ptable, dataset, builder

    def test_refresh_appends_rows_only(self, growable, tiny_table):
        ptable, dataset, builder = growable
        before = builder.static_matrix.copy()
        extra = partition_evenly(tiny_table, 12)
        for source in (extra[0], extra[5]):
            append_partition_statistics(dataset, source)
        builder.refresh()
        assert builder.static_matrix.shape[0] == before.shape[0] + 2
        np.testing.assert_array_equal(
            builder.static_matrix[: before.shape[0]], before
        )
        # The appended rows must match what a from-scratch builder computes.
        fresh = FeatureBuilder(dataset, ("cat", "d"))
        np.testing.assert_allclose(
            builder.static_matrix, fresh.static_matrix, rtol=0.0, atol=1e-12
        )

    def test_selectivity_covers_appended_partitions(
        self, growable, tiny_table, scalar_features
    ):
        ptable, dataset, builder = growable
        extra = partition_evenly(tiny_table, 12)[3]
        append_partition_statistics(dataset, extra)
        builder.refresh()
        oracle = oracle_dataset(ptable)
        oracle.append(extra)
        query = Query([sum_of(col("x"))], Comparison("x", ">", 0.0))
        vectorized = builder.features_for_query(query)
        scalar = scalar_features(builder, query, oracle)
        assert vectorized.matrix.shape[0] == dataset.num_partitions
        np.testing.assert_allclose(
            vectorized.matrix, scalar.matrix, rtol=0.0, atol=1e-12
        )

    def test_refresh_without_appends_is_a_noop(self, growable):
        __, ___, builder = growable
        static = builder.static_matrix
        builder.refresh()
        assert builder.static_matrix is static


class TestSketchCaches:
    def test_heavy_hitter_frequencies_cached_and_invalidated(self):
        sketch = HeavyHitterSketch.build(
            np.array(["a"] * 60 + ["b"] * 30 + ["c"] * 10), support=0.05
        )
        first = sketch.frequencies()
        assert sketch.frequencies() is first
        sketch.update(np.array(["b"] * 40))
        assert sketch.frequencies() is not first
        assert sketch.frequencies()["b"] == pytest.approx(0.5)

    def test_heavy_hitter_merge_invalidates(self):
        left = HeavyHitterSketch.build(np.array(["a"] * 50), support=0.05)
        right = HeavyHitterSketch.build(np.array(["b"] * 50), support=0.05)
        stale = left.frequencies()
        left.merge(right)
        assert left.frequencies() is not stale
        assert left.frequencies()["a"] == pytest.approx(0.5)

    def test_exact_dict_fractions_cached_and_invalidated(self):
        dictionary = ExactDictionary.build(np.array(["x"] * 3 + ["y"] * 1))
        first = dictionary.fractions()
        assert dictionary.fractions() is first
        assert dictionary.fraction_eq("x") == pytest.approx(0.75)
        dictionary.update(np.array(["y"] * 4))
        assert dictionary.fractions() is not first
        assert dictionary.fraction_eq("y") == pytest.approx(5 / 8)
