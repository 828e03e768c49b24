"""Unit tests for the feature schema and builder (paper Table 2)."""

import numpy as np
import pytest

from repro.engine.aggregates import count_star, sum_of
from repro.engine.expressions import col
from repro.engine.predicates import Comparison, InSet
from repro.engine.query import Query
from repro.stats.features import NUM_SELECTIVITY, NUM_STATS, FeatureSchema


class TestFeatureSchema:
    def test_dimension_formula(self, tiny_feature_builder):
        schema = tiny_feature_builder.schema
        num_columns = len(schema.columns)
        bitmap_bits = sum(schema.bitmap_widths.values())
        assert schema.dimension == (
            num_columns * NUM_STATS + bitmap_bits + NUM_SELECTIVITY
        )

    def test_selectivity_upper_is_first_selectivity_slot(self, tiny_feature_builder):
        schema = tiny_feature_builder.schema
        info = schema.features[schema.selectivity_upper_index]
        assert info.name == "selectivity_upper"

    def test_every_feature_categorized(self, tiny_feature_builder):
        categories = {"measure", "dv", "hh", "selectivity"}
        for info in tiny_feature_builder.schema.features:
            assert info.category in categories

    def test_families_cover_paper_listing(self, tiny_feature_builder):
        families = set(tiny_feature_builder.schema.families())
        # Algorithm 3's feature list (Appendix B.1).
        for expected in (
            "x", "x2", "std", "min(x)", "max(x)",
            "log(x)", "log2(x)", "min(log(x))", "max(log(x))",
            "# dv", "avg dv", "max dv", "min dv", "sum dv",
            "# hh", "avg hh", "max hh", "hh bitmap",
            "selectivity_upper",
        ):
            assert expected in families, expected


class TestStaticFeatures:
    def test_categorical_columns_have_zero_measures(self, tiny_feature_builder):
        schema = tiny_feature_builder.schema
        static = tiny_feature_builder.static_matrix
        block = schema.stat_slice("cat")
        measures = static[:, block][:, :9]  # first 9 stats are measures
        assert np.all(measures == 0.0)

    def test_numeric_stats_match_sketches(self, tiny_feature_builder, tiny_oracle):
        schema = tiny_feature_builder.schema
        static = tiny_feature_builder.static_matrix
        block = schema.stat_slice("x")
        sketch = tiny_oracle.partitions[3].columns["x"].measures
        assert static[3, block.start] == pytest.approx(sketch.mean)
        assert static[3, block.start + 4] == pytest.approx(sketch.max_value())

    def test_bitmap_block_is_binary(self, tiny_feature_builder):
        schema = tiny_feature_builder.schema
        static = tiny_feature_builder.static_matrix
        block = schema.bitmap_slice("cat")
        bits = static[:, block]
        assert np.all((bits == 0.0) | (bits == 1.0))


class TestQueryMasking:
    def test_unused_columns_zeroed(self, tiny_feature_builder):
        query = Query([sum_of(col("x"))], Comparison("x", ">", 0.0))
        features = tiny_feature_builder.features_for_query(query)
        schema = features.schema
        assert np.all(features.matrix[:, schema.stat_slice("y")] == 0.0)
        assert np.any(features.matrix[:, schema.stat_slice("x")] != 0.0)

    def test_bitmaps_only_for_groupby_columns(self, tiny_feature_builder):
        no_group = tiny_feature_builder.features_for_query(
            Query([count_star()], InSet("cat", {"a"}))
        )
        schema = no_group.schema
        assert np.all(no_group.matrix[:, schema.bitmap_slice("cat")] == 0.0)
        grouped = tiny_feature_builder.features_for_query(
            Query([count_star()], group_by=("cat",))
        )
        assert np.any(grouped.matrix[:, schema.bitmap_slice("cat")] != 0.0)

    def test_selectivity_features_always_present(self, tiny_feature_builder):
        query = Query([count_star()])
        features = tiny_feature_builder.features_for_query(query)
        sel = features.matrix[:, features.schema.selectivity_slice()]
        assert np.all(sel == 1.0)  # no predicate -> selectivity 1 everywhere

    def test_passing_partitions_filters(self, tiny_feature_builder, tiny_ptable):
        # d < 0 matches nothing anywhere.
        query = Query([count_star()], Comparison("d", "<", -1.0))
        features = tiny_feature_builder.features_for_query(query)
        assert features.passing_partitions().size == 0
        # d < 10 matches only early partitions under the d-sorted layout.
        query = Query([count_star()], Comparison("d", "<", 10.0))
        features = tiny_feature_builder.features_for_query(query)
        passing = features.passing_partitions()
        assert 0 < passing.size < tiny_ptable.num_partitions

    def test_same_schema_across_queries(self, tiny_feature_builder):
        q1 = tiny_feature_builder.features_for_query(Query([count_star()]))
        q2 = tiny_feature_builder.features_for_query(
            Query([sum_of(col("x"))], group_by=("cat",))
        )
        assert q1.matrix.shape == q2.matrix.shape


class TestFeatureSchemaStandalone:
    def test_bitmap_slice_width(self):
        schema = FeatureSchema(
            columns=("a",), groupby_columns=("a",), bitmap_widths={"a": 3}
        )
        block = schema.bitmap_slice("a")
        assert block.stop - block.start == 3

    def test_zero_width_bitmap(self):
        schema = FeatureSchema(
            columns=("a",), groupby_columns=("a",), bitmap_widths={"a": 0}
        )
        block = schema.bitmap_slice("a")
        assert block.stop == block.start
