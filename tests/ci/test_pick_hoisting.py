"""What a warm pick may not rebuild, counted rather than timed.

A pick depends on the query in three places only: the selectivity
estimates, the mask, and the candidates. Everything else is derived once
— the fused funnel forest per model, the normalized static feature block
and the per-column signature codes per table generation (caught up from
the appended partitions only) — and normalization, the funnel and
clustering see the query's live block (its live columns and one ``+0.0``
column), never the full feature width, whose matrix a pick never
composes. Spies on ``CompiledForest.fuse``,
``ColumnIndex.occurrence_matrix``, ``QueryFeatures.matrix``,
``Normalizer.transform``, ``importance_groups`` and ``KMeans.fit`` say so
without a clock. The spied picks run at a budget the warm-up did not
use, so they are picker memo misses that really pick; re-issuing a
warm-up pair is a hit that featurizes, scores and clusters nothing.
"""

from __future__ import annotations

import pytest

import repro.core.picker as picker_module
from repro.api import PS3
from repro.datasets.registry import get_dataset
from repro.ml.kmeans import KMeans
from repro.ml.tree import CompiledForest
from repro.sketches.columnar import ColumnIndex
from repro.stats.features import FeatureBuilder, QueryFeatures
from repro.stats.normalization import Normalizer
from repro.workload.generator import QueryGenerator

NUM_QUERIES = 50
BUDGET = 0.25
SPIED_BUDGET = 0.375  # 6 of 16 partitions; the warm-up picked 4


@pytest.fixture(scope="module")
def system_and_queries():
    spec = get_dataset("kdd")
    ptable = spec.build(3_200, 16, seed=4)
    workload = spec.workload()
    generator = QueryGenerator(workload, ptable.table, seed=8)
    system = PS3(ptable, workload).fit(generator.sample_queries(8))
    queries = generator.sample_queries(NUM_QUERIES)
    assert sum(bool(q.group_by) for q in queries) >= 10
    return system, queries, dict(spec.build(200, 1, seed=9).table.columns)


def test_warm_picks_rebuild_nothing_and_cluster_only_live_columns(
    system_and_queries, monkeypatch
):
    system, queries, appended_rows = system_and_queries
    builder = system.model.feature_builder
    dimension = builder.schema.dimension
    for query in queries:  # warm-up: the forest, the codes of every column
        system.query(query, budget_fraction=BUDGET)

    fused, occurrences, widths = [], [], []
    composed, transformed, funnelled = [], [], []
    fuse = CompiledForest.fuse.__func__
    occurrence_matrix = ColumnIndex.occurrence_matrix
    fit = KMeans.fit
    compose = QueryFeatures.matrix.func
    transform = Normalizer.transform
    importance_groups = picker_module.importance_groups

    def counting_fuse(cls, forests):
        fused.append(len(forests))
        return fuse(cls, forests)

    def counting_occurrence_matrix(self, values, start=0, stop=None):
        occurrences.append((self.name, start, stop))
        return occurrence_matrix(self, values, start, stop)

    def measuring_fit(self, X):
        widths.append(X.shape[1])
        return fit(self, X)

    def counting_compose(self):
        composed.append(self.query)
        return compose(self)

    def measuring_transform(self, block, live=None):
        transformed.append(block.shape[1])
        return transform(self, block, live)

    def measuring_groups(block, candidates, regressors, columns):
        funnelled.append(block.shape[1])
        return importance_groups(block, candidates, regressors, columns)

    monkeypatch.setattr(CompiledForest, "fuse", classmethod(counting_fuse))
    monkeypatch.setattr(ColumnIndex, "occurrence_matrix", counting_occurrence_matrix)
    monkeypatch.setattr(KMeans, "fit", measuring_fit)
    monkeypatch.setattr(QueryFeatures, "matrix", property(counting_compose))
    monkeypatch.setattr(Normalizer, "transform", measuring_transform)
    monkeypatch.setattr(picker_module, "importance_groups", measuring_groups)

    fits, transforms, funnels = 0, 0, 0
    for query in queries:
        live = builder.features_for_query(query).live_columns.size
        assert live < dimension / 2
        del widths[:], transformed[:], funnelled[:]
        system.query(query, budget_fraction=SPIED_BUDGET)
        assert all(width == live for width in widths), (widths, live)
        assert all(width <= live + 1 for width in transformed), (transformed, live)
        assert all(width == live + 1 for width in funnelled), (funnelled, live)
        fits += len(widths)
        transforms += len(transformed)
        funnels += len(funnelled)
    assert min(fits, transforms, funnels) >= NUM_QUERIES / 2  # the spies sat
    assert composed == []  # no pick built a full-width feature matrix
    assert fused == []
    assert occurrences == []

    # A warm-up pair again: a memo hit, no featurize, funnel or k-means.
    featurized = []
    features_for_query = FeatureBuilder.features_for_query

    def counting_features(self, query):
        featurized.append(query)
        return features_for_query(self, query)

    monkeypatch.setattr(FeatureBuilder, "features_for_query", counting_features)
    del widths[:], funnelled[:]
    for query in queries:
        system.query(query, budget_fraction=BUDGET)
    assert (featurized, funnelled, widths) == ([], [], [])

    # One append: bitmaps and signature codes of the new partition only,
    # and one normalization of the new generation's whole static block.
    before = system.ptable.num_partitions
    system.append(appended_rows)
    del transformed[:]
    for query in queries:
        system.query(query, budget_fraction=BUDGET)
    wide = [width for width in transformed if width > dimension / 2]
    assert wide == [builder.schema.selectivity_offset]
    assert composed == []
    assert fused == []
    assert occurrences
    assert {(start, stop) for __, start, stop in occurrences} == {(before, before + 1)}
    grouped = {c for q in queries for c in q.group_by}
    refreshed = len(builder.schema.groupby_columns)
    # ... the feature refresh asks once per bitmap column, the signature
    # codes once per column some query grouped by — and never again.
    assert refreshed < len(occurrences) <= refreshed + len(grouped)
