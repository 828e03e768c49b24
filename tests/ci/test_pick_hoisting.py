"""What a warm pick may not rebuild, counted rather than timed.

A pick depends on the query in three places only: the selectivity
estimates, the mask, and the candidates. Everything else is derived once
— the fused funnel forest per model, the per-column signature codes per
table generation (caught up from the appended partitions only) — and
clustering sees the query's live columns, never the full feature width.
Spies on ``CompiledForest.fuse``, ``ColumnIndex.occurrence_matrix`` and
``KMeans.fit`` say so without a clock. The spied picks run at a budget
the warm-up did not use, so they are picker memo misses that really
pick; re-issuing a warm-up pair is a hit that featurizes, scores and
clusters nothing.
"""

from __future__ import annotations

import pytest

import repro.core.picker as picker_module
from repro.api import PS3
from repro.datasets.registry import get_dataset
from repro.ml.kmeans import KMeans
from repro.ml.tree import CompiledForest
from repro.sketches.columnar import ColumnIndex
from repro.stats.features import FeatureBuilder
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
    fuse = CompiledForest.fuse.__func__
    occurrence_matrix = ColumnIndex.occurrence_matrix
    fit = KMeans.fit

    def counting_fuse(cls, forests):
        fused.append(len(forests))
        return fuse(cls, forests)

    def counting_occurrence_matrix(self, values, start=0, stop=None):
        occurrences.append((self.name, start, stop))
        return occurrence_matrix(self, values, start, stop)

    def measuring_fit(self, X):
        widths.append(X.shape[1])
        return fit(self, X)

    monkeypatch.setattr(CompiledForest, "fuse", classmethod(counting_fuse))
    monkeypatch.setattr(ColumnIndex, "occurrence_matrix", counting_occurrence_matrix)
    monkeypatch.setattr(KMeans, "fit", measuring_fit)

    fits = 0
    for query in queries:
        live = builder.features_for_query(query).live_columns.size
        assert live < dimension / 2
        del widths[:]
        system.query(query, budget_fraction=SPIED_BUDGET)
        assert all(width == live for width in widths), (widths, live)
        fits += len(widths)
    assert fits >= NUM_QUERIES / 2  # the spy sat on the path
    assert fused == []
    assert occurrences == []

    # A warm-up pair again: a memo hit, no featurize, funnel or k-means.
    featurized, funnelled = [], []
    features_for_query = FeatureBuilder.features_for_query
    importance_groups = picker_module.importance_groups

    def counting_features(self, query):
        featurized.append(query)
        return features_for_query(self, query)

    def counting_groups(*args, **kwargs):
        funnelled.append(args)
        return importance_groups(*args, **kwargs)

    monkeypatch.setattr(FeatureBuilder, "features_for_query", counting_features)
    monkeypatch.setattr(picker_module, "importance_groups", counting_groups)
    del widths[:]
    for query in queries:
        system.query(query, budget_fraction=BUDGET)
    assert (featurized, funnelled, widths) == ([], [], [])

    # One append: bitmaps and signature codes of the new partition only.
    before = system.ptable.num_partitions
    system.append(appended_rows)
    for query in queries:
        system.query(query, budget_fraction=BUDGET)
    assert fused == []
    assert occurrences
    assert {(start, stop) for __, start, stop in occurrences} == {(before, before + 1)}
    grouped = {c for q in queries for c in q.group_by}
    refreshed = len(builder.schema.groupby_columns)
    # ... the feature refresh asks once per bitmap column, the signature
    # codes once per column some query grouped by — and never again.
    assert refreshed < len(occurrences) <= refreshed + len(grouped)
