"""Golden digests of cold picks and their feature matrices.

Every pick here is a picker memo miss: each ``(query, budget)`` pair is
issued once per statistics generation, so the whole pick runs —
featurize, normalize, funnel, outliers, clustering. The digests hash
``features_for_query(q).matrix`` for every query and every field of
every ``PickerSelection`` on ``kdd`` at the repo benchmark's
``pick_heavy`` shape (many small partitions, one-shot queries), scaled
down to tier-1 cost, at three budgets, before and after one append. The
values were recorded from the commit before the live-subspace pick
(featurization, normalization and funnel scoring on the query's live
columns only) touched ``src/``. When the k-means fit became rng-free
(projection-quantile seeds, at most two Lloyd passes) the selections were
re-recorded; the feature digests did not move, since featurization does
not cluster.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import PS3, resolve_budget
from repro.datasets.registry import get_dataset
from repro.workload.generator import QueryGenerator

PARTITIONS, ROWS_PER_PARTITION, SEED = 64, 125, 30
TRAIN_QUERIES, PICKED_QUERIES = 16, 200
BUDGETS = (0.03, 0.10, 0.30)

#: sha256 digests before and after the append.
GOLDEN_FEATURES = (
    "0f9f67bf7d1d56aa070d6b02e834cbed09bec9daff5a23e66dae633b0081334a",
    "44594f685e301e969bc841af1be5c5e66811f817419a93fc2b377fb9200222c3",
)
GOLDEN_SELECTIONS = (
    "33ae54ceb3bd029d3d9d35e54fd5fa6ca9df153132d11692531a370d51b9bccc",
    "5013b9dc0d1bbb1dd9b9ed3bfb7722252c76f3d35195f3b2e421cc9129031807",
)


def feature_digest(builder, queries) -> str:
    """sha256 over each query's full-width feature matrix, in order."""
    digest = hashlib.sha256()
    for query in queries:
        matrix = builder.features_for_query(query).matrix
        digest.update(f"{matrix.dtype}:{matrix.shape}".encode())
        digest.update(np.ascontiguousarray(matrix).tobytes())
    return digest.hexdigest()


def selection_digest(system: PS3, queries) -> str:
    """sha256 over every field of every pick, query-major, budget-minor."""
    digest = hashlib.sha256()
    n = system.ptable.num_partitions
    for query in queries:
        for fraction in BUDGETS:
            picked = system.picker.select(query, resolve_budget(n, None, fraction))
            choices = [
                (int(c.partition), float(c.weight).hex()) for c in picked.selection
            ]
            fields = (
                choices,
                [int(p) for p in picked.outliers],
                [int(s) for s in picked.group_sizes],
                [int(b) for b in picked.group_budgets],
                bool(picked.used_clustering),
            )
            digest.update(repr(fields).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def system_and_queries():
    spec = get_dataset("kdd")
    ptable = spec.build(PARTITIONS * ROWS_PER_PARTITION, PARTITIONS, seed=SEED)
    workload = spec.workload()
    generator = QueryGenerator(workload, ptable.table, seed=SEED)
    train, queries = generator.train_test_split(TRAIN_QUERIES, PICKED_QUERIES)
    system = PS3(ptable, workload).fit(train)
    appended = dict(spec.build(ROWS_PER_PARTITION, 1, seed=SEED + 1).table.columns)
    return system, queries, appended


def test_cold_picks_and_features_equal_the_parents(system_and_queries):
    system, queries, appended = system_and_queries
    builder = system.model.feature_builder
    features = [feature_digest(builder, queries)]
    selections = [selection_digest(system, queries)]
    system.append(appended)
    features.append(feature_digest(builder, queries))
    selections.append(selection_digest(system, queries))
    assert tuple(features) == GOLDEN_FEATURES
    assert tuple(selections) == GOLDEN_SELECTIONS
