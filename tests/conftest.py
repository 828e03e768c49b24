"""Shared fixtures: small deterministic tables and a trained PS3 system.

The heavier fixtures (dataset statistics, trained models) are
session-scoped so the suite stays fast; they use a tiny TPC-H*-like table
(a few thousand rows, 16 partitions) which is plenty to exercise every
code path.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from dict_walk import estimate
from sketch_oracle import estimate_selectivity, oracle_dataset

from repro.api import PS3
from repro.core.metrics import evaluate_errors
from repro.datasets.registry import get_dataset
from repro.engine.batch_executor import QueryAnswerBlock
from repro.engine.combiner import WeightedChoice
from repro.engine.layout import partition_evenly, sort_table
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table
from repro.sketches.builder import build_dataset_statistics
from repro.stats.features import NUM_SELECTIVITY, FeatureBuilder, QueryFeatures
from repro.workload.generator import QueryGenerator


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_schema() -> Schema:
    return Schema.of(
        Column("x", ColumnKind.NUMERIC, positive=True),
        Column("y", ColumnKind.NUMERIC),
        Column("d", ColumnKind.DATE),
        Column("cat", ColumnKind.CATEGORICAL, low_cardinality=True),
        Column("tag", ColumnKind.CATEGORICAL),
    )


@pytest.fixture(scope="session")
def tiny_table(tiny_schema) -> Table:
    """1200 rows, deterministic, with skew on `cat` and order on `d`."""
    gen = np.random.default_rng(7)
    n = 1200
    return Table(
        tiny_schema,
        {
            "x": gen.exponential(10.0, n) + 1.0,
            "y": gen.normal(0.0, 5.0, n),
            "d": gen.integers(0, 100, n),
            "cat": gen.choice(["a", "b", "c", "dd"], n, p=[0.55, 0.25, 0.15, 0.05]),
            "tag": gen.choice([f"t{i:03d}" for i in range(300)], n),
        },
    )


@pytest.fixture(scope="session")
def tiny_ptable(tiny_table):
    """The tiny table sorted by date and split into 12 partitions."""
    return partition_evenly(sort_table(tiny_table, "d"), 12)


@pytest.fixture(scope="session")
def tiny_stats(tiny_ptable):
    return build_dataset_statistics(tiny_ptable)


@pytest.fixture(scope="session")
def tiny_oracle(tiny_ptable):
    """The tiny table's per-partition sketch objects (the scalar oracle)."""
    return oracle_dataset(tiny_ptable)


@pytest.fixture(scope="session")
def tiny_feature_builder(tiny_stats):
    return FeatureBuilder(tiny_stats, ("cat", "d"))


@pytest.fixture(scope="session")
def tpch_ptable():
    """A small TPC-H* instance shared by integration-level tests."""
    return get_dataset("tpch").build(12_000, 32, seed=3)


@pytest.fixture(scope="session")
def tpch_workload():
    return get_dataset("tpch").workload()


@pytest.fixture(scope="session")
def tpch_queries(tpch_ptable, tpch_workload):
    generator = QueryGenerator(tpch_workload, tpch_ptable.table, seed=11)
    return generator.train_test_split(24, 8)


@pytest.fixture(scope="session")
def trained_ps3(tpch_ptable, tpch_workload, tpch_queries):
    """A fully trained PS3 system (session-scoped: training is the cost)."""
    train, __ = tpch_queries
    return PS3(tpch_ptable, tpch_workload).fit(train)


# -- reference compositions (production has no such path) --------------------


def _block_from_answers(query, partition_answers) -> QueryAnswerBlock:
    """Compact plain per-partition ``ComponentAnswer`` dicts into a block.

    Keys are sorted into canonical code order; within a partition each
    group contributes a single segment, so the per-group combine chains
    are unaffected by the source dicts' iteration order.
    """
    keys = sorted({key for answer in partition_answers for key in answer})
    code = {key: g for g, key in enumerate(keys)}
    live, totals = [], []
    for p, answer in enumerate(partition_answers):
        for key in sorted(answer):
            live.append(p * len(keys) + code[key])
            totals.append(answer[key])
    return QueryAnswerBlock(
        query,
        keys,
        np.asarray(live, dtype=np.intp),
        np.asarray(totals, dtype=np.float64).reshape(-1, query.num_components),
        len(partition_answers),
    )


def _scalar_features(builder: FeatureBuilder, query, oracle) -> QueryFeatures:
    """``builder.features_for_query(query)`` with the selectivity block
    recomputed by the scalar oracle: one ``estimate_selectivity`` AST
    walk per partition against the sketch objects of ``oracle`` (a
    ``sketch_oracle.OracleDataset`` of the builder's table)."""
    # Through the class: a test may have shadowed the builder's own method
    # with this composition to drive a whole pick on the oracle.
    features = FeatureBuilder.features_for_query(builder, query)
    estimates = [
        dataclasses.astuple(estimate_selectivity(query.predicate, partition))
        for partition in oracle.partitions
    ]
    # The block every reader reads: a pick reads ``selectivity`` and
    # ``.matrix`` is composed from it, so both hold the oracle's values.
    selectivity = np.array(estimates, dtype=np.float64).reshape(-1, NUM_SELECTIVITY)
    return dataclasses.replace(features, selectivity=selectivity)


class _DictOracleEstimator:
    """``BlockEstimator``'s scoring surface on the dict walk: the exact
    answer once (every partition at weight 1), then ``combiner.estimate``
    + ``evaluate_errors`` one candidate at a time."""

    def __init__(self, answers) -> None:
        self.query, self.answers = answers.query, answers
        everything = [WeightedChoice(p, 1.0) for p in range(len(answers))]
        self.truth = estimate(self.query, answers, everything)

    def score_grid(self, selections):
        return [
            evaluate_errors(self.truth, estimate(self.query, self.answers, s))
            for s in selections
        ]


@pytest.fixture(scope="session")
def dict_oracle_estimator():
    """A drop-in for ``BlockEstimator`` in a sweep (monkeypatch it in)."""
    return _DictOracleEstimator


@pytest.fixture(scope="session")
def block_from_answers():
    """``block_from_answers(query, dict_list) -> QueryAnswerBlock``."""
    return _block_from_answers


@pytest.fixture(scope="session")
def scalar_features():
    """``scalar_features(builder, query, oracle) -> QueryFeatures``."""
    return _scalar_features
