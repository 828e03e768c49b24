"""Feature-plane throughput: scalar vs vectorized featurization.

Times ``FeatureBuilder.features_for_query`` (the compile-once predicate
plan over the columnar sketch index) against the per-partition scalar
estimator loop — composed here from ``estimate_selectivity`` on top of
the same masked static features; production has no such path — across
growing partition counts,
over a mixed predicate workload (joint numeric ranges, OR trees, IN
sets, substring filters). Emits a text table plus
``BENCH_perf_feature_plane.json`` under ``benchmarks/results/`` so the
perf trajectory is tracked across PRs.

Run directly::

    PYTHONPATH=src python benchmarks/bench_perf_feature_plane.py

or via pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_feature_plane.py -q
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.bench.reporting import emit, format_table, results_dir
from repro.engine.aggregates import count_star, sum_of
from repro.engine.expressions import col
from repro.engine.layout import partition_evenly, sort_table
from repro.engine.predicates import And, Comparison, Contains, InSet, Not, Or
from repro.engine.query import Query
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table
from repro.sketches.builder import build_dataset_statistics
from repro.stats.features import NUM_SELECTIVITY, FeatureBuilder, QueryFeatures
from repro.stats.selectivity import estimate_selectivity

PARTITION_COUNTS = (64, 256, 1024)
ROWS_PER_PARTITION = 50
REPEATS = 5

SCHEMA = Schema.of(
    Column("x", ColumnKind.NUMERIC, positive=True),
    Column("y", ColumnKind.NUMERIC),
    Column("d", ColumnKind.DATE),
    Column("cat", ColumnKind.CATEGORICAL, low_cardinality=True),
    Column("tag", ColumnKind.CATEGORICAL),
)


def _queries() -> list[Query]:
    return [
        Query(
            [sum_of(col("x"))],
            And(
                [
                    Comparison("x", ">", 2.0),
                    Comparison("x", "<", 40.0),
                    Comparison("d", "<=", 180.0),
                ]
            ),
            group_by=("cat",),
        ),
        Query(
            [count_star()],
            Or([Comparison("y", "<", -4.0), Comparison("y", ">", 4.0)]),
        ),
        Query([count_star()], InSet("cat", {"a", "c"}), group_by=("cat",)),
        Query([sum_of(col("x"))], Contains("tag", "t01")),
        Query(
            [count_star()],
            Not(And([Comparison("x", ">", 1.0), InSet("cat", {"b"})])),
        ),
        Query(
            [sum_of(col("y"))],
            And([InSet("tag", {"t005", "t123"}), Comparison("d", ">=", 30.0)]),
        ),
    ]


def _build_builder(num_partitions: int, seed: int = 11) -> FeatureBuilder:
    rng = np.random.default_rng(seed)
    n = num_partitions * ROWS_PER_PARTITION
    table = Table(
        SCHEMA,
        {
            "x": rng.exponential(10.0, n) + 1.0,
            "y": rng.normal(0.0, 5.0, n),
            "d": rng.integers(0, 365, n),
            "cat": rng.choice(["a", "b", "c", "dd"], n, p=[0.55, 0.25, 0.15, 0.05]),
            "tag": rng.choice([f"t{i:03d}" for i in range(200)], n),
        },
    )
    ptable = partition_evenly(sort_table(table, "d"), num_partitions)
    return FeatureBuilder(build_dataset_statistics(ptable), ("cat", "d"))


def scalar_features(builder: FeatureBuilder, query: Query) -> QueryFeatures:
    """The reference: the same masked static block, then one
    ``estimate_selectivity`` walk per partition instead of the plan."""
    schema = builder.schema
    partitions = builder.dataset.partitions
    matrix = np.zeros((len(partitions), schema.dimension), dtype=np.float64)
    live = builder._live_columns(query)
    masked = live[:-NUM_SELECTIVITY]  # the static part of the mask
    matrix[:, masked] = builder.static_matrix[:, masked]
    block = schema.selectivity_slice()
    for p, partition in enumerate(partitions):
        matrix[p, block] = estimate_selectivity(query.predicate, partition).as_tuple()
    return QueryFeatures(schema=schema, query=query, matrix=matrix, live_columns=live)


def _time_path(builder: FeatureBuilder, queries: list[Query], featurize) -> float:
    """Best-of-REPEATS seconds to featurize the whole query workload."""
    timings = []
    for __ in range(REPEATS):
        started = time.perf_counter()
        for query in queries:
            featurize(builder, query)
        timings.append(time.perf_counter() - started)
    return min(timings)


def run() -> dict:
    queries = _queries()
    rows = []
    for num_partitions in PARTITION_COUNTS:
        builder = _build_builder(num_partitions)
        # Warm both paths (plan compilation, sketch caches) so the timed
        # runs measure steady-state featurization.
        _time_path(builder, queries, FeatureBuilder.features_for_query)
        scalar_s = _time_path(builder, queries, scalar_features)
        vectorized_s = _time_path(builder, queries, FeatureBuilder.features_for_query)
        rows.append(
            {
                "partitions": num_partitions,
                "queries": len(queries),
                "scalar_ms": scalar_s * 1e3,
                "vectorized_ms": vectorized_s * 1e3,
                "speedup": scalar_s / vectorized_s,
            }
        )
    report = {
        "benchmark": "perf_feature_plane",
        "rows_per_partition": ROWS_PER_PARTITION,
        "repeats": REPEATS,
        "results": rows,
    }
    (results_dir() / "BENCH_perf_feature_plane.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    emit(
        "perf_feature_plane",
        format_table(
            ["partitions", "scalar (ms)", "vectorized (ms)", "speedup"],
            [
                [
                    r["partitions"],
                    r["scalar_ms"],
                    r["vectorized_ms"],
                    f"{r['speedup']:.1f}x",
                ]
                for r in rows
            ],
            title="Featurization latency, 6-query workload (best of "
            f"{REPEATS})",
        ),
    )
    return report


def test_perf_feature_plane():
    report = run()
    by_partitions = {r["partitions"]: r for r in report["results"]}
    # The vectorized plan must never lose, and must win big at scale.
    for row in report["results"]:
        assert row["speedup"] > 1.0, row
    assert by_partitions[max(PARTITION_COUNTS)]["speedup"] >= 5.0


if __name__ == "__main__":
    run()
