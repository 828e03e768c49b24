"""Training-loop answer computation: scalar loop vs batch executor.

Times full-table per-partition answers both ways — the scalar reference
(the per-partition ``execute_on_partition`` Python loop, called directly)
vs ``BatchExecutor.partition_answers``'s fused one-pass evaluation —
across growing partition counts, over a mixed training-style workload
(predicates, multi-column group-bys, SUM/COUNT/AVG components, an
ungrouped global aggregate). Emits a text table plus
``BENCH_perf_batch_executor.json`` under ``benchmarks/results/`` so the
perf trajectory is tracked across PRs.

Run directly::

    PYTHONPATH=src python benchmarks/bench_perf_batch_executor.py

or via pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_batch_executor.py -q
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.bench.reporting import emit, format_table, results_dir
from repro.engine.aggregates import avg_of, count_star, sum_of
from repro.engine.batch_executor import BatchExecutor
from repro.engine.executor import execute_on_partition
from repro.engine.expressions import col
from repro.engine.layout import partition_evenly, sort_table
from repro.engine.predicates import And, Comparison, Contains, InSet, Not, Or
from repro.engine.query import Query
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table

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
            [sum_of(col("x")), count_star()],
            And([Comparison("x", ">", 2.0), Comparison("d", "<=", 180.0)]),
            group_by=("cat",),
        ),
        Query(
            [avg_of(col("y"))],
            Or([Comparison("y", "<", -4.0), Comparison("y", ">", 4.0)]),
            group_by=("cat", "d"),
        ),
        Query([count_star()], InSet("cat", {"a", "c"}), group_by=("cat",)),
        Query([sum_of(col("x") + col("y"))], Contains("tag", "t01")),
        Query(
            [count_star(), sum_of(col("x"))],
            Not(And([Comparison("x", ">", 1.0), InSet("cat", {"b"})])),
            group_by=("d",),
        ),
        Query([sum_of(col("y")), avg_of(col("x"))]),
    ]


def _build_ptable(num_partitions: int, seed: int = 11):
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
    return partition_evenly(sort_table(table, "d"), num_partitions)


def _scalar(ptable, query: Query) -> list:
    return [execute_on_partition(p, query) for p in ptable]


def _batch(ptable, query: Query) -> list:
    return BatchExecutor.for_table(ptable).partition_answers(query)


def _time_path(ptable, queries: list[Query], answer) -> float:
    """Best-of-REPEATS seconds to answer the whole query workload."""
    timings = []
    for __ in range(REPEATS):
        started = time.perf_counter()
        for query in queries:
            answer(ptable, query)
        timings.append(time.perf_counter() - started)
    return min(timings)


def run() -> dict:
    queries = _queries()
    rows = []
    for num_partitions in PARTITION_COUNTS:
        ptable = _build_ptable(num_partitions)
        # Warm both paths (fused-view build, allocator) so the timed runs
        # measure steady-state answer computation.
        _time_path(ptable, queries, _batch)
        scalar_s = _time_path(ptable, queries, _scalar)
        batch_s = _time_path(ptable, queries, _batch)
        rows.append(
            {
                "partitions": num_partitions,
                "queries": len(queries),
                "scalar_ms": scalar_s * 1e3,
                "batch_ms": batch_s * 1e3,
                "speedup": scalar_s / batch_s,
            }
        )
    report = {
        "benchmark": "perf_batch_executor",
        "rows_per_partition": ROWS_PER_PARTITION,
        "repeats": REPEATS,
        "results": rows,
    }
    (results_dir() / "BENCH_perf_batch_executor.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    emit(
        "perf_batch_executor",
        format_table(
            ["partitions", "scalar (ms)", "batch (ms)", "speedup"],
            [
                [
                    r["partitions"],
                    r["scalar_ms"],
                    r["batch_ms"],
                    f"{r['speedup']:.1f}x",
                ]
                for r in rows
            ],
            title="Per-partition answer computation, 6-query workload "
            f"(best of {REPEATS})",
        ),
    )
    return report


def test_perf_batch_executor():
    report = run()
    # The batch path must never lose, and must clear the 5x acceptance
    # bar from 256 partitions up.
    for row in report["results"]:
        assert row["speedup"] > 1.0, row
        if row["partitions"] >= 256:
            assert row["speedup"] >= 5.0, row


if __name__ == "__main__":
    run()
