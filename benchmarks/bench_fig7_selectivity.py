"""Figure 7 — error breakdown by query selectivity (TPC-H*).

Paper: versus plain random sampling, PS3 helps most on *selective*
queries (selectivity < 0.2: the filter skips irrelevant partitions);
versus random+filter, PS3 helps most on *non-selective* queries
(selectivity > 0.8: importance + clustering must do the work).
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import emit, format_table
from repro.bench.runner import get_context
from repro.core.metrics import mean_report
from repro.workload.generator import QueryGenerator

BUCKETS = ((0.0, 0.2), (0.2, 0.8), (0.8, 1.01))


@pytest.fixture(scope="module")
def selectivity_breakdown(profile):
    ctx = get_context("tpch", profile=profile)
    # Widen the evaluation pool so every selectivity bucket is populated.
    generator = QueryGenerator(
        ctx.workload, ctx.ptable.table, seed=profile.seed + 77
    )
    extra = [
        ctx.prepare_query(q)
        for q in generator.sample_queries(2 * profile.test_queries)
    ]
    pool = ctx.prepared + extra
    budget = max(1, ctx.num_partitions // 10)

    methods = ctx.standard_methods()
    by_bucket: dict[tuple, dict[str, list]] = {b: {} for b in BUCKETS}
    for name in ("random", "random+filter", "ps3"):
        select_fn, runs = methods[name]
        for prepared in pool:
            bucket = next(
                b for b in BUCKETS if b[0] <= prepared.true_selectivity < b[1]
            )
            reports = [
                prepared.evaluate(_unwrap(select_fn(prepared.query, budget, run)))
                for run in range(runs)
            ]
            by_bucket[bucket].setdefault(name, []).extend(reports)
    return ctx, by_bucket


def _unwrap(selection):
    return selection.selection if hasattr(selection, "selection") else selection


def test_fig7_selectivity_breakdown(selectivity_breakdown, benchmark):
    ctx, by_bucket = selectivity_breakdown
    rows = []
    for bucket, methods in by_bucket.items():
        label = f"[{bucket[0]:.1f}, {min(bucket[1], 1.0):.1f})"
        row = [label, len(next(iter(methods.values()), []))]
        for name in ("random", "random+filter", "ps3"):
            reports = methods.get(name, [])
            row.append(
                mean_report(reports).avg_relative_error if reports else float("nan")
            )
        rows.append(row)
    emit(
        "fig7_selectivity_breakdown",
        format_table(
            ["selectivity", "#reports", "random", "random+filter", "ps3"],
            rows,
            title="Figure 7 / TPC-H* error by true query selectivity (10% budget)",
        ),
    )

    # Shape: on selective queries PS3 crushes plain random (filter wins).
    selective = by_bucket[BUCKETS[0]]
    if selective.get("random") and selective.get("ps3"):
        assert (
            mean_report(selective["ps3"]).avg_relative_error
            <= mean_report(selective["random"]).avg_relative_error
        )

    query = ctx.prepared[0].query
    budget = max(1, ctx.num_partitions // 10)
    # A cold pick per round: a fresh picker, since a repeat on one
    # picker is a memo hit.
    benchmark.pedantic(
        lambda picker: picker.select(query, budget),
        setup=lambda: ((ctx.ps3_picker(),), {}),
        rounds=20,
    )
