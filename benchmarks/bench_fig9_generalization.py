"""Figures 9 and 11 — generalization to unseen TPC-H queries.

Paper: PS3 trained on the random workload still beats uniform sampling on
average over 10 unseen TPC-H templates x 20 random variants; wins are
largest on queries with rare groups / outlying aggregates (Q1, Q6, Q7)
and smallest on the complex Q8; Q19's 21-clause predicate exercises the
clustering fallback. Figure 11 is the per-template breakdown.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.reporting import emit, format_table
from repro.bench.runner import get_context
from repro.workload.tpch_queries import TEMPLATES

VARIANTS_PER_TEMPLATE = 5
FRACTIONS = (0.1, 0.2, 0.4)


@pytest.fixture(scope="module")
def generalization(profile):
    ctx = get_context("tpch", profile=profile)
    budgets = [max(1, round(f * ctx.num_partitions)) for f in FRACTIONS]
    methods = ctx.standard_methods()
    per_template: dict[str, dict[str, dict[int, float]]] = {}
    for template in TEMPLATES:
        prepared = [
            ctx.prepare_query(q)
            for q in template.variants(VARIANTS_PER_TEMPLATE, seed=profile.seed)
        ]
        prepared = [p for p in prepared if p.truth]  # drop empty variants
        if not prepared:
            continue
        rows = {}
        for name in ("random+filter", "ps3"):
            select_fn, runs = methods[name]
            res = ctx.evaluate_method(select_fn, budgets, runs, queries=prepared)
            rows[name] = {b: res[b].avg_relative_error for b in budgets}
        per_template[template.name] = rows
    return ctx, budgets, per_template


def test_fig9_fig11_generalization(generalization, benchmark):
    ctx, budgets, per_template = generalization
    n = ctx.num_partitions

    # Figure 11: per-template breakdown.
    headers = ["template", "method"] + [f"{100 * b / n:.0f}%" for b in budgets]
    rows = []
    for template, methods in per_template.items():
        for name, errors in methods.items():
            rows.append([template, name] + [errors[b] for b in budgets])
    emit(
        "fig11_tpch_per_query",
        format_table(headers, rows, title="Figure 11 / unseen TPC-H templates"),
    )

    # Figure 9: average / worst / best template for PS3 relative to random.
    def auc(errors):
        return sum(errors[b] for b in budgets)

    ratios = {
        t: (auc(m["ps3"]) + 1e-12) / (auc(m["random+filter"]) + 1e-12)
        for t, m in per_template.items()
    }
    average = float(np.mean(list(ratios.values())))
    worst = max(ratios, key=ratios.get)
    best = min(ratios, key=ratios.get)
    emit(
        "fig9_generalization_summary",
        format_table(
            ["summary", "template", "ps3/random error ratio"],
            [
                ["average", "-", average],
                ["worst", worst, ratios[worst]],
                ["best", best, ratios[best]],
            ],
            title="Figure 9 / generalization to unseen TPC-H queries",
        ),
    )

    # Shape: on average PS3 is at least competitive with uniform sampling
    # despite the train/test domain gap, and clearly wins on its best
    # template.
    assert average <= 1.25
    assert ratios[best] < 0.9

    query = ctx.prepared[0].query
    budget = max(1, n // 10)
    # A cold pick per round: a fresh picker, since a repeat on one
    # picker is a memo hit.
    benchmark.pedantic(
        lambda picker: picker.select(query, budget),
        setup=lambda: ((ctx.ps3_picker(),), {}),
        rounds=20,
    )
