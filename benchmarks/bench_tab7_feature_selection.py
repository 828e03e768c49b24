"""Table 7 — feature-selection impact on clustering (AUC).

Paper: Algorithm 3's greedy family exclusion reduces the clustering AUC
by 0.5-15% for both HAC(ward) and KMeans on every dataset, and each
dataset ends up keeping a small but four-family-spanning feature subset
(Appendix B.1 lists the selections).
"""

from __future__ import annotations

import pytest

from repro.bench.pickers import HACErrorEvaluator
from repro.bench.reporting import emit, format_table
from repro.bench.runner import get_context
from repro.core.feature_selection import (
    ClusteringErrorEvaluator,
    greedy_feature_selection,
)

DATASETS = ("tpcds", "aria", "kdd")
EVALUATORS = {"hac-ward": HACErrorEvaluator, "kmeans": ClusteringErrorEvaluator}


@pytest.fixture(scope="module")
def selection_results(profile):
    out = {}
    for dataset in DATASETS:
        ctx = get_context(dataset, profile=profile)
        per_algo = {}
        for algorithm, evaluator_class in EVALUATORS.items():
            evaluator = evaluator_class(
                ctx.feature_builder.schema,
                ctx.training_data,
                budget_fractions=(0.1, 0.2),
                max_queries=12,
                seed=profile.seed,
            )
            baseline = evaluator.error(frozenset())
            excluded = greedy_feature_selection(
                ctx.feature_builder.schema, evaluator, rounds=2, seed=profile.seed
            )
            selected = evaluator.error(excluded)
            per_algo[algorithm] = (baseline, selected, excluded)
        out[dataset] = per_algo
    return out


def test_tab7_feature_selection(selection_results, benchmark, profile):
    rows = []
    for dataset, per_algo in selection_results.items():
        for algorithm, (baseline, selected, excluded) in per_algo.items():
            change = 100.0 * (selected - baseline) / baseline if baseline else 0.0
            rows.append([dataset, algorithm, baseline, selected, f"{change:+.0f}%"])
    emit(
        "tab7_feature_selection",
        format_table(
            ["dataset", "algorithm", "no selection", "+feat sel", "change"],
            rows,
            title="Table 7 / feature-selection impact on clustering error",
        ),
    )
    excluded_rows = [
        [dataset, algorithm, ", ".join(sorted(excluded)) or "(none)"]
        for dataset, per_algo in selection_results.items()
        for algorithm, (__, ___, excluded) in per_algo.items()
    ]
    emit(
        "tab7_excluded_families",
        format_table(
            ["dataset", "algorithm", "excluded families"],
            excluded_rows,
            title="Appendix B.1 / families excluded from clustering",
        ),
    )

    for dataset, per_algo in selection_results.items():
        for algorithm, (baseline, selected, __) in per_algo.items():
            # Greedy selection can only keep or improve the training error.
            assert selected <= baseline + 1e-12, (dataset, algorithm)

    ctx = get_context("kdd", profile=profile)
    evaluator = ClusteringErrorEvaluator(
        ctx.feature_builder.schema,
        ctx.training_data,
        budget_fractions=(0.2,),
        max_queries=4,
        seed=0,
    )
    benchmark(lambda: evaluator.error(frozenset({"min(x)"})))
