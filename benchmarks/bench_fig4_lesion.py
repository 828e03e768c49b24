"""Figure 4 — lesion study and factor analysis on Aria.

Paper (top): removing any one component (clustering / outliers /
regressors) from PS3 increases error, so each is necessary. Paper
(bottom): starting from random, the selectivity filter strictly helps;
enabling single components on top of the filter shows clustering
contributes the most and outliers the least individually.
"""

from __future__ import annotations

import pytest

from repro.bench.pickers import (
    ClusteringOnly,
    NoClustering,
    NoOutliers,
    NoRegressors,
    OutliersOnly,
    RegressorsOnly,
)
from repro.bench.reporting import emit, format_table
from repro.bench.runner import get_context
from repro.core.picker import PickerConfig, PS3Picker

LESIONS = {
    "ps3": PS3Picker,
    "w/o cluster": NoClustering,
    "w/o outlier": NoOutliers,
    "w/o regressor": NoRegressors,
}
FACTORS = {
    "+outlier": OutliersOnly,
    "+regressor": RegressorsOnly,
    "+cluster": ClusteringOnly,
}


@pytest.fixture(scope="module")
def lesion_results(profile):
    ctx = get_context("aria", profile=profile)
    budgets = profile.budgets()
    results = {}
    for name, variant in LESIONS.items():
        picker = variant(ctx.model, PickerConfig(seed=profile.seed))
        results[name] = ctx.evaluate_method(
            lambda q, n, run, p=picker: p.select(q, n), budgets
        )
    return ctx, budgets, results


@pytest.fixture(scope="module")
def factor_results(profile):
    ctx = get_context("aria", profile=profile)
    budgets = profile.budgets()
    results = {}
    random_fn, runs = ctx.standard_methods()["random"]
    results["random"] = ctx.evaluate_method(random_fn, budgets, runs)
    filtered_fn, runs = ctx.standard_methods()["random+filter"]
    results["+filter"] = ctx.evaluate_method(filtered_fn, budgets, runs)
    for name, variant in FACTORS.items():
        picker = variant(ctx.model, PickerConfig(seed=profile.seed))
        results[name] = ctx.evaluate_method(
            lambda q, n, run, p=picker: p.select(q, n), budgets
        )
    return budgets, results


def _table(name, title, budgets, results, n):
    headers = ["variant"] + [f"{100 * b / n:.0f}%" for b in budgets]
    rows = [
        [variant] + [res[b].avg_relative_error for b in budgets]
        for variant, res in results.items()
    ]
    emit(name, format_table(headers, rows, title=title))


def test_fig4_lesion_study(lesion_results, benchmark, profile):
    ctx, budgets, results = lesion_results
    _table(
        "fig4_lesion",
        "Figure 4 (top) / Aria lesion study (avg rel err)",
        budgets,
        results,
        ctx.num_partitions,
    )
    # Each lesion must not *improve* on the full system on average
    # (small-sample noise allowed at single budgets).
    full_auc = sum(results["ps3"][b].avg_relative_error for b in budgets)
    for name in ("w/o cluster", "w/o outlier", "w/o regressor"):
        lesion_auc = sum(results[name][b].avg_relative_error for b in budgets)
        assert lesion_auc >= full_auc * 0.85, name

    query = ctx.prepared[0].query
    budget = max(1, ctx.num_partitions // 10)
    # A cold pick per round: a fresh picker, since a repeat on one
    # picker is a memo hit.
    benchmark.pedantic(
        lambda picker: picker.select(query, budget),
        setup=lambda: ((ctx.ps3_picker(),), {}),
        rounds=20,
    )


def test_fig4_factor_analysis(factor_results, lesion_results, benchmark):
    ctx, __, ___ = lesion_results
    budgets, results = factor_results
    _table(
        "fig4_factor",
        "Figure 4 (bottom) / Aria factor analysis (avg rel err)",
        budgets,
        results,
        ctx.num_partitions,
    )
    # Paper shape: the filter does not hurt; clustering is the strongest
    # individual factor.
    random_auc = sum(results["random"][b].avg_relative_error for b in budgets)
    filter_auc = sum(results["+filter"][b].avg_relative_error for b in budgets)
    cluster_auc = sum(results["+cluster"][b].avg_relative_error for b in budgets)
    assert filter_auc <= random_auc * 1.1
    assert cluster_auc <= filter_auc * 1.1

    benchmark(lambda: sum(results["+cluster"][b].avg_relative_error for b in budgets))
