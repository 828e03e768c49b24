"""Table 6 — clustering-algorithm choice (AUC of avg rel error).

Paper: HAC with ward linkage and KMeans produce near-identical areas
under the error curve, while single linkage is clearly worse (it chains,
producing one giant cluster plus singletons). Evaluated on the
clustering-only picker (regressors and outliers disabled) so the
clustering choice is isolated.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import emit, format_table
from repro.bench.runner import get_context
from repro.core.picker import PickerConfig

DATASETS = ("tpcds", "aria", "kdd")
ALGORITHMS = ("hac-single", "hac-ward", "kmeans")


@pytest.fixture(scope="module")
def clustering_auc(profile):
    out = {}
    for dataset in DATASETS:
        ctx = get_context(dataset, profile=profile)
        budgets = profile.budgets()
        per_algo = {}
        for algorithm in ALGORITHMS:
            picker = ctx.ps3_picker(
                PickerConfig(
                    seed=profile.seed,
                    clustering_algorithm=algorithm,
                    use_regressors=False,
                    use_outliers=False,
                )
            )
            results = ctx.evaluate_method(
                lambda q, n, run, p=picker: p.select(q, n), budgets
            )
            per_algo[algorithm] = sum(
                results[b].avg_relative_error for b in budgets
            )
        out[dataset] = per_algo
    return out


def test_tab6_clustering_algorithms(clustering_auc, benchmark, profile):
    rows = [
        [dataset] + [clustering_auc[dataset][a] for a in ALGORITHMS]
        for dataset in DATASETS
    ]
    emit(
        "tab6_clustering_auc",
        format_table(
            ["dataset", "HAC(single)", "HAC(ward)", "KMeans"],
            rows,
            title="Table 6 / clustering AUC (smaller is better)",
        ),
    )

    for dataset in DATASETS:
        auc = clustering_auc[dataset]
        # Paper shape: ward and kmeans are close; single is not better
        # than the best of the two.
        best_pair = min(auc["hac-ward"], auc["kmeans"])
        worst_pair = max(auc["hac-ward"], auc["kmeans"])
        assert worst_pair <= best_pair * 1.6, dataset
        assert auc["hac-single"] >= best_pair * 0.9, dataset

    ctx = get_context("kdd", profile=profile)
    config = PickerConfig(clustering_algorithm="hac-ward", use_regressors=False)
    query = ctx.prepared[0].query
    budget = max(1, ctx.num_partitions // 10)
    # A cold pick per round: a fresh picker, since a repeat on one
    # picker is a memo hit.
    benchmark.pedantic(
        lambda picker: picker.select(query, budget),
        setup=lambda: ((ctx.ps3_picker(config),), {}),
        rounds=20,
    )
