"""Figure 6 — alternative data layouts (six dataset x layout combos).

Paper: PS3 keeps outperforming baselines across layouts, but the win
shrinks the more uniform/random the layout is (e.g. TPC-DS* sorted by
cs_net_profit is more uniform than by p_promo_sk, so random sampling is
already strong there and LSS barely beats it).
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import emit, format_table
from repro.bench.runner import get_context

COMBOS = (
    ("tpcds", "p_promo_sk"),
    ("tpcds", "cs_net_profit"),
    ("aria", "AppInfo_Version"),
    ("aria", "IngestionTime"),
    ("kdd", "service_flag"),
    ("kdd", "bytes"),
)


@pytest.fixture(scope="module", params=COMBOS, ids=lambda c: f"{c[0]}-{c[1]}")
def layout_results(request, profile):
    dataset, layout = request.param
    ctx = get_context(dataset, layout=layout, profile=profile)
    budgets = profile.budgets()
    results = {}
    for name, (select_fn, runs) in ctx.standard_methods().items():
        results[name] = ctx.evaluate_method(select_fn, budgets, runs)
    return dataset, layout, ctx, budgets, results


def test_fig6_layouts(layout_results, benchmark):
    dataset, layout, ctx, budgets, results = layout_results
    n = ctx.num_partitions
    headers = ["method"] + [f"{100 * b / n:.0f}%" for b in budgets]
    rows = [
        [name] + [res[b].avg_relative_error for b in budgets]
        for name, res in results.items()
    ]
    emit(
        f"fig6_{dataset}_{layout}",
        format_table(
            headers, rows, title=f"Figure 6 / {dataset} sorted by {layout}"
        ),
    )

    # Shape check: PS3's area under the error curve stays in the same
    # ballpark as uniform random sampling on every layout. The paper's own
    # caveat applies on near-uniform layouts (section 5.5.1 / Appendix
    # C.2): when features carry little signal, importance decay adds
    # variance — so the bound here is loose, while the dataset-default
    # layouts in Figure 3 assert a strict win.
    ps3_auc = sum(results["ps3"][b].avg_relative_error for b in budgets)
    random_auc = sum(results["random"][b].avg_relative_error for b in budgets)
    assert ps3_auc <= random_auc * 1.4

    query = ctx.prepared[0].query
    budget = max(1, n // 10)
    # A cold pick per round: a fresh picker, since a repeat on one
    # picker is a memo hit.
    benchmark.pedantic(
        lambda picker: picker.select(query, budget),
        setup=lambda: ((ctx.ps3_picker(),), {}),
        rounds=20,
    )
