"""Figure 10 — effect of the sampling decay rate alpha (KDD).

Paper: error improves as alpha grows but with diminishing returns
(learned regressors, left panel); swapping the regressors for a perfect
oracle (right panel) lowers error further, and the learned-vs-oracle gap
widens with alpha — more accurate models justify more aggressive decay.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import emit, format_table
from repro.bench.runner import get_context
from repro.core.picker import PickerConfig

ALPHAS = (1.0, 2.0, 3.0, 5.0)
FRACTIONS = (0.05, 0.1, 0.2, 0.4)


@pytest.fixture(scope="module")
def alpha_sweep(profile):
    ctx = get_context("kdd", profile=profile)
    budgets = [max(1, round(f * ctx.num_partitions)) for f in FRACTIONS]
    results = {"learned": {}, "oracle": {}}
    for alpha in ALPHAS:
        learned = ctx.ps3_picker(PickerConfig(seed=profile.seed, alpha=alpha))
        oracle = ctx.oracle_picker(PickerConfig(seed=profile.seed, alpha=alpha))
        results["learned"][alpha] = ctx.evaluate_method(
            lambda q, n, run, p=learned: p.select(q, n), budgets
        )
        results["oracle"][alpha] = ctx.evaluate_method(
            lambda q, n, run, p=oracle: p.select(q, n), budgets
        )
    return ctx, budgets, results


def test_fig10_alpha_sweep(alpha_sweep, benchmark):
    ctx, budgets, results = alpha_sweep
    n = ctx.num_partitions
    for mode in ("learned", "oracle"):
        headers = ["alpha"] + [f"{100 * b / n:.0f}%" for b in budgets]
        rows = [
            [alpha] + [results[mode][alpha][b].avg_relative_error for b in budgets]
            for alpha in ALPHAS
        ]
        emit(
            f"fig10_alpha_{mode}",
            format_table(headers, rows, title=f"Figure 10 / KDD {mode} regressors"),
        )

    def auc(mode, alpha):
        return sum(results[mode][alpha][b].avg_relative_error for b in budgets)

    # Shape 1: the oracle upper-bounds the learned system at every alpha.
    for alpha in ALPHAS:
        assert auc("oracle", alpha) <= auc("learned", alpha) * 1.1

    # Shape 2: for the oracle, larger alpha does not hurt (more budget on
    # genuinely important partitions).
    assert auc("oracle", ALPHAS[-1]) <= auc("oracle", ALPHAS[0]) * 1.1

    query = ctx.prepared[0].query
    budget = max(1, n // 10)
    # A cold pick per round: a fresh picker, since a repeat on one
    # picker is a memo hit.
    benchmark.pedantic(
        lambda picker: picker.select(query, budget),
        setup=lambda: ((ctx.oracle_picker(PickerConfig(alpha=2.0)),), {}),
        rounds=20,
    )
