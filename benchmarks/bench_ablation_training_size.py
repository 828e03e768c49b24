"""Ablation — training-workload size (amortized one-time cost).

The paper trains on 400 queries per dataset and amortizes the one-time
cost over frequently queried data (sections 1 and 5.1.2) but does not
sweep the training-set size. This ablation does: PS3 is retrained with
progressively fewer training queries and evaluated on the same held-out
set. Expected shape: error decreases (or plateaus) with more training
queries, and even small training sets keep PS3 competitive with the
uniform baseline — the learned component degrades gracefully.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import emit, format_table
from repro.bench.runner import get_context
from repro.core.metrics import mean_report
from repro.core.picker import PickerConfig, PS3Picker
from repro.core.training import train_picker_model

SIZES = (4, 12, 24, 48)


@pytest.fixture(scope="module")
def sweep(profile):
    ctx = get_context("tpch", profile=profile)
    budget = max(1, ctx.num_partitions // 10)
    rows = []
    for size in SIZES:
        if size > len(ctx.train_queries):
            continue
        model, __ = train_picker_model(
            ctx.ptable, ctx.feature_builder, ctx.train_queries[:size]
        )
        picker = PS3Picker(model, PickerConfig(seed=profile.seed))
        reports = [
            p.evaluate(picker.select(p.query, budget).selection)
            for p in ctx.prepared
        ]
        rows.append((size, mean_report(reports).avg_relative_error))
    # Uniform baseline reference at the same budget.
    random_fn, runs = ctx.standard_methods()["random"]
    baseline = ctx.evaluate_method(random_fn, [budget], runs)[budget]
    return ctx, rows, baseline, budget


def test_ablation_training_size(sweep, benchmark):
    ctx, rows, baseline, budget = sweep
    emit(
        "ablation_training_size",
        format_table(
            ["training queries", "avg rel err @10%"],
            [[size, err] for size, err in rows]
            + [["(uniform random)", baseline.avg_relative_error]],
            title="Ablation / training-set size on TPC-H*",
        ),
    )
    errors = [err for __, err in rows]
    # The largest training set is never materially worse than the
    # smallest (learning helps or at least does not hurt) ...
    assert errors[-1] <= errors[0] * 1.15
    # ... and full-size training beats the uniform baseline.
    assert errors[-1] < baseline.avg_relative_error

    benchmark(
        lambda: train_picker_model(
            ctx.ptable, ctx.feature_builder, ctx.train_queries[:4]
        )
    )
