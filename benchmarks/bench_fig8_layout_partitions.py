"""Figure 8 — random layout and partition-count effects (TPC-H* sf=1).

Paper: on a *random* layout, uniform partition sampling is already
near-optimal and PS3 slightly underperforms it (nobody should run PS3 on
a random layout). On the sorted layout, increasing the partition count
(1k -> 10k; here 48 -> 192 at reproduction scale) lets more partitions be
skipped and lowers error at equal sampling fractions.
"""

from __future__ import annotations

import pytest

from repro.bench.profiles import BenchProfile
from repro.bench.reporting import emit, format_table
from repro.bench.runner import ExperimentContext

FRACTIONS = (0.05, 0.1, 0.2, 0.4)


def _profile(base: BenchProfile, num_partitions: int) -> BenchProfile:
    return BenchProfile(
        name=base.name,
        num_rows=base.num_rows,
        num_partitions=num_partitions,
        train_queries=base.train_queries,
        test_queries=base.test_queries,
        budget_fractions=FRACTIONS,
        random_runs=base.random_runs,
        seed=base.seed,
    )


@pytest.fixture(scope="module")
def contexts(profile):
    coarse = _profile(profile, max(24, profile.num_partitions // 2))
    fine = _profile(profile, profile.num_partitions * 2)
    return {
        "random layout": ExperimentContext.build("tpch", "random", coarse),
        "sorted, coarse": ExperimentContext.build("tpch", "l_shipdate", coarse),
        "sorted, fine": ExperimentContext.build("tpch", "l_shipdate", fine),
    }


@pytest.fixture(scope="module")
def results(contexts, profile):
    out = {}
    for label, ctx in contexts.items():
        budgets = [max(1, round(f * ctx.num_partitions)) for f in FRACTIONS]
        methods = ctx.standard_methods()
        per_method = {}
        for name in ("random+filter", "ps3"):
            select_fn, runs = methods[name]
            per_method[name] = ctx.evaluate_method(select_fn, budgets, runs)
        out[label] = (budgets, per_method)
    return out


def test_fig8_layouts_and_partition_counts(results, contexts, benchmark):
    for label, (budgets, per_method) in results.items():
        n = contexts[label].num_partitions
        headers = ["method"] + [f"{100 * b / n:.0f}%" for b in budgets]
        rows = [
            [name] + [res[b].avg_relative_error for b in budgets]
            for name, res in per_method.items()
        ]
        emit(
            f"fig8_{label.replace(' ', '_').replace(',', '')}",
            format_table(headers, rows, title=f"Figure 8 / TPC-H* {label} ({n} parts)"),
        )

    # Shape 1: on the random layout PS3 has no meaningful edge over
    # filtered random sampling.
    budgets, per_method = results["random layout"]
    ps3_auc = sum(per_method["ps3"][b].avg_relative_error for b in budgets)
    rnd_auc = sum(per_method["random+filter"][b].avg_relative_error for b in budgets)
    assert ps3_auc <= rnd_auc * 1.6  # may be slightly worse, not better

    # Shape 2: more partitions -> lower PS3 error at equal fractions.
    coarse_budgets, coarse = results["sorted, coarse"]
    fine_budgets, fine = results["sorted, fine"]
    coarse_auc = sum(coarse["ps3"][b].avg_relative_error for b in coarse_budgets)
    fine_auc = sum(fine["ps3"][b].avg_relative_error for b in fine_budgets)
    assert fine_auc <= coarse_auc * 1.1

    ctx = contexts["sorted, fine"]
    query = ctx.prepared[0].query
    budget = max(1, ctx.num_partitions // 10)
    # A cold pick per round: a fresh picker, since a repeat on one
    # picker is a memo hit.
    benchmark.pedantic(
        lambda picker: picker.select(query, budget),
        setup=lambda: ((ctx.ps3_picker(),), {}),
        rounds=20,
    )
