"""Table 5 — picker latency, total and clustering share.

Paper: the single-thread picker takes 86.5ms (Aria) to ~1s (TPC-H*, 2844
partitions x ~600 features), with clustering an increasing share as
partition count and feature dimension grow. Expected shape at
reproduction scale: a few-to-tens of milliseconds total, ordered by
feature dimension x partition count, clustering a large share on the
wider datasets.

The picker does not time itself: ``select`` is timed around the call, and
clustering by wrapping ``repro.core.picker.cluster_sample`` — the
module-level name ``select`` calls through.

Table 5 reports cold picks. The picker memoizes a pure pick per
statistics generation, so a repeat of ``(query, budget)`` on one picker
would time a memo hit; every timed ``select`` here runs on a fresh
picker instead.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.core.picker as picker_module
from repro.bench.reporting import emit, format_table
from repro.bench.runner import get_context

DATASETS = ("aria", "kdd", "tpcds", "tpch")


@pytest.fixture(scope="module")
def latencies(profile):
    spent = 0.0  # seconds inside cluster_sample during the current select
    cluster_sample = picker_module.cluster_sample

    def timed_cluster_sample(*args, **kwargs):
        nonlocal spent
        started = time.perf_counter()
        try:
            return cluster_sample(*args, **kwargs)
        finally:
            spent += time.perf_counter() - started

    out = {}
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(picker_module, "cluster_sample", timed_cluster_sample)
        for dataset in DATASETS:
            ctx = get_context(dataset, profile=profile)
            totals, clusterings = [], []
            for prepared in ctx.prepared[:10]:
                for budget in profile.budgets():
                    picker = ctx.ps3_picker()  # cold: nothing memoized
                    spent = 0.0
                    started = time.perf_counter()
                    picker.select(prepared.query, budget)
                    totals.append((time.perf_counter() - started) * 1e3)
                    clusterings.append(spent * 1e3)
            out[dataset] = (
                float(np.mean(totals)),
                float(np.std(totals)),
                float(np.mean(clusterings)),
                float(np.std(clusterings)),
            )
    return out


def test_tab5_picker_latency(latencies, benchmark, profile):
    rows = [
        ["Total (ms)"]
        + [f"{latencies[d][0]:.1f}±{latencies[d][1]:.1f}" for d in DATASETS],
        ["Clustering (ms)"]
        + [f"{latencies[d][2]:.1f}±{latencies[d][3]:.1f}" for d in DATASETS],
    ]
    emit(
        "tab5_picker_latency",
        format_table(
            ["component", *DATASETS],
            rows,
            title="Table 5 / average picker overhead (ms)",
        ),
    )

    for dataset in DATASETS:
        total, __, clustering, ___ = latencies[dataset]
        assert 0.0 < total < 5000.0  # a small fraction of any real query
        assert clustering <= total

    ctx = get_context("tpch", profile=profile)
    query = ctx.prepared[0].query
    budget = max(1, ctx.num_partitions // 10)
    benchmark.pedantic(
        lambda picker: picker.select(query, budget),
        setup=lambda: ((ctx.ps3_picker(),), {}),
        rounds=20,
    )
