"""Ablation — sketch-parameter sensitivity (storage vs accuracy).

The paper fixes AKMV k=128, 10 histogram buckets, and 1% heavy-hitter
support (section 3.1) without sweeping them. This ablation justifies the
choices: it re-sketches one dataset under smaller/larger parameters and
reports (a) the per-partition storage cost and (b) the picker error at a
10% budget with the same trained workflow. Expected shape: accuracy
saturates near the paper's defaults while storage keeps growing, i.e. the
defaults sit at the knee.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import emit, format_table
from repro.bench.runner import ExperimentContext
from repro.core.metrics import mean_report
from repro.core.picker import PickerConfig, PS3Picker
from repro.core.training import train_picker_model
from repro.datasets.registry import get_dataset
from repro.sketches.builder import SketchConfig, build_dataset_statistics
from repro.stats.features import FeatureBuilder
from repro.workload.generator import QueryGenerator

VARIANTS = {
    "tiny (k=16, 4 buckets, 5% support)": SketchConfig(
        histogram_buckets=4, akmv_k=16, hh_support=0.05
    ),
    "small (k=64, 6 buckets, 2% support)": SketchConfig(
        histogram_buckets=6, akmv_k=64, hh_support=0.02
    ),
    "paper (k=128, 10 buckets, 1% support)": SketchConfig(),
    "large (k=256, 20 buckets, 0.5% support)": SketchConfig(
        histogram_buckets=20, akmv_k=256, hh_support=0.005
    ),
}


@pytest.fixture(scope="module")
def sweep(profile):
    spec = get_dataset("kdd")
    ptable = spec.build(
        profile.num_rows, profile.num_partitions, seed=profile.seed
    )
    workload = spec.workload()
    generator = QueryGenerator(workload, ptable.table, seed=profile.seed + 1)
    train_queries, test_queries = generator.train_test_split(
        profile.train_queries, profile.test_queries
    )
    budget = max(1, ptable.num_partitions // 10)

    rows = {}
    for label, config in VARIANTS.items():
        statistics = build_dataset_statistics(ptable, config)
        feature_builder = FeatureBuilder(statistics, workload.groupby_universe)
        model, __ = train_picker_model(ptable, feature_builder, train_queries)
        picker = PS3Picker(model, PickerConfig(seed=profile.seed))
        helper = ExperimentContext(
            dataset_name="kdd", layout="count", profile=profile
        )
        helper.ptable = ptable
        prepared = [helper.prepare_query(q) for q in test_queries]
        reports = [
            p.evaluate(picker.select(p.query, budget).selection) for p in prepared
        ]
        rows[label] = (
            statistics.sizes.sum(axis=1).mean() / 1024.0,
            mean_report(reports).avg_relative_error,
        )
    return rows, budget


def test_ablation_sketch_parameters(sweep, benchmark, profile):
    rows, budget = sweep
    emit(
        "ablation_sketch_params",
        format_table(
            ["sketch configuration", "KB/partition", "avg rel err @10%"],
            [[label, kb, err] for label, (kb, err) in rows.items()],
            title="Ablation / sketch parameters on KDD",
        ),
    )
    labels = list(rows)
    sizes = [rows[label][0] for label in labels]
    errors = [rows[label][1] for label in labels]
    # Storage grows monotonically with sketch budgets.
    assert sizes == sorted(sizes)
    # Accuracy at the paper's defaults is at least as good as the tiny
    # configuration (saturation near the knee).
    assert errors[2] <= errors[0] * 1.1

    spec = get_dataset("kdd")
    ptable = spec.build(2000, 8, seed=0)
    benchmark(lambda: build_dataset_statistics(ptable, SketchConfig()))
