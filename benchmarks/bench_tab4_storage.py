"""Table 4 — per-partition storage overhead of summary statistics (KB).

Paper: totals range from 12KB (KDD) to 103KB (TPC-DS*) per partition,
with AKMV the largest sketch family everywhere; KDD's many binary columns
shrink its AKMV footprint despite having more columns than Aria. The
reproduction counts the encoded bytes of the same sketch set, which the
seal records per partition and family (``DatasetStatistics.sizes``);
scale differences shift absolute numbers but the orderings should hold:
AKMV dominant, total well under ~100KB/partition.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import emit, format_table
from repro.bench.runner import get_context
from repro.sketches.builder import SketchConfig, seal_partition

DATASETS = ("tpch", "tpcds", "aria", "kdd")
KINDS = ("histogram", "hh", "akmv", "measure")


def storage_kb(statistics) -> dict[str, float]:
    """Mean encoded KB per partition of each sketch family, and in all."""
    n = statistics.num_partitions
    by_kind = statistics.size_by_kind()
    out = {kind: int(by_kind[kind].sum()) / n / 1024.0 for kind in KINDS}
    out["total"] = sum(out.values())
    return out


@pytest.fixture(scope="module")
def storage(profile):
    return {
        dataset: storage_kb(get_context(dataset, profile=profile).statistics)
        for dataset in DATASETS
    }


def test_tab4_storage_overhead(storage, benchmark, profile):
    rows = [
        [
            dataset,
            storage[dataset]["total"],
            storage[dataset]["histogram"],
            storage[dataset]["hh"],
            storage[dataset]["akmv"],
            storage[dataset]["measure"],
        ]
        for dataset in DATASETS
    ]
    emit(
        "tab4_storage_overhead",
        format_table(
            ["dataset", "Total KB", "Histogram", "HH", "AKMV", "Measure"],
            rows,
            title="Table 4 / per-partition sketch storage (KB)",
        ),
    )

    for dataset in DATASETS:
        sizes = storage[dataset]
        # Paper shape: AKMV is the dominant sketch family...
        assert sizes["akmv"] == max(sizes[k] for k in KINDS)
        # ... and the full set stays lightweight.
        assert sizes["total"] < 150.0

    ctx = get_context("tpch", profile=profile)
    partition = ctx.ptable[0]
    benchmark(
        lambda: seal_partition(
            partition.table.schema, partition.columns, 0, SketchConfig()
        )
    )
