"""Paper Table 4's measurement at a tiny shape.

``benchmarks/bench_tab4_storage.py`` reads the per-family sizes the seal
records; the bench-rot guard only imports it, so a removed attribute
would pass there. Here its ``storage_kb`` runs on a small ``kdd`` table
and must equal the scalar oracle's ``size_bytes`` sums.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest
from sketch_oracle import oracle_dataset

from repro.datasets.registry import get_dataset
from repro.sketches.builder import build_dataset_statistics


BENCH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_tab4_storage.py"


def test_storage_kb_equals_the_oracle_sums():
    spec = importlib.util.spec_from_file_location("bench_tab4_measured", BENCH)
    tab4 = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tab4)
    ptable = get_dataset("kdd").build(6 * 200, 6, seed=4)
    measured = tab4.storage_kb(build_dataset_statistics(ptable))
    oracle = oracle_dataset(ptable)
    n = oracle.num_partitions
    for kind in tab4.KINDS:
        total = sum(p.size_by_kind()[kind] for p in oracle.partitions)
        assert measured[kind] == total / n / 1024.0, kind
    assert measured["total"] == pytest.approx(
        oracle.average_partition_size_bytes() / 1024.0, rel=1e-12
    )
    assert measured["akmv"] == max(measured[kind] for kind in tab4.KINDS)
