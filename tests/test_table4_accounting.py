"""Table 4 accounting: the seal's byte counts are the sketches' own.

``PS3.storage_overhead_bytes()`` is the end-to-end benchmark's
``stats_kb_per_partition``; the per-family sizes behind it
(``DatasetStatistics.sizes``) must equal, partition by partition and
exactly, the ``size_bytes`` of the sketch objects the scalar oracle
builds — on a table built from scratch, and on the same table grown by
appends, checkpointed, journaled and reopened.
"""

from __future__ import annotations

import numpy as np
import pytest
from sketch_oracle import oracle_dataset

from repro.api import PS3
from repro.core.training import TrainingConfig
from repro.datasets.registry import get_dataset
from repro.engine.table import PartitionedTable, Table
from repro.sketches.builder import FAMILIES
from repro.storage import save_model
from repro.workload import QueryGenerator

PARTITIONS, ROWS = 12, 400


@pytest.fixture(scope="module")
def kdd():
    spec = get_dataset("kdd")
    return spec, spec.build(PARTITIONS * ROWS, PARTITIONS, seed=12)


def oracle_sizes(oracle) -> list[list[int]]:
    return [[p.size_by_kind()[kind] for kind in FAMILIES] for p in oracle.partitions]


def assert_accounting(system: PS3, oracle) -> None:
    statistics = system.statistics
    assert statistics.sizes.tolist() == oracle_sizes(oracle)
    assert statistics.sizes.sum(axis=1).tolist() == [
        p.size_bytes() for p in oracle.partitions
    ]
    assert system.storage_overhead_bytes() == oracle.average_partition_size_bytes()


def test_built_from_scratch(kdd):
    spec, ptable = kdd
    assert_accounting(PS3(ptable, spec.workload()), oracle_dataset(ptable))


def test_after_appends_and_a_reopen(kdd, tmp_path):
    spec, ptable = kdd
    workload = spec.workload()
    bounds, columns = ptable.boundaries, ptable.table.columns
    head = PartitionedTable(
        Table(ptable.schema, {n: a[: bounds[8]] for n, a in columns.items()}),
        bounds[:9],
    )
    train = QueryGenerator(workload, head.table, seed=2).sample_queries(6)
    system = PS3(head, workload).fit(train, TrainingConfig(num_models=1, gbrt_trees=2))
    save_model(system.model, tmp_path / "model.json")
    system.attach_store(tmp_path)
    for p in range(8, PARTITIONS):
        system.append({n: a[bounds[p] : bounds[p + 1]] for n, a in columns.items()})
        if p == 9:
            system.checkpoint()
    oracle = oracle_dataset(ptable)
    assert_accounting(system, oracle)
    checkpointed = PartitionedTable(
        Table(ptable.schema, {n: a[: bounds[10]] for n, a in columns.items()}),
        bounds[:11],
    )
    reopened = PS3.open(checkpointed, workload, tmp_path, tmp_path / "model.json")
    assert reopened.statistics.num_partitions == PARTITIONS
    assert_accounting(reopened, oracle)
    assert np.array_equal(reopened.statistics.num_rows, np.diff(bounds))
