"""Generator for the frozen v3 statistics store under ``fixtures/v3``.

The files there were produced by the *v3* writer (the tree before
statistics bundles moved to format v4, when ``save_statistics`` stored
every partition's sketch encodings beside the columnar index): a
statistics store (``stats.ps3stats`` checkpoint + ``stats.ps3wal``
journal holding one batch appended after it) and the picker model of a
small PS3 system over :func:`fixture_table`. ``expected.json`` records
what that tree answered after reopening the store with ``PS3.open``:
each query's groups (value bytes as hex) and selection at a fixed
budget, and ``staleness()``.

They exist so the v3 -> v4 upgrade is tested against *real old bytes*.
Do not regenerate them with a v4 writer; if they are ever lost, rebuild
them from a checkout of a v3-era tree by running::

    PYTHONPATH=src python tests/storage/fixtures/make_v3_fixture.py
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

from repro.api import PS3
from repro.core.training import TrainingConfig
from repro.engine.layout import partition_evenly, sort_table
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table
from repro.storage import save_model
from repro.workload import QueryGenerator
from repro.workload.spec import WorkloadSpec

HERE = Path(__file__).resolve().parent / "v3"

SCHEMA = Schema.of(
    Column("x", ColumnKind.NUMERIC, positive=True),
    Column("y", ColumnKind.NUMERIC),
    Column("d", ColumnKind.DATE),
    Column("cat", ColumnKind.CATEGORICAL, low_cardinality=True),
    Column("tag", ColumnKind.CATEGORICAL),
)
WORKLOAD = WorkloadSpec(
    groupby_universe=("cat", "d"),
    aggregate_columns=("x", "y"),
    predicate_columns=("x", "y", "d", "cat", "tag"),
)
BUDGET = 4


def _columns(rng: np.random.Generator, n: int, day0: int) -> dict[str, np.ndarray]:
    return {
        "x": rng.exponential(10.0, n) + 1.0,
        "y": rng.normal(0.0, 5.0, n),
        "d": rng.integers(day0, day0 + 60, n),
        "cat": rng.choice(["a", "b", "c", "dd"], n, p=[0.5, 0.3, 0.15, 0.05]),
        "tag": rng.choice([f"t{i:03d}" for i in range(120)], n),
    }


def fixture_table():
    """The checkpointed table: 960 rows in 12 partitions, sorted by day."""
    table = Table(SCHEMA, _columns(np.random.default_rng(20261019), 960, 0))
    return partition_evenly(sort_table(table, "d"), 12)


def journaled_batch() -> dict[str, np.ndarray]:
    """The batch appended (journaled only) after the checkpoint."""
    return _columns(np.random.default_rng(41), 80, 50)


def queries():
    generator = QueryGenerator(WORKLOAD, fixture_table().table, seed=3)
    return generator.train_test_split(8, 6)


def answers(system: PS3) -> list[dict]:
    out = []
    for query in queries()[1]:
        answer = system.query(query, budget_partitions=BUDGET)
        out.append(
            {
                "groups": [
                    [repr(key), answer.groups[key].tobytes().hex()]
                    for key in answer.groups
                ],
                "selection": [
                    [choice.partition, choice.weight]
                    for choice in answer.selection.selection
                ],
            }
        )
    return out


def main() -> None:
    shutil.rmtree(HERE, ignore_errors=True)
    HERE.mkdir(parents=True)
    train, __ = queries()
    system = PS3(fixture_table(), WORKLOAD).fit(
        train, TrainingConfig(num_models=1, gbrt_trees=3, seed=0)
    )
    save_model(system.model, HERE / "model.json")
    system.attach_store(HERE)
    system.checkpoint()
    system.append(journaled_batch())
    reopened = PS3.open(fixture_table(), WORKLOAD, HERE, HERE / "model.json")
    staleness = reopened.staleness()
    expected = {
        "num_partitions": reopened.statistics.num_partitions,
        "answers": answers(reopened),
        "staleness": [
            staleness.partitions_added,
            staleness.fraction_new,
            staleness.heavy_hitter_drift,
            staleness.needs_retraining,
        ],
        "storage_overhead_bytes": reopened.storage_overhead_bytes(),
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")
    print("wrote", sorted(p.name for p in HERE.iterdir()))


if __name__ == "__main__":
    main()
