"""Staleness, features and answers survive recovery.

A reopened system (``PS3.open``: checkpoint + model + journal replay)
must report the live system's ``staleness()`` — the appends since
training and the drift of the global heavy hitters — and give its
features and answers byte for byte. The drift reads the running global
heavy-hitter sketch, which the bundle persists whole: before it did, a
bundle kept only each partition's reported heavy hitters, and a
``tpcds`` system reopened right after fit + checkpoint reported a drift
of 0.92 (``needs_retraining``) where the live one reported 0.0.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import PS3
from repro.core.training import TrainingConfig
from repro.datasets.registry import get_dataset
from repro.storage import save_model
from repro.workload import QueryGenerator

BUDGET = 0.1


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A tpcds 64 x 500 system fit on 8 queries, its model saved."""
    spec = get_dataset("tpcds")
    ptable = spec.build(64 * 500, 64, seed=3)
    workload = spec.workload()
    generator = QueryGenerator(workload, ptable.table, seed=4)
    train, test = generator.train_test_split(8, 6)
    system = PS3(ptable, workload).fit(
        train, TrainingConfig(num_models=1, gbrt_trees=3, seed=0)
    )
    model_path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(system.model, model_path)
    return spec, ptable, workload, system, model_path, test


def _tail(spec, rows: int, seed: int) -> dict:
    """Fresh rows with a drifted mix: a later slice of another build."""
    source = spec.build(4 * rows, 4, seed=seed).table
    return {name: values[-rows:] for name, values in source.columns.items()}


def assert_recovered_equals_live(live: PS3, reopened: PS3, queries) -> None:
    assert reopened.staleness() == live.staleness()
    assert reopened.statistics.num_partitions == live.statistics.num_partitions
    for query in queries:
        ours = reopened.feature_builder.features_for_query(query).matrix
        theirs = live.feature_builder.features_for_query(query).matrix
        assert ours.tobytes() == theirs.tobytes()
        want = live.query(query, budget_fraction=BUDGET)
        got = reopened.query(query, budget_fraction=BUDGET)
        assert got.selection == want.selection
        assert list(got.groups) == list(want.groups)
        for key, values in want.groups.items():
            assert got.groups[key].tobytes() == values.tobytes()


def test_reopened_right_after_fit_and_checkpoint(fitted, tmp_path):
    __, ptable, workload, system, model_path, test = fitted
    system.attach_store(tmp_path)
    system.checkpoint()
    reopened = PS3.open(ptable, workload, tmp_path, model_path)
    assert reopened.staleness().heavy_hitter_drift == 0.0
    assert not reopened.staleness().needs_retraining
    assert_recovered_equals_live(system, reopened, test)


def test_reopened_after_checkpointed_and_journaled_appends(fitted, tmp_path):
    spec, ptable, workload, __, model_path, test = fitted
    generator = QueryGenerator(workload, ptable.table, seed=4)
    train, __ = generator.train_test_split(8, 6)
    live = PS3(ptable, workload).fit(
        train, TrainingConfig(num_models=1, gbrt_trees=3, seed=0)
    )
    store = live.attach_store(tmp_path)
    for k in range(5):
        live.append(_tail(spec, 400 + 50 * k, seed=100 + k))
        if k in (1, 2):
            live.checkpoint()
    assert store.wal.last_seq > 0  # the last appends are journaled only
    at_checkpoint = live.ptable.num_partitions - 2
    table = live.ptable
    checkpointed = type(table)(
        type(table.table)(
            table.schema,
            {
                name: values[: table.boundaries[at_checkpoint]]
                for name, values in table.table.columns.items()
            },
        ),
        table.boundaries[: at_checkpoint + 1],
    )
    reopened = PS3.open(checkpointed, workload, tmp_path, model_path)
    assert reopened.staleness().partitions_added == 5
    assert np.isfinite(reopened.staleness().heavy_hitter_drift)
    assert_recovered_equals_live(live, reopened, test)
