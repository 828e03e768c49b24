"""Golden digests of the trained funnel, recorded at PR 21's parent.

The level-wise histogram builder replaced the per-node split search and
must not move a bit: every ``CompiledForest`` table of the k regressors,
every tree's ``gain_by_feature`` and the selections the trained picker
makes for 8 held-out queries are hashed on ``kdd`` at the repo
benchmark's four partition / row ratios, scaled down to tier-1 cost. The
values below were recorded from the commit before any edit under
``src/repro/ml/`` (the pattern of
``tests/sketches/test_seal_plane.py::golden_digest``).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import PS3
from repro.datasets.registry import get_dataset
from repro.workload.generator import QueryGenerator

_TABLES = ("feature", "threshold", "left", "right", "value", "roots", "scale", "stages")
TRAIN_QUERIES, HELD_OUT = 16, 8

#: workload -> (partitions, rows per partition, budget share, seed): the
#: bench shapes of ``benchmarks/e2e/inputs.py`` with partitions halved
#: and rows per partition cut 4-8x.
SHAPES = {
    "scan_heavy": (8, 2000, 0.5, 21),
    "pick_heavy": (64, 125, 0.03, 22),
    "served_open": (32, 625, 0.1, 23),
    "ingest_mixed": (32, 625, 0.1, 24),
}

GOLDEN_FORESTS = {
    "scan_heavy": "1b1af10ca1b0cea41a2634344117e2243658c39d061d14030522dbb2a6bca902",
    "pick_heavy": "b9d1e57226d0f4790d9b8a5caa5fd30220fd341638c43e46d7fcffa1773a0a96",
    "served_open": "75298d9b68e36e021d7a08ca44ada4a6b281b42e81d54745dd3f2809a2e934ec",
    "ingest_mixed": "489984785b352e6fba00a14a450e3c597406472402c60e8abcee8af6a769c9c2",
}
GOLDEN_SELECTIONS = {
    "scan_heavy": "f61908193521144cf209ca508d54da4ffa0546bf218d62eef34bf32c0a5c1583",
    "pick_heavy": "db739f8be1b0ff47cfd1c2c84d105934bbad40d7889e9ada97184e4e0003fe49",
    "served_open": "f9978297ce613833a7aa77276fea221a9c51454f5a2b6fe01408794b37f49b6c",
    "ingest_mixed": "362bb0400ffa0623633adfc386d06f0dcdbed739e3b468ac7ae9966bcbcfeb50",
}


def forest_digest(regressors) -> str:
    """sha256 over every stage's node tables and per-tree split gains."""
    digest = hashlib.sha256()
    for stage, regressor in enumerate(regressors):
        forest = regressor._compiled
        for name in _TABLES:
            arr = getattr(forest, name)
            digest.update(f"{stage}.{name}:{arr.dtype}:{arr.shape}".encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
        for tree in regressor._trees:
            gains = sorted(tree.gain_by_feature.items())
            digest.update(repr([(int(f), float(g).hex()) for f, g in gains]).encode())
    return digest.hexdigest()


def selection_digest(ps3: PS3, queries, budget_fraction: float) -> str:
    """sha256 over the (partition, weight) picks of each query, in order."""
    digest = hashlib.sha256()
    for query in queries:
        picked = ps3.query(query, budget_fraction=budget_fraction).selection.selection
        picks = [(int(c.partition), float(c.weight).hex()) for c in picked]
        digest.update(repr(picks).encode())
    return digest.hexdigest()


def trained(workload: str) -> tuple[PS3, list]:
    partitions, rows, __, seed = SHAPES[workload]
    dataset = get_dataset("kdd")
    ptable = dataset.build(partitions * rows, partitions, seed=seed)
    generator = QueryGenerator(dataset.workload(), ptable.table, seed=seed)
    train, held_out = generator.train_test_split(TRAIN_QUERIES, HELD_OUT)
    return PS3(ptable, dataset.workload()).fit(train), held_out


@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_forests_and_selections_equal_the_parents(workload):
    ps3, held_out = trained(workload)
    assert forest_digest(ps3.model.regressors) == GOLDEN_FORESTS[workload]
    budget = SHAPES[workload][2]
    assert selection_digest(ps3, held_out, budget) == GOLDEN_SELECTIONS[workload]

