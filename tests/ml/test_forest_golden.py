"""Golden digests of the trained funnel, recorded at PR 21's parent.

The level-wise histogram builder replaced the per-node split search and
must not move a bit: every ``CompiledForest`` table of the k regressors,
every tree's ``gain_by_feature`` and the selections the trained picker
makes for 8 held-out queries are hashed on ``kdd`` at the repo
benchmark's four partition / row ratios, scaled down to tier-1 cost. The
values below were recorded from the commit before any edit under
``src/repro/ml/`` (the pattern of
``tests/sketches/test_seal_plane.py::golden_digest``). When numeric AKMV
sketches moved from blake2b to the splitmix64 mix, the distinct-value
features of numeric columns moved with them, and the digests of the
three shapes whose partitions hold more than k = 128 distinct numbers
were re-recorded (``pick_heavy``'s 125-row partitions keep exact AKMV
statistics, and its digests did not move). When the k-means fit became
rng-free (projection-quantile seeds, at most two Lloyd passes) every
``GOLDEN_SELECTIONS`` digest was re-recorded and no forest moved:
training does not cluster.
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
    "scan_heavy": "298c91b6eca1f194fbb46001b02fdeac8499adca21e9faa3bb5d396975411313",
    "pick_heavy": "b9d1e57226d0f4790d9b8a5caa5fd30220fd341638c43e46d7fcffa1773a0a96",
    "served_open": "e6fa847d1c16978db77632e2996999f7de47e978c0946e1f99fae4052df97a48",
    "ingest_mixed": "e9cfd57811211f5ad0037631c7a068063742be4aad1384833253db651c1b3d02",
}
GOLDEN_SELECTIONS = {
    "scan_heavy": "fd38d2c707b96e131da193328cb27a6f2b42083816a46aba5d88996b5a59dc68",
    "pick_heavy": "2c0fdfcbe6e5f9a4eeef78314957fb2e80fbd4f22df47f49639846b9e48ffb6b",
    "served_open": "e647bd3ad775d60ae12085df9bee3a03fa436e79c63c094fa0efe0d0195db5b4",
    "ingest_mixed": "ac20ae8786dbc6642bfd94fa69e6367a061fd139b954421755ad32040e2939af",
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

