"""The pick memo: same selections, fewer picks.

``PS3Picker.select`` remembers pure picks (those that draw nothing from
the picker's rng) per statistics generation. The differential test runs
one seeded ``kdd`` history with repeats through a memoized system and a
reference whose memo is cleared before every call: pure and impure
picks (more than 10 clauses, the bench's ``NoClustering`` lesion, the
random exemplar), the early returns, an append between repeats, then a
checkpoint and ``PS3.open``. Every field of every pick and the rng
state after it must agree, so a hit never skips a draw.
"""

from __future__ import annotations

import shutil
import sys
import threading

import numpy as np
import pytest

from repro.api import PS3
from repro.bench.pickers import NoClustering
from repro.core.picker import PICK_MEMO_LIMIT, PickerConfig, PS3Picker
from repro.datasets.registry import get_dataset
from repro.engine.aggregates import count_star
from repro.engine.combiner import WeightedChoice
from repro.engine.predicates import And, Comparison
from repro.engine.query import Query
from repro.obs import get_registry
from repro.storage import save_model
from repro.workload.generator import QueryGenerator

NUM_PARTITIONS = 16
STEPS_PER_PHASE = 90
BUDGETS = (0, 3, 5, 1_000)  # 1 000 >= every passing set: the exact return


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    """A fitted ``kdd`` system checkpointed with its model beside it."""
    spec = get_dataset("kdd")
    ptable = spec.build(3_200, NUM_PARTITIONS, seed=4)
    workload = spec.workload()
    generator = QueryGenerator(workload, ptable.table, seed=8)
    system = PS3(ptable, workload).fit(generator.sample_queries(8))
    root = tmp_path_factory.mktemp("pick_memo")
    (root / "store").mkdir()
    system.attach_store(root / "store")
    system.checkpoint()
    save_model(system.model, root / "model.json")
    many_clauses = And(tuple(Comparison("duration", ">=", -1.0 - i) for i in range(11)))
    queries = [
        *generator.sample_queries(6),
        Query([count_star()], many_clauses, ("protocol_type",)),
        Query([count_star()], Comparison("duration", ">", 1e18)),  # none pass
        Query([count_star()]),  # every partition passes
    ]
    return spec, system, root, queries


def _pickers(system) -> dict[str, PS3Picker]:
    return {
        "median": system.picker,
        "uniform": NoClustering(system.model, PickerConfig(seed=3)),
        "random": PS3Picker(system.model, PickerConfig(exemplar="random", seed=3)),
    }


def _fields(picked):
    return (
        picked.selection,
        picked.outliers,
        picked.group_sizes,
        picked.group_budgets,
        picked.used_clustering,
    )


def _memo_counts() -> tuple[int, int, int]:
    registry = get_registry()
    return tuple(
        registry.counter(f"picker.memo.{name}").value
        for name in ("hits", "misses", "evictions")
    )


def test_memoized_history_equals_unmemoized(deployment, tmp_path):
    spec, system, root, queries = deployment
    systems = []
    for side in ("memoized", "reference"):
        shutil.copytree(root / "store", tmp_path / side)
        systems.append(
            PS3.open(
                system.ptable, system.workload, tmp_path / side, root / "model.json"
            )
        )
    rng = np.random.default_rng(29)
    growing = queries[-1]

    def run_phase(mine, theirs):
        hits = _memo_counts()[0]
        for __ in range(STEPS_PER_PHASE):
            name = ("median", "uniform", "random")[rng.integers(3)]
            query = queries[rng.integers(len(queries))]
            budget = BUDGETS[rng.integers(len(BUDGETS))]
            got = mine[name].select(query, budget)
            theirs[name]._memo.clear()
            want = theirs[name].select(query, budget)
            assert _fields(got) == _fields(want), (name, query.label(), budget)
            assert (
                mine[name]._rng.bit_generator.state
                == theirs[name]._rng.bit_generator.state
            )
        assert _memo_counts()[0] - hits >= STEPS_PER_PHASE // 6  # repeats hit

    pickers = [_pickers(s) for s in systems]
    run_phase(*pickers)
    before = pickers[0]["median"].select(growing, 1_000).partitions
    assert before == list(range(NUM_PARTITIONS))

    rows = dict(spec.generate(300, 77).columns)
    for s in systems:
        s.append(rows)
    after = pickers[0]["median"].select(growing, 1_000).partitions
    assert after == list(range(NUM_PARTITIONS + 1))  # the new one, not a stale hit
    run_phase(*pickers)

    reopened = []
    for s, side in zip(systems, ("memoized", "reference")):
        s.checkpoint()
        reopened.append(
            PS3.open(s.ptable, s.workload, tmp_path / side, root / "model.json")
        )
    run_phase(*(_pickers(s) for s in reopened))


def test_racing_queries_pick_what_their_generation_picks(deployment, tmp_path):
    """Clients repeat pure picks while appends land: each answer carries
    the pick its table generation makes, never a hit from another one."""
    spec, system, root, queries = deployment
    pool = queries[:6]  # generated queries: at most 5 clauses, pure picks
    batches = [dict(spec.generate(200, 90 + i).columns) for i in range(4)]
    for side in ("hammered", "reference"):
        shutil.copytree(root / "store", tmp_path / side)
    hammered, reference = (
        PS3.open(system.ptable, system.workload, tmp_path / side, root / "model.json")
        for side in ("hammered", "reference")
    )
    answers, errors = [], []
    stop = threading.Event()

    def client(offset):
        try:
            i = 0
            while not stop.is_set() or i < 8:
                index = (offset + i) % len(pool)
                answer = hammered.query(pool[index], budget_fraction=0.5)
                answers.append((index, answer))
                i += 1
        except BaseException as exc:  # noqa: BLE001 - collected
            errors.append(exc)

    def appender():
        try:
            for rows in batches:
                hammered.append(rows)
        except BaseException as exc:  # noqa: BLE001 - collected
            errors.append(exc)
        finally:
            stop.set()

    threads = [threading.Thread(target=client, args=(k,)) for k in range(8)]
    threads.append(threading.Thread(target=appender))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    want = {}
    for rows in [*batches, None]:
        for index, query in enumerate(pool):
            reference.picker._memo.clear()
            picked = reference.query(query, budget_fraction=0.5).selection
            want[reference.ptable.num_partitions, index] = _fields(picked)
        if rows is not None:
            reference.append(rows)
    seen = {answer.num_partitions for __, answer in answers}
    assert len(seen) > 1  # the clients did race the appends
    for index, answer in answers:
        assert _fields(answer.selection) == want[answer.num_partitions, index]


def test_mutating_a_pick_does_not_reach_the_next_hit(deployment):
    __, system, __, queries = deployment
    query = queries[0]
    want = _fields(PS3Picker(system.model).select(query, 5))
    picker = PS3Picker(system.model)
    for __ in range(3):
        picked = picker.select(query, 5)
        assert _fields(picked) == want
        picked.selection.append(WeightedChoice(0, 1.0))
        picked.outliers.append(99)
        picked.group_sizes.clear()
        picked.group_budgets[:] = [7]


def test_counters_and_lru_eviction(deployment):
    __, system, __, queries = deployment
    picker = PS3Picker(system.model)
    query = queries[1]
    start = _memo_counts()

    def moved():
        return tuple(now - then for now, then in zip(_memo_counts(), start))

    for budget in range(1, PICK_MEMO_LIMIT + 1):
        picker.select(query, budget)
    assert moved() == (0, PICK_MEMO_LIMIT, 0)
    picker.select(query, 1)  # a hit: (query, 1) is now the most recent
    assert moved() == (1, PICK_MEMO_LIMIT, 0)
    picker.select(query, PICK_MEMO_LIMIT + 1)  # evicts (query, 2)
    assert moved() == (1, PICK_MEMO_LIMIT + 1, 1)
    picker.select(query, 1)
    assert moved() == (2, PICK_MEMO_LIMIT + 1, 1)
    picker.select(query, 2)
    assert moved() == (2, PICK_MEMO_LIMIT + 2, 2)
    counters = system.metrics()["counters"]
    for name in ("hits", "misses", "evictions"):
        assert f"picker.memo.{name}" in counters
