"""No per-partition dict on the online answer path, counted not timed.

Every online answer combines on the answer block's arrays
(``combiner.combine_answers`` over a :class:`QueryAnswerBlock`); the
block's sequence view — one ``{group key: component vector}`` dict per
partition, built on each ``__iter__`` / ``__getitem__`` — is for the
tests' oracles only. Spies on both say so for ``PS3.query``,
``query_many`` and a served burst of repeated requests, each
executed and combined on its own.
"""

from __future__ import annotations

import pytest
from serving_plug import plugged

from repro.api import PS3
from repro.datasets.registry import get_dataset
from repro.engine.batch_executor import BatchExecutor, QueryAnswerBlock
from repro.workload.generator import QueryGenerator


@pytest.fixture(scope="module")
def system_and_queries():
    spec = get_dataset("kdd")
    ptable = spec.build(3_000, 12, seed=4)
    workload = spec.workload()
    generator = QueryGenerator(workload, ptable.table, seed=6)
    system = PS3(ptable, workload).fit(generator.sample_queries(8))
    return system, generator.sample_queries(12)


@pytest.fixture
def dict_views(monkeypatch):
    calls = []
    iterate, getitem = QueryAnswerBlock.__iter__, QueryAnswerBlock.__getitem__

    def counting_iter(self):
        calls.append("__iter__")
        return iterate(self)

    def counting_getitem(self, index):
        calls.append("__getitem__")
        return getitem(self, index)

    monkeypatch.setattr(QueryAnswerBlock, "__iter__", counting_iter)
    monkeypatch.setattr(QueryAnswerBlock, "__getitem__", counting_getitem)
    return calls


def test_online_answers_build_no_partition_dicts(system_and_queries, dict_views):
    system, queries = system_and_queries
    answers = [system.query(q, budget_fraction=0.25) for q in queries]
    answers += system.query_many(queries, budget_fraction=0.5)
    repeated = [queries[0]] * 4 + [queries[1]] * 3
    with system.serve() as front:
        with plugged(front):  # the repeats queue up behind the plug
            futures = [front.submit(q, budget_fraction=0.25) for q in repeated]
        answers += [future.result(timeout=60) for future in futures]
    assert sum(bool(answer.groups) for answer in answers) >= len(answers) // 2
    assert dict_views == []

    # The spies are only a guard if they see the sequence view's uses.
    block = BatchExecutor.for_table(system.ptable).partition_answers(queries[0])
    list(block)
    block[0]
    assert dict_views == ["__iter__", "__getitem__"]
