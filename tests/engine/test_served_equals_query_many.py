"""A served burst answers exactly as ``PS3.query_many`` does.

Two identical systems are fitted. A burst with repeats is queued behind
``plugged`` on one of them; its twin answers the same burst with
``query_many``. Selections, group key order and every group's bytes must
be equal, request by request, in admission order. With the random
exemplar (the paper's Appendix D.1) each pick draws from the picker's
rng, so a repeat is an independent draw on both routes: no request
shares another's pick or execution.
"""

from __future__ import annotations

import pytest
from serving_plug import plugged

from repro.api import PS3
from repro.core.picker import PickerConfig
from repro.datasets.registry import get_dataset
from repro.workload import QueryGenerator

BUDGET = 3


def fitted_twins(picker_config: PickerConfig | None):
    """Two systems fitted the same way (the kdd fixture of test_serving)."""
    spec = get_dataset("kdd")
    ptable = spec.build(3000, 12, seed=4)
    workload = spec.workload()
    train, test = QueryGenerator(workload, ptable.table, seed=6).train_test_split(
        10, 4
    )
    twins = [
        PS3(ptable, workload, picker_config=picker_config).fit(train)
        for __ in range(2)
    ]
    return twins, test


@pytest.mark.parametrize(
    "picker_config",
    [None, PickerConfig(exemplar="random")],
    ids=["default", "random_exemplar"],
)
def test_served_burst_equals_query_many(picker_config):
    (served, direct), test = fitted_twins(picker_config)
    burst = [test[0], test[1], test[0], test[2], test[0], test[1], test[3]] * 2
    with served.serve() as front:
        with plugged(front):
            futures = [front.submit(q, budget_partitions=BUDGET) for q in burst]
        answers = [future.result(timeout=60) for future in futures]
    expected = direct.query_many(burst, budget_partitions=BUDGET)
    for answer, twin in zip(answers, expected, strict=True):
        assert answer.query == twin.query
        assert answer.selection.selection == twin.selection.selection
        assert list(answer.groups) == list(twin.groups)
        for key, values in twin.groups.items():
            assert answer.groups[key].tobytes() == values.tobytes()
        assert (answer.budget, answer.effective_budget) == (BUDGET, BUDGET)
    if picker_config is not None:  # not vacuous: repeats draw different picks
        repeats = {
            tuple(choice.partition for choice in answer.selection.selection)
            for answer, query in zip(answers, burst)
            if query is test[0]
        }
        assert len(repeats) > 1
