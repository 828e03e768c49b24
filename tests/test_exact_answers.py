"""A full read is exact: it scores zero error and ``execute_exact`` is it.

``PS3.execute_exact`` is the weight-1 case of the path every answer
takes — ``BatchExecutor.partition_answers`` over all partitions, then
``combine_answers`` and ``finalize_answer`` — and a budget covering the
whole table picks every passing partition at weight 1, in partition
order. So on every query of every dataset (grouped, ungrouped, and one
no row passes) the full read's answer scores ``ErrorReport(0.0, 0.0,
0.0)`` against the exact answer, and the two are equal byte for byte:
``tobytes()`` of every value vector, ``repr`` of the key list (its order
and a NaN key count).
"""

from __future__ import annotations

import pytest

from repro.api import PS3
from repro.core.metrics import ErrorReport
from repro.core.training import TrainingConfig
from repro.datasets.registry import get_dataset
from repro.engine.aggregates import count_star, sum_of
from repro.engine.expressions import col
from repro.engine.predicates import Comparison
from repro.engine.query import Query
from repro.workload import QueryGenerator

DATASETS = ("tpch", "kdd", "tpcds", "aria")
ROWS, PARTITIONS, HELD_OUT = 4_000, 16, 24


@pytest.fixture(scope="module", params=DATASETS)
def case(request):
    spec = get_dataset(request.param)
    ptable = spec.build(ROWS, PARTITIONS, seed=7)
    workload = spec.workload()
    generator = QueryGenerator(workload, ptable.table, seed=7)
    train, held_out = generator.train_test_split(6, HELD_OUT)
    config = TrainingConfig(num_models=1, gbrt_trees=2)
    ps3 = PS3(ptable, workload).fit(train, config)
    measure = workload.aggregate_columns[0]
    grouped = Query(
        [sum_of(col(measure)), count_star()], None, workload.groupby_universe[:1]
    )
    empty = Query([sum_of(col(measure))], Comparison(measure, ">", 1e300))
    assert ps3.execute_exact(grouped) and not ps3.execute_exact(empty)
    return ps3, held_out + [grouped, empty]


def test_full_read_scores_zero_error(case):
    ps3, queries = case
    for query in queries:
        full = ps3.query(query, budget_fraction=1.0)
        assert ps3.evaluate(query, full) == ErrorReport(0.0, 0.0, 0.0), query


def test_execute_exact_is_the_full_read(case):
    ps3, queries = case
    for query in queries:
        exact = ps3.execute_exact(query)
        full = ps3.query(query, budget_fraction=1.0).groups
        assert repr(list(exact)) == repr(list(full)), query
        for key in full:
            assert exact[key].tobytes() == full[key].tobytes(), (query, key)
