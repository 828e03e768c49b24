"""Regression pin: per-partition answer key ordering and values.

The answer dicts' *iteration order* is part of the de-facto contract —
downstream accumulation (`combine_answers`, contributions) walks it, and
the executor parity guarantee depends on every path emitting keys in
ascending value-lexicographic order. This test pins the exact keys, their
order, and the SUM/COUNT totals on a fixed seed so a future executor
refactor cannot silently reorder group keys or perturb totals. The pins
run through the differential harness's ``answers_via``: the scalar
reference loop, and the batch executor's answer block both iterated and
indexed partition by partition.
"""

import numpy as np
import pytest

from repro.engine.aggregates import avg_of, count_star, sum_of
from repro.engine.expressions import col
from repro.engine.layout import partition_evenly
from repro.engine.predicates import Comparison
from repro.engine.query import Query
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table

#: (group key -> (SUM(v) total, COUNT total)) per partition, in the exact
#: iteration order the executor must produce (value-lexicographic).
PINNED = [
    {
        ("blue", 2): (25.619, 2.0),
        ("blue", 3): (21.73, 2.0),
        ("green", 0): (14.488, 1.0),
        ("green", 2): (19.518, 2.0),
        ("green", 3): (11.338, 1.0),
        ("red", 0): (13.214, 1.0),
        ("red", 2): (24.814999999999998, 2.0),
        ("red", 3): (12.264, 1.0),
    },
    {
        ("blue", 0): (12.489, 1.0),
        ("blue", 2): (11.79, 1.0),
        ("blue", 3): (26.4, 2.0),
        ("green", 0): (26.439, 3.0),
        ("green", 1): (7.306, 1.0),
        ("green", 3): (13.028, 2.0),
        ("red", 0): (8.15, 1.0),
        ("red", 2): (16.775, 1.0),
    },
    {
        ("blue", 1): (10.505, 1.0),
        ("blue", 2): (9.349, 1.0),
        ("blue", 3): (9.517, 1.0),
        ("green", 3): (26.399, 2.0),
        ("red", 0): (10.866, 1.0),
        ("red", 1): (16.14, 1.0),
        ("red", 2): (14.148, 1.0),
        ("red", 3): (17.381999999999998, 2.0),
    },
    {
        ("blue", 0): (9.66, 1.0),
        ("blue", 2): (8.627, 1.0),
        ("green", 1): (37.006, 4.0),
        ("green", 2): (6.336, 1.0),
        ("green", 3): (30.284999999999997, 3.0),
        ("red", 0): (10.789, 1.0),
        ("red", 1): (11.448, 1.0),
        ("red", 2): (31.554000000000002, 2.0),
        ("red", 3): (15.345, 1.0),
    },
]

#: COUNT(*) GROUP BY t, no predicate: every partition covers all 4 dates.
PINNED_COUNTS = [
    {(0,): 2.0, (1,): 3.0, (2,): 6.0, (3,): 4.0},
    {(0,): 6.0, (1,): 1.0, (2,): 2.0, (3,): 6.0},
    {(0,): 2.0, (1,): 5.0, (2,): 2.0, (3,): 6.0},
    {(0,): 2.0, (1,): 5.0, (2,): 4.0, (3,): 4.0},
]


@pytest.fixture(scope="module")
def pinned_ptable():
    schema = Schema.of(
        Column("v", ColumnKind.NUMERIC),
        Column("t", ColumnKind.DATE),
        Column("g", ColumnKind.CATEGORICAL, low_cardinality=True),
    )
    rng = np.random.default_rng(20260729)
    n = 60
    table = Table(
        schema,
        {
            "v": rng.normal(10.0, 4.0, n).round(3),
            "t": rng.integers(0, 4, n),
            "g": rng.choice(["red", "blue", "green"], n),
        },
    )
    return partition_evenly(table, 4)


@pytest.mark.parametrize("path", ["scalar", "batch", "indexed"])
class TestPinnedAnswers:
    def test_grouped_keys_order_and_totals(self, pinned_ptable, path, answers_via):
        query = Query(
            [sum_of(col("v")), count_star(), avg_of(col("v"))],
            Comparison("v", ">", 6.0),
            ("g", "t"),
        )
        answers = answers_via(path, pinned_ptable, query)
        assert len(answers) == len(PINNED)
        # AVG(v) shares the SUM/COUNT components: exactly 2 slots.
        assert query.num_components == 2
        for answer, expected in zip(answers, PINNED):
            assert list(answer.keys()) == list(expected.keys())
            for key, (total, count) in expected.items():
                assert answer[key][0] == total
                assert answer[key][1] == count

    def test_groupby_date_counts(self, pinned_ptable, path, answers_via):
        query = Query([count_star()], None, ("t",))
        answers = answers_via(path, pinned_ptable, query)
        for answer, expected in zip(answers, PINNED_COUNTS):
            assert list(answer.keys()) == list(expected.keys())
            for key, count in expected.items():
                assert answer[key][0] == count

    def test_ungrouped_single_key(self, pinned_ptable, path, answers_via):
        query = Query([count_star(), sum_of(col("v"))])
        answers = answers_via(path, pinned_ptable, query)
        for answer in answers:
            assert list(answer.keys()) == [()]
            assert answer[()][0] == 15.0  # 60 rows over 4 even partitions
