"""The executor's answer block: oracle parity, both views, edge cases.

The differential harness (``tests/engine/conftest.py``) compares every
case against the scalar oracle through the block's dict views and its
arrays; the tests here add the block's own contracts on top: the
sequence protocol, equality against plain lists, array-path
contributions, partition-id range checks, freedom from reference
cycles, and the edge cases (predicates emptying some or all partitions,
single-partition tables, duplicate queries, groups present in only one
partition, empty partition subsets).

``PartitionedTable`` rejects zero-row partitions by construction, so
"empty partition" here always means a partition whose rows are all
filtered out — plus the executor's explicit empty partition-subset
gather, which is the one way a zero-partition execution can happen.
"""

import gc
import weakref

import numpy as np
import pytest
from scalar_oracle import partition_contributions

from repro.engine.aggregates import avg_of, count_star, sum_of
from repro.engine.batch_executor import BatchExecutor
from repro.engine.expressions import col
from repro.engine.layout import partition_evenly
from repro.engine.predicates import And, Comparison, Contains, InSet, Not, Or
from repro.engine.query import Query
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table
from repro.errors import ConfigError

SCHEMA = Schema.of(
    Column("x", ColumnKind.NUMERIC, positive=True),
    Column("y", ColumnKind.NUMERIC),
    Column("d", ColumnKind.DATE),
    Column("cat", ColumnKind.CATEGORICAL, low_cardinality=True),
    Column("tag", ColumnKind.CATEGORICAL),
)


def build_table(num_rows: int, seed: int = 5, days: int = 40) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        SCHEMA,
        {
            "x": rng.exponential(10.0, num_rows) + 1.0,
            "y": rng.normal(0.0, 5.0, num_rows).round(3),
            "d": rng.integers(0, days, num_rows),
            "cat": rng.choice(["a", "b", "c", "dd"], num_rows),
            "tag": rng.choice([f"t{i:03d}" for i in range(40)], num_rows),
        },
    )


def training_workload() -> list[Query]:
    """A >= 32-query workload with deliberate predicate/group-by overlap."""
    range_pred = And([Comparison("x", ">", 2.0), Comparison("d", "<=", 25.0)])
    tail_pred = Or([Comparison("y", "<", -4.0), Comparison("y", ">", 4.0)])
    queries: list[Query] = []
    for group_by in [(), ("cat",), ("d",), ("cat", "d")]:
        queries.append(Query([sum_of(col("x")), count_star()], range_pred, group_by))
        queries.append(Query([avg_of(col("y"))], tail_pred, group_by))
        queries.append(Query([count_star()], InSet("cat", {"a", "c"}), group_by))
        queries.append(Query([sum_of(col("x") + col("y"))], None, group_by))
        queries.append(
            Query(
                [count_star(), sum_of(col("y"))],
                Not(And([Comparison("x", ">", 1.0), InSet("cat", {"b"})])),
                group_by,
            )
        )
        queries.append(Query([sum_of(col("y") * 2.0 - 1.0)], range_pred, group_by))
        queries.append(Query([avg_of(col("x"))], Contains("tag", "t01"), group_by))
        queries.append(Query([count_star()], Comparison("d", "==", 7.0), group_by))
    assert len(queries) >= 32
    return queries


@pytest.fixture(scope="module")
def ptable():
    return partition_evenly(build_table(4000), 16)


class TestOracleParity:
    def test_training_workload(self, ptable, oracle_parity):
        """The acceptance case: a >=32-query workload, both views, bitwise."""
        oracle_parity(ptable, training_workload())

    def test_division_expression_stays_filtered(self, ptable, oracle_parity):
        """`/` must only see surviving rows (scalar error semantics)."""
        queries = [
            Query([sum_of(col("x") / col("x"))], Comparison("x", ">", 3.0), ("cat",)),
            Query([avg_of(col("y") / col("x"))], Comparison("d", "<", 10.0)),
        ]
        oracle_parity(ptable, queries)

    def test_one_encoding_per_column_across_predicates(self):
        ptable = partition_evenly(build_table(4000), 16)
        executor = BatchExecutor.for_table(ptable)
        workload = [
            Query([count_star()], Comparison("x", ">", 4.0), ("cat", "d")),
            Query([sum_of(col("y"))], Comparison("x", ">", 8.0), ("cat", "d")),
            Query([count_star()], None, ("d", "cat")),
        ]
        for query in workload:
            executor.partition_answers(query)
        # One encoding per grouped column on the table's view, whatever
        # the predicate or the grouping order.
        assert set(executor.view._encoded) == {"cat", "d"}


class TestBlockViews:
    def test_sequence_protocol(self, ptable):
        query = Query([count_star()], None, ("cat",))
        block = BatchExecutor.for_table(ptable).partition_answers(query)
        assert len(block) == ptable.num_partitions
        assert block[-1] == block[ptable.num_partitions - 1]
        assert block[2:4] == [block[2], block[3]]
        assert block == list(block)  # __eq__ against a plain list
        with pytest.raises(IndexError):
            block[ptable.num_partitions]
        with pytest.raises(IndexError):
            block[-ptable.num_partitions - 1]

    def test_equality_with_foreign_arrays(self, ptable, answers_via):
        """__eq__ vs dicts holding *different* array objects (regression:
        plain dict equality truth-tests numpy vectors and raises)."""
        query = Query([sum_of(col("x")), count_star()], None, ("cat",))
        block = answers_via("batch", ptable, query)
        scalar = answers_via("scalar", ptable, query)
        assert block == scalar
        perturbed = [dict(a) for a in scalar]
        perturbed[0][("a",)] = perturbed[0][("a",)] + 1.0
        assert block != perturbed
        assert block != scalar[:-1]

    def test_contributions_match_dict_path_bitwise(self, ptable, answers_via):
        for query in training_workload():
            block = answers_via("batch", ptable, query)
            for dicts in (list(block), answers_via("scalar", ptable, query)):
                expected = partition_contributions(dicts)
                assert block.contributions().tobytes() == expected.tobytes(), (
                    query.label()
                )

    def test_contributions_cached_per_block(self, ptable):
        query = Query([count_star()], None, ("cat",))
        block = BatchExecutor.for_table(ptable).partition_answers(query)
        assert block.contributions() is block.contributions()

    def test_block_is_free_without_the_collector(self, ptable):
        """No reference cycle: a dropped block dies with ``gc`` off.

        (Its memoized dict view used to point back at it, so a re-fit
        left the previous fit's answer blocks to the cycle collector.)
        """
        query = Query([sum_of(col("x")), count_star()], None, ("cat",))
        gc.disable()
        try:
            block = BatchExecutor.for_table(ptable).partition_answers(query)
            assert len(list(block)) == ptable.num_partitions
            assert block[0] and block.contributions().size
            ref = weakref.ref(block)
            del block
            assert ref() is None
        finally:
            gc.enable()


class TestPartitionIdRange:
    """One range check, in the kernel: an id outside ``0..n-1`` is a
    typed error naming it — ``[-2]`` used to answer from the end."""

    @pytest.mark.parametrize("offset", [-2, -1, 0], ids=["-2", "-1", "n"])
    def test_out_of_range_id_is_a_config_error(self, ptable, offset):
        bad = offset if offset < 0 else ptable.num_partitions
        executor = BatchExecutor.for_table(ptable)
        for query in (
            Query([count_star()], None, ("cat",)),
            Query([sum_of(col("x"))], Comparison("x", ">", 5.0)),
        ):
            with pytest.raises(ConfigError, match=f"partition {bad} is outside"):
                executor.partition_answers(query, partitions=[0, bad])

    @pytest.mark.parametrize(
        "partitions",
        [[2.7, True], [1, True], [True], [np.True_, 2], np.array([2.0, 1.0])],
    )
    def test_non_integer_id_is_a_config_error(self, ptable, partitions):
        # ``[2.7, True]`` used to read partitions 2 and 1.
        executor = BatchExecutor.for_table(ptable)
        for query in (
            Query([count_star()], None, ("cat",)),
            Query([sum_of(col("x"))], Comparison("x", ">", 5.0)),
        ):
            with pytest.raises(ConfigError, match="must be integers"):
                executor.partition_answers(query, partitions=partitions)

    def test_integer_numpy_ids_read_their_partitions(self, ptable):
        executor = BatchExecutor.for_table(ptable)
        query = Query([sum_of(col("x"))], Comparison("x", ">", 5.0), ("cat",))
        numpy_ids = [np.int64(3), np.int32(0), np.uint16(15)]
        assert executor.partition_answers(query, partitions=numpy_ids) == (
            executor.partition_answers(query, partitions=[3, 0, 15])
        )


class TestEdgeCases:
    """Coverage for the previously untested corners."""

    def _edge_queries(self):
        return [
            # Matches zero rows everywhere.
            Query(
                [sum_of(col("x")), count_star()],
                Comparison("y", ">", 1e9),
                ("cat",),
            ),
            Query([count_star()], Comparison("y", ">", 1e9)),
            # Matches rows in only some partitions (d is sorted-ish ranges
            # on the partitioned fixture below).
            Query(
                [count_star(), avg_of(col("x"))],
                Comparison("d", "==", 0.0),
                ("cat",),
            ),
            Query([sum_of(col("y"))], Comparison("d", "<", 2.0)),
        ]

    def test_predicate_empties_all_partitions(self, ptable, oracle_parity):
        grouped, ungrouped = oracle_parity(ptable, self._edge_queries()[:2])
        assert list(grouped) == [{} for __ in range(ptable.num_partitions)]
        assert grouped.keys == [] and ungrouped.keys == [()]
        assert grouped.totals.shape == (0, 2) and grouped.live.size == 0
        assert grouped.contributions().tobytes() == np.zeros(
            ptable.num_partitions
        ).tobytes()

    def test_predicate_empties_some_partitions(self, oracle_parity):
        # Sort by d so low-d rows land in the first partitions only.
        from repro.engine.layout import sort_table

        table = sort_table(build_table(600, seed=9), "d")
        ptable = partition_evenly(table, 8)
        answers = list(oracle_parity(ptable, self._edge_queries()[2:])[0])
        assert any(not a for a in answers) and any(a for a in answers)

    def test_single_partition_table(self, oracle_parity):
        ptable = partition_evenly(build_table(150, seed=3), 1)
        queries = training_workload()[:12] + self._edge_queries()
        blocks = oracle_parity(ptable, queries)
        assert all(block.num_partitions == 1 for block in blocks)

    def test_duplicate_queries_in_workload(self, ptable, oracle_parity):
        query = Query([avg_of(col("y"))], Comparison("x", ">", 4.0), ("cat",))
        oracle_parity(ptable, [query, query, query])

    def test_group_present_in_only_one_partition(self, oracle_parity):
        # One 'rare' group value confined to a single partition.
        table = build_table(400, seed=21)
        cat = table.columns["cat"].astype("U8")  # widen past '<U2'
        cat[37] = "only"  # partition 0 of 8 (rows 0..49)
        columns = dict(table.columns)
        columns["cat"] = cat
        ptable = partition_evenly(Table(SCHEMA, columns), 8)
        query = Query([count_star(), sum_of(col("x"))], None, ("cat",))
        answers = oracle_parity(ptable, [query])[0]
        present_in = [p for p in range(8) if ("only",) in answers[p]]
        assert present_in == [0]
        assert answers[0][("only",)][0] == 1.0

    def test_empty_partition_subset_gather(self, ptable):
        """The one true zero-partition execution: an empty subset."""
        query = Query([count_star()], None, ("cat",))
        assert BatchExecutor.for_table(ptable).partition_answers(
            query, partitions=[]
        ) == []
        assert BatchExecutor.for_table(ptable).partition_answers(
            query, partitions=np.empty(0, dtype=np.intp)
        ) == []


class TestUngroupedSummationOrder:
    """Regression pin for the scalar `values.sum()` (pairwise) contract.

    Ungrouped SUM answers must come from numpy's *pairwise* summation of
    each partition's surviving values — not the sequential left-to-right
    chain a bincount reduction would produce. The fixture data is chosen
    so the two orders give different float64 results in every partition;
    the executor must land on the pairwise one, bit for bit.
    """

    @pytest.fixture()
    def adversarial_ptable(self):
        num_rows = 7000
        rng = np.random.default_rng(1234)
        spikes = np.where(np.arange(num_rows) % 7 == 0, 1e9, 1.0)
        values = (rng.uniform(0.0, 1.0, num_rows) * spikes).round(6)
        table = build_table(num_rows, seed=8)
        columns = dict(table.columns)
        columns["y"] = values
        return partition_evenly(Table(SCHEMA, columns), 4)

    def test_pairwise_differs_from_sequential_here(self, adversarial_ptable):
        """The fixture discriminates: sequential order would be wrong."""
        for partition in adversarial_ptable:
            values = partition.column("y")
            sequential = np.bincount(
                np.zeros(len(values), dtype=np.intp), weights=values
            )[0]
            assert values.sum() != sequential

    def test_pairwise_parity(self, adversarial_ptable, oracle_parity):
        queries = [
            Query([sum_of(col("y")), count_star()]),
            Query([sum_of(col("y"))], Comparison("x", ">", 2.0)),
            Query([avg_of(col("y"))], None),
        ]
        answers = oracle_parity(adversarial_ptable, queries)[0]
        # Pin the actual pairwise totals explicitly.
        for partition, answer in zip(adversarial_ptable, answers):
            expected = partition.column("y").sum()
            assert answer[()][0] == expected
