"""Workload executor: differential parity, sharing/dedup, edge cases.

The differential harness (``tests/engine/conftest.py``) runs every case
through all three execution paths; the tests here add the
workload-specific contracts on top: duplicate-query dedup, mask and
factorization sharing, the ``AnswerMatrix`` array views, the lazy
``ComponentAnswer`` compatibility sequence, array-path contributions,
and the edge cases none of the executors had coverage for (predicates
emptying some or all partitions, single-partition tables, duplicate
queries in one workload, groups present in only one partition, empty
partition subsets).

``PartitionedTable`` rejects zero-row partitions by construction, so
"empty partition" here always means a partition whose rows are all
filtered out — plus the batch executor's explicit empty partition-subset
gather, which is the one way a zero-partition execution can happen.
"""

import numpy as np
import pytest

from repro.core.contribution import partition_contributions
from repro.engine.aggregates import avg_of, count_star, sum_of
from repro.engine.batch_executor import BatchExecutor
from repro.engine.expressions import col
from repro.engine.layout import partition_evenly
from repro.engine.predicates import And, Comparison, Contains, InSet, Not, Or
from repro.engine.query import Query
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table
from repro.engine.workload_executor import WorkloadExecutor

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


class TestWorkloadParity:
    def test_training_workload_three_way(self, ptable, three_way):
        """The acceptance case: a >=32-query workload, three paths, bitwise."""
        three_way(ptable, training_workload())

    def test_division_expression_stays_filtered(self, ptable, three_way):
        """`/` must only see surviving rows (scalar error semantics)."""
        queries = [
            Query([sum_of(col("x") / col("x"))], Comparison("x", ">", 3.0), ("cat",)),
            Query([avg_of(col("y") / col("x"))], Comparison("d", "<", 10.0)),
        ]
        three_way(ptable, queries)

    def test_cached_executor_reused_across_calls(self, ptable):
        first = WorkloadExecutor.for_table(ptable)
        second = WorkloadExecutor.for_table(ptable)
        assert first is second
        matrix = second.answer_matrix(training_workload()[:4])
        assert matrix.num_partitions == ptable.num_partitions


class TestSharingAndDedup:
    def test_duplicate_queries_alias_one_block(self, ptable):
        executor = WorkloadExecutor(ptable)
        query = Query([sum_of(col("x"))], Comparison("x", ">", 5.0), ("cat",))
        twin = Query([sum_of(col("x"))], Comparison("x", ">", 5.0), ("cat",))
        other = Query([count_star()], Comparison("x", ">", 5.0), ("d",))
        matrix = executor.answer_matrix([query, other, twin, query])
        assert matrix.block(0) is matrix.block(2)
        assert matrix.block(0) is matrix.block(3)
        assert matrix.block(0) is not matrix.block(1)
        assert executor.query_dedup_hits == 2
        # The lazy dict views alias too, so materialization happens once.
        assert matrix.answers(0) is matrix.answers(2)

    def test_mask_shared_across_queries_with_same_predicate(self, ptable):
        executor = WorkloadExecutor(ptable)
        predicate = Comparison("y", ">", 0.0)
        workload = [
            Query([count_star()], predicate, ("cat",)),
            Query([sum_of(col("x"))], predicate, ("d",)),
            Query([avg_of(col("y"))], predicate),
        ]
        executor.answer_matrix(workload)
        # One compile for the predicate; the other gets() are hits (the
        # factorization lookups hit the same entries again).
        assert executor.mask_plans.misses == 1
        assert executor.mask_plans.hits >= 2

    def test_factorization_shared_across_predicates(self):
        ptable = partition_evenly(build_table(4000), 16)
        executor = WorkloadExecutor(ptable)
        workload = [
            Query([count_star()], Comparison("x", ">", 4.0), ("cat", "d")),
            Query([sum_of(col("y"))], Comparison("x", ">", 8.0), ("cat", "d")),
            Query([count_star()], None, ("d", "cat")),
        ]
        executor.answer_matrix(workload)
        # One encoding per column, on the view the online executor
        # shares, despite three different (group_by, predicate)
        # factorizations.
        assert set(executor.view._encoded) == {"cat", "d"}
        assert BatchExecutor.for_table(ptable).view is executor.view
        assert len(executor._factorizations) == 3

    def test_dedup_never_changes_results(self, ptable, assert_bitwise_equal):
        """Shared-cache answers == fresh-executor per-query answers."""
        workload = training_workload()[:10]
        shared = WorkloadExecutor(ptable).answer_matrix(workload)
        for qi, query in enumerate(workload):
            fresh = WorkloadExecutor(ptable).answer_matrix([query])
            assert_bitwise_equal(
                shared.answers(qi), fresh.answers(0), query.label()
            )


class TestAnswerMatrixViews:
    def test_dense_block_matches_dicts(self, ptable):
        query = Query(
            [sum_of(col("x")), count_star()],
            Comparison("x", ">", 5.0),
            ("cat",),
        )
        matrix = WorkloadExecutor(ptable).answer_matrix([query])
        totals, present = matrix.dense(0)
        keys = matrix.group_keys(0)
        answers = matrix.answers(0)
        assert totals.shape == (ptable.num_partitions, len(keys), 2)
        assert present.shape == (ptable.num_partitions, len(keys))
        for p in range(ptable.num_partitions):
            answer = answers[p]
            for g, key in enumerate(keys):
                if present[p, g]:
                    assert answer[key].tobytes() == totals[p, g].tobytes()
                else:
                    assert key not in answer
            assert len(answer) == int(present[p].sum())

    def test_lazy_view_sequence_protocol(self, ptable):
        query = Query([count_star()], None, ("cat",))
        matrix = WorkloadExecutor(ptable).answer_matrix([query])
        view = matrix.answers(0)
        assert len(view) == ptable.num_partitions
        assert view[-1] == view[ptable.num_partitions - 1]
        assert view[2:4] == [view[2], view[3]]
        assert list(iter(view)) == view.materialize()
        assert view == view.materialize()  # __eq__ against a plain list
        with pytest.raises(IndexError):
            view[ptable.num_partitions]

    def test_lazy_view_equality_with_foreign_arrays(self, ptable, answers_via):
        """__eq__ vs dicts holding *different* array objects (regression:
        plain dict equality truth-tests numpy vectors and raises)."""
        query = Query([sum_of(col("x")), count_star()], None, ("cat",))
        matrix = WorkloadExecutor(ptable).answer_matrix([query])
        view = matrix.answers(0)
        scalar = answers_via("scalar", ptable, query)
        assert view == scalar
        perturbed = [dict(a) for a in scalar]
        perturbed[0][("a",)] = perturbed[0][("a",)] + 1.0
        assert view != perturbed
        assert view != scalar[:-1]

    def test_contributions_match_dict_path_bitwise(self, ptable):
        workload = training_workload()
        matrix = WorkloadExecutor(ptable).answer_matrix(workload)
        for qi, query in enumerate(workload):
            dicts = BatchExecutor.for_table(ptable).partition_answers(query)
            expected = partition_contributions(dicts)
            assert matrix.contributions(qi).tobytes() == expected.tobytes(), (
                query.label()
            )

    def test_contributions_cached_per_block(self, ptable):
        query = Query([count_star()], None, ("cat",))
        matrix = WorkloadExecutor(ptable).answer_matrix([query, query])
        assert matrix.contributions(0) is matrix.contributions(1)


class TestEdgeCases:
    """Coverage for both executors on the previously untested corners."""

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

    def test_predicate_empties_all_partitions(self, ptable, three_way):
        matrix = three_way(ptable, self._edge_queries()[:2])
        assert matrix.answers(0).materialize() == [
            {} for __ in range(ptable.num_partitions)
        ]
        totals, present = matrix.dense(0)
        assert totals.shape[1] == 0 and not present.any()
        assert matrix.contributions(0).tobytes() == np.zeros(
            ptable.num_partitions
        ).tobytes()

    def test_predicate_empties_some_partitions(self, three_way):
        # Sort by d so low-d rows land in the first partitions only.
        from repro.engine.layout import sort_table

        table = sort_table(build_table(600, seed=9), "d")
        ptable = partition_evenly(table, 8)
        matrix = three_way(ptable, self._edge_queries()[2:])
        answers = matrix.answers(0).materialize()
        assert any(not a for a in answers) and any(a for a in answers)

    def test_single_partition_table(self, three_way):
        ptable = partition_evenly(build_table(150, seed=3), 1)
        queries = training_workload()[:12] + self._edge_queries()
        matrix = three_way(ptable, queries)
        assert matrix.num_partitions == 1

    def test_duplicate_queries_in_workload(self, ptable, three_way):
        query = Query([avg_of(col("y"))], Comparison("x", ">", 4.0), ("cat",))
        three_way(ptable, [query, query, query])

    def test_group_present_in_only_one_partition(self, three_way):
        # One 'rare' group value confined to a single partition.
        table = build_table(400, seed=21)
        cat = table.columns["cat"].astype("U8")  # widen past '<U2'
        cat[37] = "only"  # partition 0 of 8 (rows 0..49)
        columns = dict(table.columns)
        columns["cat"] = cat
        ptable = partition_evenly(Table(SCHEMA, columns), 8)
        query = Query([count_star(), sum_of(col("x"))], None, ("cat",))
        matrix = three_way(ptable, [query])
        answers = matrix.answers(0)
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
    all three paths must land on the pairwise one, bit for bit.
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

    def test_three_way_pairwise_parity(self, adversarial_ptable, three_way):
        queries = [
            Query([sum_of(col("y")), count_star()]),
            Query([sum_of(col("y"))], Comparison("x", ">", 2.0)),
            Query([avg_of(col("y"))], None),
        ]
        matrix = three_way(adversarial_ptable, queries)
        # Pin the actual pairwise totals explicitly.
        answers = matrix.answers(0)
        for partition, answer in zip(adversarial_ptable, answers):
            expected = partition.column("y").sum()
            assert answer[()][0] == expected
