"""Unit tests for the high-level PS3 facade."""

import numpy as np
import pytest

from repro.api import PS3, answer_with_selection
from repro.engine.aggregates import avg_of, count_star, sum_of
from repro.engine.combiner import WeightedChoice
from repro.engine.expressions import col
from repro.engine.predicates import Comparison
from repro.engine.query import Query
from repro.errors import ConfigError, NotFittedError


@pytest.fixture(scope="module")
def query():
    return Query(
        [sum_of(col("l_extendedprice")), avg_of(col("l_quantity"))],
        Comparison("l_quantity", ">", 20.0),
        ("l_returnflag",),
    )


class TestLifecycle:
    def test_query_before_fit_raises(self, tpch_ptable, tpch_workload):
        system = PS3(tpch_ptable, tpch_workload)
        with pytest.raises(NotFittedError):
            system.query(Query([count_star()]), budget_partitions=2)

    def test_fit_returns_self(self, trained_ps3):
        assert trained_ps3.model is not None
        assert trained_ps3.picker is not None

    def test_storage_overhead_positive(self, trained_ps3):
        assert trained_ps3.storage_overhead_bytes() > 0


class TestBudgets:
    def test_exactly_one_budget_required(self, trained_ps3, query):
        with pytest.raises(ConfigError):
            trained_ps3.query(query)
        with pytest.raises(ConfigError):
            trained_ps3.query(query, budget_partitions=2, budget_fraction=0.5)

    def test_fraction_rounds_to_partitions(self, trained_ps3, query, tpch_ptable):
        answer = trained_ps3.query(query, budget_fraction=0.25)
        assert answer.budget == round(0.25 * tpch_ptable.num_partitions)

    def test_invalid_fraction(self, trained_ps3, query):
        with pytest.raises(ConfigError):
            trained_ps3.query(query, budget_fraction=0.0)
        with pytest.raises(ConfigError):
            trained_ps3.query(query, budget_fraction=1.5)

    def test_invalid_partition_count(self, trained_ps3, query):
        with pytest.raises(ConfigError):
            trained_ps3.query(query, budget_partitions=0)


class TestAnswers:
    def test_full_budget_is_exact(self, trained_ps3, query, tpch_ptable):
        answer = trained_ps3.query(
            query, budget_partitions=tpch_ptable.num_partitions
        )
        exact = trained_ps3.execute_exact(query)
        assert set(answer.groups) == set(exact)
        for key in exact:
            np.testing.assert_allclose(answer.groups[key], exact[key])
        report = trained_ps3.evaluate(query, answer)
        assert report.avg_relative_error == pytest.approx(0.0, abs=1e-12)

    def test_partial_budget_reasonable(self, trained_ps3, query):
        answer = trained_ps3.query(query, budget_fraction=0.5)
        report = trained_ps3.evaluate(query, answer)
        assert report.avg_relative_error < 0.6

    def test_answer_metadata(self, trained_ps3, query, tpch_ptable):
        answer = trained_ps3.query(query, budget_partitions=4)
        assert answer.num_partitions == tpch_ptable.num_partitions
        assert 0 < len(answer.selection.selection) <= 4
        assert answer.aggregate_labels() == (
            "SUM(l_extendedprice)",
            "AVG(l_quantity)",
        )

    def test_query_only_reads_selected_partitions(self, trained_ps3, query):
        answer = trained_ps3.query(query, budget_partitions=3)
        assert len(answer.selection.selection) <= 3


class TestAnswerWithSelection:
    def test_matches_manual_combination(self, tpch_ptable, query):
        selection = [WeightedChoice(0, 2.0), WeightedChoice(5, 1.0)]
        final = answer_with_selection(tpch_ptable, query, selection)
        assert final  # some groups found
        for vec in final.values():
            assert vec.shape == (2,)

    def test_subset_path_bit_identical_to_full_table_path(
        self, tpch_ptable, query
    ):
        """Regression: the helper executes only the selected partitions
        (subset gather). The answer must match the historical full-table
        pass bit for bit."""
        from repro.engine.batch_executor import BatchExecutor
        from dict_walk import estimate

        selection = [
            WeightedChoice(9, 1.5),
            WeightedChoice(2, 0.75),
            WeightedChoice(21, 2.0),
        ]
        subset = answer_with_selection(tpch_ptable, query, selection)
        full = estimate(
            query,
            BatchExecutor.for_table(tpch_ptable).partition_answers(query),
            selection,
        )
        assert list(subset.keys()) == list(full.keys())
        for key in full:
            assert subset[key].tobytes() == full[key].tobytes(), key

    def test_matches_scalar_reference(self, tpch_ptable, query):
        from dict_walk import estimate
        from scalar_oracle import execute_on_partition

        selection = [WeightedChoice(3, 1.0), WeightedChoice(11, 0.5)]
        fused = answer_with_selection(tpch_ptable, query, selection)
        scalar = estimate(
            query,
            [execute_on_partition(p, query) for p in tpch_ptable],
            selection,
        )
        assert list(fused.keys()) == list(scalar.keys())
        for key in scalar:
            assert fused[key].tobytes() == scalar[key].tobytes(), key
