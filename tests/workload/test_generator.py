"""Unit tests for workload specs and the random query generator."""

import pytest

from repro.engine.aggregates import AggFunc
from repro.errors import ConfigError
from repro.workload.generator import QueryGenerator
from repro.workload.spec import WorkloadSpec


@pytest.fixture(scope="module")
def generator(tpch_ptable, tpch_workload):
    return QueryGenerator(tpch_workload, tpch_ptable.table, seed=99)


class TestWorkloadSpec:
    def test_validate_against_schema(self, tpch_ptable, tpch_workload):
        tpch_workload.validate_against(tpch_ptable.table.schema)  # no raise

    def test_unknown_column_rejected(self, tpch_ptable):
        spec = WorkloadSpec(
            groupby_universe=("nope",),
            aggregate_columns=("l_quantity",),
            predicate_columns=(),
        )
        with pytest.raises(Exception):
            spec.validate_against(tpch_ptable.table.schema)

    def test_non_numeric_aggregate_rejected(self, tpch_ptable):
        spec = WorkloadSpec(
            groupby_universe=(),
            aggregate_columns=("l_returnflag",),
            predicate_columns=(),
        )
        with pytest.raises(ConfigError):
            spec.validate_against(tpch_ptable.table.schema)

    def test_needs_aggregate_targets(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(
                groupby_universe=(), aggregate_columns=(), predicate_columns=()
            )


class TestGeneratedQueries:
    def test_queries_respect_scope_caps(self, generator, tpch_workload):
        for __ in range(50):
            query = generator.sample_query()
            assert 1 <= len(query.aggregates) <= tpch_workload.max_aggregates
            assert len(query.group_by) <= tpch_workload.max_groupby_columns
            assert (
                query.num_predicate_clauses()
                <= tpch_workload.max_predicate_clauses
            )

    def test_group_by_from_universe(self, generator, tpch_workload):
        universe = set(tpch_workload.groupby_universe)
        for __ in range(50):
            query = generator.sample_query()
            assert set(query.group_by) <= universe

    def test_predicates_from_declared_columns(self, generator, tpch_workload):
        allowed = set(tpch_workload.predicate_columns)
        for __ in range(50):
            query = generator.sample_query()
            assert query.predicate_columns() <= allowed

    def test_aggregate_functions_in_scope(self, generator):
        seen = set()
        for __ in range(80):
            query = generator.sample_query()
            for aggregate in query.aggregates:
                seen.add(aggregate.func)
        assert seen <= {AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG}
        assert AggFunc.SUM in seen and AggFunc.COUNT in seen

    def test_queries_are_executable(self, generator, tpch_ptable):
        from scalar_oracle import execute_on_table

        for __ in range(20):
            query = generator.sample_query()
            execute_on_table(tpch_ptable.table, query)  # must not raise

    def test_constants_drawn_from_data(self, generator, tpch_ptable):
        """Range predicates should rarely be trivially empty."""
        from scalar_oracle import execute_on_table

        nonempty = 0
        total = 30
        for __ in range(total):
            query = generator.sample_query()
            if execute_on_table(tpch_ptable.table, query):
                nonempty += 1
        assert nonempty >= total * 0.5


class TestSplit:
    def test_train_test_disjoint(self, generator):
        train, test = generator.train_test_split(20, 10)
        train_labels = {q.label() for q in train}
        test_labels = {q.label() for q in test}
        assert len(train_labels) == 20
        assert len(test_labels) == 10
        assert train_labels.isdisjoint(test_labels)

    def test_exclusion_respected(self, generator):
        first = generator.sample_queries(5)
        labels = {q.label() for q in first}
        second = generator.sample_queries(5, exclude=labels)
        assert labels.isdisjoint({q.label() for q in second})

    def test_determinism_per_seed(self, tpch_ptable, tpch_workload):
        a = QueryGenerator(tpch_workload, tpch_ptable.table, seed=5).sample_query()
        b = QueryGenerator(tpch_workload, tpch_ptable.table, seed=5).sample_query()
        assert a.label() == b.label()

    def test_impossible_dedup_raises(self, tpch_ptable):
        # A spec so narrow that distinct queries run out quickly.
        spec = WorkloadSpec(
            groupby_universe=(),
            aggregate_columns=("l_quantity",),
            predicate_columns=(),
            max_groupby_columns=0,
            max_predicate_clauses=0,
            max_aggregates=1,
        )
        generator = QueryGenerator(spec, tpch_ptable.table, seed=0)
        with pytest.raises(ConfigError, match="distinct"):
            generator.sample_queries(50)
