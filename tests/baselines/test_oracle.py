"""Unit tests for the oracle importance picker."""

import numpy as np
import pytest
from scalar_oracle import partition_contributions

from repro.baselines.oracle import OraclePicker
from repro.bench.pickers import NoRegressors
from repro.core.picker import PickerConfig
from repro.engine.aggregates import sum_of
from repro.engine.batch_executor import BatchExecutor
from repro.engine.expressions import col
from repro.engine.predicates import Comparison
from repro.engine.query import Query


@pytest.fixture(scope="module")
def oracle(trained_ps3):
    return OraclePicker(
        trained_ps3.model,
        trained_ps3.ptable,
        PickerConfig(seed=3),
    )


@pytest.fixture(scope="module")
def query():
    return Query(
        [sum_of(col("l_extendedprice"))],
        Comparison("l_quantity", ">", 25.0),
        ("l_returnflag",),
    )


class TestOracle:
    def test_grouping_uses_true_contributions(self, oracle, trained_ps3, query):
        answers = BatchExecutor.for_table(trained_ps3.ptable).partition_answers(query)
        contributions = partition_contributions(answers)
        features = trained_ps3.feature_builder.features_for_query(query)
        normalized = trained_ps3.model.normalizer.transform(features.matrix)
        inliers = features.passing_partitions()
        columns = np.arange(normalized.shape[1])
        groups = oracle._group_inliers(query, normalized, inliers, columns)
        assert len(groups) == len(trained_ps3.model.thresholds) + 1
        # Verify funnel semantics against the thresholds directly.
        for level, members in enumerate(groups[:-1]):
            if members.size and level < len(trained_ps3.model.thresholds):
                upper = trained_ps3.model.thresholds[level]
                assert np.all(contributions[members] <= upper)

    def test_selection_within_budget(self, oracle, query):
        result = oracle.select(query, 5)
        assert 0 < len(result.selection) <= 5

    def test_weights_cover_passing(self, oracle, trained_ps3, query):
        features = trained_ps3.feature_builder.features_for_query(query)
        passing = features.passing_partitions().size
        result = oracle.select(query, 6)
        assert sum(c.weight for c in result.selection) == pytest.approx(
            float(passing)
        )

    def test_regressor_lesion_collapses_groups(self, trained_ps3, query):
        class OracleWithoutRegressors(NoRegressors, OraclePicker):
            pass

        oracle = OracleWithoutRegressors(trained_ps3.model, trained_ps3.ptable)
        result = oracle.select(query, 5)
        assert len(result.group_sizes) == 1
