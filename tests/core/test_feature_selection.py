"""Unit tests for Algorithm 3 feature selection."""

import pytest

import repro.core.feature_selection as feature_selection
from repro.core.feature_selection import (
    ClusteringErrorEvaluator,
    greedy_feature_selection,
)
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def evaluator(trained_ps3):
    return ClusteringErrorEvaluator(
        trained_ps3.feature_builder.schema,
        trained_ps3.training_data,
        budget_fractions=(0.25,),
        max_queries=5,
        seed=0,
    )


class TestEvaluator:
    def test_error_is_finite_for_empty_exclusion(self, evaluator):
        error = evaluator.error(frozenset())
        assert 0.0 <= error < float("inf")

    def test_excluding_everything_is_infinite(self, evaluator, trained_ps3):
        families = frozenset(trained_ps3.feature_builder.schema.families())
        assert evaluator.error(families) == float("inf")

    def test_cache_hits_are_consistent(self, evaluator):
        excluded = frozenset({"min(x)"})
        assert evaluator.error(excluded) == evaluator.error(excluded)

    def test_requires_trained_data(self, trained_ps3):
        from repro.core.training import TrainingData

        empty = TrainingData([], [], [], [], [])
        with pytest.raises(ConfigError):
            ClusteringErrorEvaluator(trained_ps3.feature_builder.schema, empty)


class TestEstimationPathParity:
    def test_block_and_dict_errors_identical(
        self, trained_ps3, dict_oracle_estimator, monkeypatch
    ):
        """Exclusion-set scoring must equal the dict walk's, bit for bit."""
        kwargs = dict(
            budget_fractions=(0.25,),
            max_queries=4,
            seed=3,
        )
        schema = trained_ps3.feature_builder.schema
        block = ClusteringErrorEvaluator(schema, trained_ps3.training_data, **kwargs)
        dict_ = ClusteringErrorEvaluator(schema, trained_ps3.training_data, **kwargs)
        for excluded in (frozenset(), frozenset({"min(x)"})):
            block_error = block.error(excluded)
            with monkeypatch.context() as patch:
                patch.setattr(
                    feature_selection, "BlockEstimator", dict_oracle_estimator
                )
                assert dict_.error(excluded) == block_error
        scorers = {type(score.__self__) for __, ___, score in dict_._prepared}
        assert scorers == {dict_oracle_estimator}

    def test_truth_prepared_once_across_exclusion_sets(self, evaluator):
        evaluator.error(frozenset({"max(x)"}))
        prepared = evaluator._prepared
        assert prepared is not None
        evaluator.error(frozenset({"min(x)", "max(x)"}))
        assert evaluator._prepared is prepared


class TestGreedySearch:
    def test_never_excludes_selectivity_upper(self, evaluator, trained_ps3):
        excluded = greedy_feature_selection(
            trained_ps3.feature_builder.schema, evaluator, rounds=1, seed=0
        )
        assert "selectivity_upper" not in excluded

    def test_result_never_worse_than_baseline(self, evaluator, trained_ps3):
        baseline = evaluator.error(frozenset())
        excluded = greedy_feature_selection(
            trained_ps3.feature_builder.schema, evaluator, rounds=1, seed=1
        )
        assert evaluator.error(excluded) <= baseline
