"""Unit tests for picker training."""

import time

import numpy as np
import pytest

from repro.api import PS3
from repro.bench.profiles import get_profile
from repro.core.labels import exponential_thresholds, labels_for_query
from repro.core.training import (
    TrainingConfig,
    compute_training_data,
    regressor_feature_importance_by_category,
    train_picker_model,
)
from repro.datasets.registry import get_dataset
from repro.engine.batch_executor import BatchExecutor
from repro.errors import ConfigError
from repro.workload.generator import QueryGenerator


@pytest.fixture(scope="module")
def trained(tpch_ptable, tpch_queries, trained_ps3):
    # Reuse the session-trained system's model and data.
    return trained_ps3.model, trained_ps3.training_data


class TestTrainingData:
    def test_artifact_shapes(self, tpch_ptable, tpch_queries, trained_ps3):
        __, data = trained_ps3.model, trained_ps3.training_data
        n = tpch_ptable.num_partitions
        assert len(data.queries) == len(data.features) == len(data.contributions)
        for features, contributions in zip(data.features, data.contributions):
            assert features.shape[0] == n
            assert contributions.shape == (n,)
            assert np.all((contributions >= 0) & (contributions <= 1))

    def test_normalized_filled_after_training(self, trained):
        __, data = trained
        assert len(data.normalized) == len(data.features)

    def test_compute_without_training(
        self, tpch_ptable, trained_ps3, tpch_queries
    ):
        train, __ = tpch_queries
        data = compute_training_data(
            tpch_ptable, trained_ps3.feature_builder, train[:2]
        )
        assert data.normalized == []
        assert len(data.answers) == 2

    def test_duplicate_queries_alias_one_block(
        self, tpch_ptable, trained_ps3, tpch_queries, monkeypatch
    ):
        """``Query`` is a value object: an equal query is answered once."""
        train, __ = tpch_queries
        query, other = train[0], train[1]
        twin = type(query)(query.aggregates, query.predicate, query.group_by)
        assert twin == query and twin is not query
        executed = []
        answer = BatchExecutor.partition_answers

        def counting(self, query, partitions=None):
            executed.append(query)
            return answer(self, query, partitions)

        monkeypatch.setattr(BatchExecutor, "partition_answers", counting)
        data = compute_training_data(
            tpch_ptable, trained_ps3.feature_builder, [query, other, twin, query]
        )
        assert data.answers[0] is data.answers[2] is data.answers[3]
        assert data.answers[0] is not data.answers[1]
        assert data.contributions[0] is data.contributions[2]
        assert executed == [query, other]


class TestModel:
    def test_k_regressors_fitted(self, trained):
        model, __ = trained
        assert len(model.regressors) == TrainingConfig().num_models
        assert all(r.fitted for r in model.regressors)

    def test_thresholds_monotone(self, trained):
        model, __ = trained
        assert np.all(np.diff(model.thresholds) >= 0)
        assert model.thresholds[0] == 0.0

    def test_clustering_indices_full_without_selection(self, trained):
        model, __ = trained
        indices = model.clustering_feature_indices()
        assert indices.size == model.feature_builder.schema.dimension

    def test_clustering_indices_respect_exclusions(self, trained):
        model, __ = trained
        model.excluded_families = frozenset({"min(x)"})
        try:
            indices = model.clustering_feature_indices()
            schema = model.feature_builder.schema
            excluded = {
                info.index for info in schema.features if info.family == "min(x)"
            }
            assert excluded.isdisjoint(indices.tolist())
        finally:
            model.excluded_families = frozenset()

    def test_empty_training_set_rejected(self, tpch_ptable, trained_ps3):
        with pytest.raises(ConfigError):
            train_picker_model(tpch_ptable, trained_ps3.feature_builder, [])


class TestFeatureImportance:
    def test_categories_sum_to_100(self, trained):
        model, __ = trained
        shares = regressor_feature_importance_by_category(model)
        assert set(shares) == {"selectivity", "hh", "dv", "measure"}
        assert sum(shares.values()) == pytest.approx(100.0, abs=1e-6)
        assert all(v >= 0 for v in shares.values())


class TestConfigValidation:
    def test_bad_num_models(self):
        with pytest.raises(ConfigError):
            TrainingConfig(num_models=0)

    def test_bad_top_fraction(self):
        with pytest.raises(ConfigError):
            TrainingConfig(top_fraction=0.0)

    # Each of these used to construct fine and fail only inside ``fit``
    # (GBRT's ConfigError, or numpy's TypeError for the seed).
    @pytest.mark.parametrize(
        "field, value",
        [
            ("gbrt_trees", 0),
            ("gbrt_trees", 2.0),
            ("gbrt_depth", 0),
            ("gbrt_depth", -1),
            ("gbrt_learning_rate", float("nan")),
            ("gbrt_learning_rate", 0.0),
            ("gbrt_learning_rate", 1.5),
            ("gbrt_learning_rate", float("inf")),
            ("gbrt_colsample", 0.0),
            ("gbrt_colsample", float("nan")),
            ("gbrt_colsample", 1.01),
            ("seed", 1.5),
            ("seed", True),
            ("num_models", True),
            ("top_fraction", "0.1"),
        ],
    )
    def test_rejected_at_construction(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainingConfig(**{field: value})

    def test_edges_and_numpy_scalars_accepted(self):
        config = TrainingConfig(
            gbrt_trees=np.int64(1),
            gbrt_depth=1,
            gbrt_learning_rate=1.0,
            gbrt_colsample=np.float64(1.0),
            seed=np.int32(-3),
        )
        assert config.gbrt_trees == 1


class TestFunnelLabels:
    @pytest.mark.xfail(
        strict=True,
        reason="exponential_thresholds lands on the tied maximum contribution "
        "(1.0) and labels_for_query compares with a strict '>', so the last "
        "funnel stages train on zero positives and fit no tree; the fix "
        "changes selections and belongs to ROADMAP direction 1(c)",
    )
    def test_every_funnel_stage_has_a_positive_label_on_kdd(self):
        dataset = get_dataset("kdd")
        ptable = dataset.build(64 * 125, 64, seed=22)
        generator = QueryGenerator(dataset.workload(), ptable.table, seed=22)
        train, __ = generator.train_test_split(16, 0)
        executor = BatchExecutor.for_table(ptable)
        contributions = [executor.partition_answers(q).contributions() for q in train]
        config = TrainingConfig()
        thresholds = exponential_thresholds(
            contributions, config.num_models, config.top_fraction
        )
        positives = [
            sum(int((labels_for_query(c, float(t)) > 0).sum()) for c in contributions)
            for t in thresholds
        ]
        assert min(positives) >= 1, (thresholds.tolist(), positives)


#: Wall-clock allowance for one ``slow`` test: all but the two exhaustive
#: kill-point sweeps finish in under 40 s. The test below takes ≈ 20 s;
#: with the per-node split search its training alone took 80 s.
SLOW_TEST_BUDGET_S = 120.0


@pytest.mark.slow
def test_trains_on_400_kdd_queries_end_to_end():
    """The paper's training-set size (400 queries), on the default profile."""
    started = time.perf_counter()
    profile = get_profile("default")
    dataset = get_dataset("kdd")
    ptable = dataset.build(
        profile.num_rows, profile.num_partitions, seed=profile.seed
    )
    generator = QueryGenerator(dataset.workload(), ptable.table, seed=profile.seed)
    train, held_out = generator.train_test_split(400, 4)
    ps3 = PS3(ptable, dataset.workload()).fit(train)
    rows = 400 * profile.num_partitions
    assert sum(len(m) for m in ps3.training_data.normalized) == rows
    assert ps3.model.regressors[0].num_trees_fitted == TrainingConfig().gbrt_trees
    for query in held_out:
        answer = ps3.query(query, budget_fraction=0.1)
        assert 1 <= len(answer.selection.selection) <= 10
    assert time.perf_counter() - started < SLOW_TEST_BUDGET_S
