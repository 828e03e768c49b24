"""Unit tests for the modified Learned Stratified Sampling baseline."""

import numpy as np
import pytest

import repro.baselines.lss as lss
from repro.baselines.lss import LSSSampler, stratified_select
from repro.engine.combiner import WeightedChoice
from repro.errors import ConfigError, NotFittedError


class TestStratifiedSelect:
    def test_proportional_allocation(self):
        rng = np.random.default_rng(0)
        ranked = np.arange(40)
        selection = stratified_select(ranked, budget=10, stratum_size=10, rng=rng)
        assert len(selection) == 10
        # Four strata of 10, each should get ~2-3 samples.
        strata_hits = np.zeros(4)
        for choice in selection:
            strata_hits[choice.partition // 10] += 1
        assert strata_hits.min() >= 1

    def test_weights_reconstruct_population(self):
        rng = np.random.default_rng(1)
        ranked = np.arange(30)
        selection = stratified_select(ranked, budget=12, stratum_size=6, rng=rng)
        assert sum(c.weight for c in selection) == pytest.approx(30.0)

    def test_budget_at_total_returns_all(self):
        rng = np.random.default_rng(2)
        selection = stratified_select(np.arange(8), 8, 3, rng)
        assert len(selection) == 8
        assert all(c.weight == 1.0 for c in selection)

    def test_budget_fully_spent(self):
        rng = np.random.default_rng(3)
        for budget in (1, 5, 13, 19):
            selection = stratified_select(np.arange(20), budget, 4, rng)
            assert len(selection) == budget

    def test_bad_stratum_size(self):
        with pytest.raises(ConfigError):
            stratified_select(np.arange(5), 2, 0, np.random.default_rng(0))


class TestLSSSampler:
    @pytest.fixture(scope="class")
    def fitted(self, trained_ps3):
        sampler = LSSSampler(trained_ps3.feature_builder, seed=0)
        sampler.fit(
            trained_ps3.training_data,
            budget_fractions=(0.25, 0.5),
            sweep_queries=5,
        )
        return sampler

    def test_select_before_fit_raises(self, trained_ps3):
        with pytest.raises(NotFittedError):
            LSSSampler(trained_ps3.feature_builder).select(
                trained_ps3.training_data.queries[0], 3
            )

    def test_sweep_produces_strata_table(self, fitted):
        assert set(fitted.strata_by_budget) == {0.25, 0.5}
        assert all(s >= 1 for s in fitted.strata_by_budget.values())

    def test_selection_within_budget(self, fitted, trained_ps3):
        query = trained_ps3.training_data.queries[0]
        selection = fitted.select(query, 4)
        assert 0 < len(selection) <= 4

    def test_weights_cover_passing(self, fitted, trained_ps3):
        query = trained_ps3.training_data.queries[0]
        features = trained_ps3.feature_builder.features_for_query(query)
        passing = features.passing_partitions().size
        selection = fitted.select(query, max(2, passing // 3))
        assert sum(c.weight for c in selection) == pytest.approx(float(passing))

    def test_deterministic_given_budget(self, fitted, trained_ps3):
        query = trained_ps3.training_data.queries[1]
        a = fitted.select(query, 4)
        b = fitted.select(query, 4)
        assert [(c.partition, c.weight) for c in a] == [
            (c.partition, c.weight) for c in b
        ]

    def test_returns_weighted_choices(self, fitted, trained_ps3):
        query = trained_ps3.training_data.queries[2]
        selection = fitted.select(query, 3)
        assert all(isinstance(c, WeightedChoice) for c in selection)


class TestTinyTableClamp:
    """Regression: when every ``stratum_grid`` size exceeds the table's
    partition count, the sweep used to record an out-of-range
    ``stratum_grid[0]`` in ``strata_by_budget``; it must clamp to
    ``num_partitions``."""

    def test_all_grid_sizes_too_large_clamps_to_num_partitions(
        self, trained_ps3
    ):
        num_partitions = trained_ps3.ptable.num_partitions
        sampler = LSSSampler(
            trained_ps3.feature_builder,
            seed=3,
            stratum_grid=(num_partitions + 16, num_partitions + 64),
        )
        sampler.fit(
            trained_ps3.training_data,
            budget_fractions=(0.25, 0.5),
            sweep_queries=3,
        )
        assert set(sampler.strata_by_budget) == {0.25, 0.5}
        assert all(
            size == num_partitions
            for size in sampler.strata_by_budget.values()
        )
        # The clamped size must actually be usable at query time.
        selection = sampler.select(trained_ps3.training_data.queries[0], 3)
        assert 0 < len(selection) <= 3

    def test_partially_valid_grid_still_sweeps_valid_sizes(self, trained_ps3):
        num_partitions = trained_ps3.ptable.num_partitions
        sampler = LSSSampler(
            trained_ps3.feature_builder,
            seed=3,
            stratum_grid=(4, num_partitions + 64),
        )
        sampler.fit(
            trained_ps3.training_data,
            budget_fractions=(0.25,),
            sweep_queries=3,
        )
        assert sampler.strata_by_budget == {0.25: 4}


class TestSweepEstimationPaths:
    """E2e guard: the block-path sweep must be indistinguishable from
    the dict reference walk — same rng draws, same reports, and
    therefore the identical Table 8 strata — on a pinned seed."""

    def _fit(self, trained_ps3):
        sampler = LSSSampler(trained_ps3.feature_builder, seed=7)
        sampler.fit(
            trained_ps3.training_data,
            budget_fractions=(0.25, 0.5),
            sweep_queries=6,
        )
        return sampler

    def test_block_and_dict_sweeps_choose_identical_strata(
        self, trained_ps3, dict_oracle_estimator, monkeypatch
    ):
        block_reports, dict_reports = [], []

        def logging_to(log, estimator_class):
            class Logged:
                def __init__(self, answers):
                    self.estimator = estimator_class(answers)

                def score_grid(self, selections):
                    log.append(self.estimator.score_grid(selections))
                    return log[-1]

            return Logged

        block_estimator = lss.BlockEstimator
        monkeypatch.setattr(
            lss, "BlockEstimator", logging_to(block_reports, block_estimator)
        )
        block = self._fit(trained_ps3)
        monkeypatch.setattr(
            lss, "BlockEstimator", logging_to(dict_reports, dict_oracle_estimator)
        )
        dict_ = self._fit(trained_ps3)
        assert block.strata_by_budget == dict_.strata_by_budget
        assert set(block.strata_by_budget) == {0.25, 0.5}
        assert block_reports and block_reports == dict_reports

    def test_sweep_builds_one_estimator_per_query(self, trained_ps3, monkeypatch):
        """The weight-1 all-partitions truth is per-query invariant and
        must be hoisted out of the (fraction, size) candidate grid: one
        estimator (it caches its truth) per prepared sweep query."""
        num_partitions = trained_ps3.ptable.num_partitions
        built = []
        original = lss.BlockEstimator

        def counting(answers):
            built.append(original(answers))
            return built[-1]

        monkeypatch.setattr(lss, "BlockEstimator", counting)
        sampler = self._fit(trained_ps3)
        grid_candidates = sum(
            1 for s in sampler.stratum_grid if s <= num_partitions
        ) * len(sampler.strata_by_budget)
        assert 0 < len(built) <= 6
        assert grid_candidates > 6  # the grid is genuinely larger
        assert all(estimator._truth is not None for estimator in built)
