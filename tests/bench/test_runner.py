"""Tests for the shared benchmark harness (on the tiny quick profile)."""

import numpy as np
import pytest

from repro.bench.profiles import BenchProfile, get_profile
from repro.bench.reporting import format_table
from repro.bench.runner import ExperimentContext, get_context
from repro.errors import ConfigError

TINY = BenchProfile(
    name="quick",  # reuse the quick cache key to share with benchmarks
    num_rows=4000,
    num_partitions=16,
    train_queries=10,
    test_queries=4,
    budget_fractions=(0.25, 0.5),
    random_runs=2,
)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext.build("kdd", profile=TINY)


class TestProfiles:
    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "quick")
        assert get_profile().name == "quick"

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            get_profile("galactic")

    def test_budgets_scale_with_partitions(self):
        profile = get_profile("quick")
        budgets = profile.budgets(100)
        assert budgets == [max(1, round(f * 100)) for f in profile.budget_fractions]


class TestContext:
    def test_builds_everything(self, context):
        assert context.model is not None
        assert context.lss is not None
        assert len(context.prepared) == TINY.test_queries
        assert context.num_partitions == TINY.num_partitions

    def test_prepared_truth_matches_engine(self, context):
        prepared = context.prepared[0]
        assert 0.0 <= prepared.true_selectivity <= 1.0

    def test_evaluate_method_shapes(self, context):
        picker = context.ps3_picker()
        results = context.evaluate_method(
            lambda q, n, run: picker.select(q, n), budgets=[4, 8]
        )
        assert set(results) == {4, 8}
        for report in results.values():
            assert report.avg_relative_error >= 0.0

    def test_standard_methods_complete(self, context):
        methods = context.standard_methods()
        assert set(methods) == {"random", "random+filter", "lss", "ps3"}
        for name, (fn, runs) in methods.items():
            result = context.evaluate_method(fn, budgets=[8], runs=runs)
            assert 8 in result

    def test_full_budget_is_exact_for_all_methods(self, context):
        methods = context.standard_methods()
        n = context.num_partitions
        for name, (fn, runs) in methods.items():
            result = context.evaluate_method(fn, budgets=[n], runs=1)
            assert result[n].avg_relative_error == pytest.approx(0.0, abs=1e-9), name

    def test_context_cache_reuses_instances(self):
        a = get_context("kdd", profile=TINY)
        b = get_context("kdd", profile=TINY)
        assert a is b

    def test_prepared_evaluate_block_equals_dict_path(self, context):
        """Prepared queries score through the block estimator; the dict
        walk over the same answers must report identically."""
        from repro.core.metrics import evaluate_errors
        from dict_walk import estimate
        from repro.engine.combiner import WeightedChoice

        rng = np.random.default_rng(5)
        for prepared in context.prepared:
            assert prepared.estimator is not None
            parts = rng.choice(context.num_partitions, size=6, replace=False)
            selection = [
                WeightedChoice(int(p), float(1.0 + rng.random() * 4.0))
                for p in parts
            ]
            block_report = prepared.evaluate(selection)
            dict_report = evaluate_errors(
                prepared.truth,
                estimate(prepared.query, prepared.answers, selection),
            )
            assert block_report == dict_report


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            ["method", "err"],
            [["random", 0.25], ["ps3", 0.0123456]],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "random" in lines[3] and "0.25" in lines[3]

    def test_format_table_scientific_for_tiny_values(self):
        text = format_table(["v"], [[1.5e-7]])
        assert "e-07" in text
