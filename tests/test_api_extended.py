"""Extended API tests: feature selection in fit, ``InSet`` member
spellings end to end, reporting helpers."""

import numpy as np
import pytest

from repro.api import PS3, answer_with_selection
from repro.bench.reporting import emit, format_table, results_dir
from repro.datasets.registry import get_dataset
from repro.engine.aggregates import count_star, sum_of
from repro.engine.combiner import WeightedChoice
from repro.engine.expressions import col
from repro.engine.predicates import InSet
from repro.engine.query import Query
from repro.workload.generator import QueryGenerator


class TestFitWithFeatureSelection:
    @pytest.fixture(scope="class")
    def selected_system(self):
        spec = get_dataset("kdd")
        ptable = spec.build(3000, 12, seed=5)
        workload = spec.workload()
        generator = QueryGenerator(workload, ptable.table, seed=6)
        train = generator.sample_queries(10)
        return PS3(ptable, workload).fit(train, feature_selection_rounds=1)

    def test_exclusions_recorded_on_model(self, selected_system):
        # Feature selection ran; exclusions are a (possibly empty) frozenset
        # that never contains the load-bearing selectivity_upper family.
        excluded = selected_system.model.excluded_families
        assert isinstance(excluded, frozenset)
        assert "selectivity_upper" not in excluded

    def test_picker_clusters_on_reduced_features(self, selected_system):
        indices = selected_system.model.clustering_feature_indices()
        dimension = selected_system.feature_builder.schema.dimension
        assert 0 < indices.size <= dimension

    def test_queries_still_answerable(self, selected_system):
        generator = QueryGenerator(
            selected_system.workload, selected_system.ptable.table, seed=77
        )
        query = generator.sample_query()
        answer = selected_system.query(query, budget_fraction=0.5)
        report = selected_system.evaluate(query, answer)
        assert report.avg_relative_error < 1.5


class TestInSetMemberSpellings:
    """``InSet("logged_in", [1])`` used to pass every partition in the
    picker (dictionaries key on ``str(value)``) and match no row in the
    executor, while ``[1, "a"]`` matched ``"1"`` by numpy coercion."""

    SPELLINGS = ([1], ["1"], [np.str_("1")], [1, "1"])

    @pytest.fixture(scope="class")
    def system(self):
        spec = get_dataset("kdd")
        ptable = spec.build(2400, 8, seed=5)
        workload = spec.workload()
        train = QueryGenerator(workload, ptable.table, seed=6).sample_queries(8)
        return PS3(ptable, workload).fit(train)

    def test_members_become_strings(self):
        for members in self.SPELLINGS:
            assert InSet("logged_in", members) == InSet("logged_in", ["1"])
            assert all(isinstance(v, str) for v in InSet("logged_in", members).values)
        assert InSet("logged_in", [1, "a"]) == InSet("logged_in", ["a", "1"])
        assert InSet("logged_in", [1]).label() == "logged_in IN (1)"

    def test_query_and_explicit_selection_agree_with_a_full_scan(self, system):
        ptable = system.ptable
        logged_in = ptable.table.columns["logged_in"] == "1"
        duration = ptable.table.columns["duration"]
        assert 0 < logged_in.sum() < ptable.num_rows
        everything = [
            WeightedChoice(p, 1.0) for p in range(ptable.num_partitions)
        ]
        for members in self.SPELLINGS + ([1, "a"],):
            query = Query(
                [count_star(), sum_of(col("duration"))],
                InSet("logged_in", members),
                ("logged_in",),
            )
            answer = system.query(query, budget_fraction=1.0)
            assert list(answer.groups) == [("1",)]
            count, total = answer.groups["1",]
            assert count == logged_in.sum()
            assert total == pytest.approx(duration[logged_in].sum())
            explicit = answer_with_selection(ptable, query, everything)
            assert explicit["1",].tobytes() == answer.groups["1",].tobytes()
            exact = system.execute_exact(query)
            assert exact["1",].tobytes() == answer.groups["1",].tobytes()


class TestReporting:
    def test_emit_writes_result_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        emit("unit_test_report", "hello\nworld")
        captured = capsys.readouterr().out
        assert "unit_test_report" in captured
        assert (tmp_path / "unit_test_report.txt").read_text() == "hello\nworld\n"

    def test_results_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "nested"))
        path = results_dir()
        assert path == tmp_path / "nested"
        assert path.is_dir()

    def test_format_table_handles_mixed_types(self):
        text = format_table(
            ["a", "b", "c"],
            [["row", 1.0, None], ["other", 123456.789, 0.00001]],
        )
        assert "1.235e+05" in text or "123456.789" in text
        assert "None" in text

    def test_format_table_empty_rows(self):
        text = format_table(["only", "headers"], [])
        assert "only" in text and "headers" in text


class TestPickerDeterminism:
    def test_identical_selections_across_instances(self):
        spec = get_dataset("aria")
        ptable = spec.build(2500, 10, seed=8)
        workload = spec.workload()
        generator = QueryGenerator(workload, ptable.table, seed=9)
        train = generator.sample_queries(8)
        query = generator.sample_query()

        first = PS3(ptable, workload).fit(train)
        second = PS3(ptable, workload).fit(train)
        a = first.picker.select(query, 4)
        b = second.picker.select(query, 4)
        assert [(c.partition, c.weight) for c in a.selection] == [
            (c.partition, c.weight) for c in b.selection
        ]

    def test_weight_mass_invariant_across_budgets(self):
        spec = get_dataset("aria")
        ptable = spec.build(2500, 10, seed=8)
        workload = spec.workload()
        generator = QueryGenerator(workload, ptable.table, seed=9)
        system = PS3(ptable, workload).fit(generator.sample_queries(8))
        query = generator.sample_query()
        features = system.feature_builder.features_for_query(query)
        passing = features.passing_partitions().size
        for budget in (1, 3, 5, 10):
            result = system.picker.select(query, budget)
            if result.selection:
                total = sum(c.weight for c in result.selection)
                assert total == pytest.approx(float(passing))
