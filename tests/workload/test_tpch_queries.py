"""Unit tests for the TPC-H generalization templates."""

import numpy as np
import pytest
from scalar_oracle import execute_on_table

from repro.workload.tpch_queries import TEMPLATES, get_template


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


class TestTemplates:
    def test_ten_paper_templates_present(self):
        names = {t.name for t in TEMPLATES}
        expected = {
            "Q1",
            "Q5",
            "Q6",
            "Q7",
            "Q8",
            "Q9",
            "Q12",
            "Q14",
            "Q17",
            "Q18",
            "Q19",
        }
        assert expected <= names

    def test_get_template(self):
        assert get_template("Q1").name == "Q1"
        with pytest.raises(KeyError):
            get_template("Q99")

    @pytest.mark.parametrize("template", TEMPLATES, ids=lambda t: t.name)
    def test_instantiates_and_executes(self, template, rng, tpch_ptable):
        query = template.instantiate(rng)
        execute_on_table(tpch_ptable.table, query)  # must not raise

    def test_variants_are_randomized(self, tpch_ptable):
        variants = get_template("Q6").variants(5, seed=1)
        labels = {q.label() for q in variants}
        assert len(labels) > 1

    def test_q19_exceeds_clustering_cutoff(self, rng):
        query = get_template("Q19").instantiate(rng)
        assert query.num_predicate_clauses() > 10

    def test_q1_groups_by_flag_and_status(self, rng):
        query = get_template("Q1").instantiate(rng)
        assert query.group_by == ("l_returnflag", "l_linestatus")
        assert len(query.aggregates) == 6

    def test_q6_has_no_group_by(self, rng):
        query = get_template("Q6").instantiate(rng)
        assert query.group_by == ()

    @pytest.mark.parametrize("name", ["Q1", "Q5", "Q6", "Q12"])
    def test_templates_return_rows_on_synthetic_data(self, name, tpch_ptable):
        """Templates constants should usually select a nonempty answer."""
        hits = 0
        for seed in range(5):
            query = get_template(name).variants(1, seed=seed)[0]
            if execute_on_table(tpch_ptable.table, query):
                hits += 1
        assert hits >= 3
