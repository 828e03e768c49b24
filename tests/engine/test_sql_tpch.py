"""Integration: the SQL front end against the TPC-H* schema.

Writes paper-style queries as SQL text over the synthetic denormalized
schema and checks the parsed queries execute to the same answers as
hand-built ASTs — the parser and the AST constructors must agree on
semantics, not just syntax.
"""

import numpy as np
import pytest
from scalar_oracle import execute_on_table

from repro.engine.aggregates import avg_of, count_star, sum_of
from repro.engine.expressions import Const, col
from repro.engine.predicates import And, Comparison, InSet
from repro.engine.query import Query
from repro.engine.sql import parse_query


@pytest.fixture(scope="module")
def table(tpch_ptable):
    return tpch_ptable.table


def assert_same_answer(table, sql_query, ast_query):
    sql_answer = execute_on_table(table, sql_query)
    ast_answer = execute_on_table(table, ast_query)
    assert set(sql_answer) == set(ast_answer)
    for key in ast_answer:
        np.testing.assert_allclose(sql_answer[key], ast_answer[key], rtol=1e-9)


class TestPaperStyleSQL:
    def test_q6_style_revenue(self, table):
        sql = (
            "SELECT SUM(l_extendedprice * l_discount) "
            "WHERE l_shipdate >= 365 AND l_shipdate < 730 "
            "AND l_discount >= 0.05 AND l_discount <= 0.07 "
            "AND l_quantity < 24"
        )
        parsed = parse_query(sql, table.schema)
        ast = Query(
            [sum_of(col("l_extendedprice") * col("l_discount"))],
            And(
                [
                    Comparison("l_shipdate", ">=", 365),
                    Comparison("l_shipdate", "<", 730),
                    Comparison("l_discount", ">=", 0.05),
                    Comparison("l_discount", "<=", 0.07),
                    Comparison("l_quantity", "<", 24.0),
                ]
            ),
        )
        assert_same_answer(table, parsed, ast)

    def test_q1_style_pricing_summary(self, table):
        sql = (
            "SELECT SUM(l_quantity), SUM(l_extendedprice), "
            "SUM(l_extendedprice * (1 - l_discount)), AVG(l_quantity), COUNT(*) "
            "WHERE l_shipdate <= 2000 "
            "GROUP BY l_returnflag, l_linestatus"
        )
        parsed = parse_query(sql, table.schema)
        revenue = col("l_extendedprice") * (Const(1.0) - col("l_discount"))
        ast = Query(
            [
                sum_of(col("l_quantity")),
                sum_of(col("l_extendedprice")),
                sum_of(revenue),
                avg_of(col("l_quantity")),
                count_star(),
            ],
            Comparison("l_shipdate", "<=", 2000),
            ("l_returnflag", "l_linestatus"),
        )
        assert_same_answer(table, parsed, ast)

    def test_q5_style_regional_revenue(self, table):
        sql = (
            "SELECT SUM(l_extendedprice * (1 - l_discount)) "
            "WHERE r1_name = 'region#01' AND o_orderdate >= 0 "
            "AND o_orderdate < 365 "
            "GROUP BY n1_name"
        )
        parsed = parse_query(sql, table.schema)
        revenue = col("l_extendedprice") * (Const(1.0) - col("l_discount"))
        ast = Query(
            [sum_of(revenue)],
            And(
                [
                    InSet("r1_name", {"region#01"}),
                    Comparison("o_orderdate", ">=", 0),
                    Comparison("o_orderdate", "<", 365),
                ]
            ),
            ("n1_name",),
        )
        assert_same_answer(table, parsed, ast)

    def test_q14_style_promo_with_like(self, table):
        sql = (
            "SELECT SUM(l_extendedprice), COUNT(*) "
            "WHERE p_type LIKE '%type#0%' AND l_shipdate >= 100 "
            "AND l_shipdate < 130"
        )
        parsed = parse_query(sql, table.schema)
        answer = execute_on_table(table, parsed)
        # Cross-check against a direct mask evaluation.
        mask = (
            (np.char.find(table.columns["p_type"].astype(str), "type#0") >= 0)
            & (table.columns["l_shipdate"] >= 100)
            & (table.columns["l_shipdate"] < 130)
        )
        if mask.any():
            np.testing.assert_allclose(
                answer[()][0], table.columns["l_extendedprice"][mask].sum()
            )
            assert answer[()][1] == mask.sum()
        else:
            assert answer == {}

    def test_runs_through_trained_system(self, trained_ps3, table):
        sql = (
            "SELECT SUM(l_extendedprice), COUNT(*) "
            "WHERE l_quantity > 25 GROUP BY l_shipmode"
        )
        query = parse_query(sql, table.schema)
        answer = trained_ps3.query(query, budget_fraction=0.5)
        report = trained_ps3.evaluate(query, answer)
        assert report.avg_relative_error < 0.5
