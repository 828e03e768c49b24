"""Unit tests for the SQL front end."""

import numpy as np
import pytest
from scalar_oracle import execute_on_table

from repro.engine.aggregates import AggFunc
from repro.engine.predicates import And, Comparison, Contains, InSet, Not, Or
from repro.engine.sql import SQLParseError, parse_query


@pytest.fixture(scope="module")
def schema(tiny_table):
    return tiny_table.schema


class TestAggregates:
    def test_count_star(self, schema):
        query = parse_query("SELECT COUNT(*)", schema)
        assert query.aggregates[0].func is AggFunc.COUNT

    def test_sum_and_avg(self, schema):
        query = parse_query("SELECT SUM(x), AVG(y)", schema)
        assert [a.func for a in query.aggregates] == [AggFunc.SUM, AggFunc.AVG]
        assert query.aggregates[0].expr.label() == "x"

    def test_arithmetic_with_precedence(self, schema):
        query = parse_query("SELECT SUM(x + y * 2)", schema)
        assert query.aggregates[0].expr.label() == "(x + (y * 2.0))"

    def test_parenthesized_expression(self, schema):
        query = parse_query("SELECT SUM((x + y) / 2)", schema)
        assert query.aggregates[0].expr.label() == "((x + y) / 2.0)"

    def test_categorical_in_expression_rejected(self, schema):
        with pytest.raises(SQLParseError, match="numeric"):
            parse_query("SELECT SUM(cat)", schema)

    def test_count_requires_star(self, schema):
        with pytest.raises(SQLParseError):
            parse_query("SELECT COUNT(x)", schema)


class TestPredicates:
    def test_negative_literal_in_comparison(self, schema):
        query = parse_query("SELECT COUNT(*) WHERE y < -2.5", schema)
        assert query.predicate == Comparison("y", "<", -2.5)

    def test_negative_literal_in_expression(self, schema):
        query = parse_query("SELECT SUM(x * -1)", schema)
        assert query.aggregates[0].expr.label() == "(x * -1.0)"

    def test_numeric_comparison(self, schema):
        query = parse_query("SELECT COUNT(*) WHERE x > 5", schema)
        assert query.predicate == Comparison("x", ">", 5.0)

    def test_equality_normalization(self, schema):
        query = parse_query("SELECT COUNT(*) WHERE x = 5", schema)
        assert query.predicate == Comparison("x", "==", 5.0)

    def test_categorical_equality_is_inset(self, schema):
        query = parse_query("SELECT COUNT(*) WHERE cat = 'a'", schema)
        assert query.predicate == InSet("cat", {"a"})

    def test_categorical_inequality_is_negated_inset(self, schema):
        query = parse_query("SELECT COUNT(*) WHERE cat <> 'a'", schema)
        assert query.predicate == Not(InSet("cat", {"a"}))

    def test_in_list(self, schema):
        query = parse_query("SELECT COUNT(*) WHERE cat IN ('a', 'b')", schema)
        assert query.predicate == InSet("cat", {"a", "b"})

    def test_like_contains(self, schema):
        query = parse_query("SELECT COUNT(*) WHERE cat LIKE '%dd%'", schema)
        assert query.predicate == Contains("cat", "dd")

    def test_like_requires_substring_pattern(self, schema):
        with pytest.raises(SQLParseError, match="substring"):
            parse_query("SELECT COUNT(*) WHERE cat LIKE 'abc'", schema)

    def test_and_or_not_precedence(self, schema):
        query = parse_query(
            "SELECT COUNT(*) WHERE x > 1 AND y < 2 OR NOT d >= 3", schema
        )
        assert isinstance(query.predicate, Or)
        left, right = query.predicate.children
        assert isinstance(left, And)
        assert isinstance(right, Not)

    def test_parentheses_override_precedence(self, schema):
        query = parse_query(
            "SELECT COUNT(*) WHERE x > 1 AND (y < 2 OR d >= 3)", schema
        )
        assert isinstance(query.predicate, And)
        assert isinstance(query.predicate.children[1], Or)

    def test_range_comparison_on_categorical_rejected(self, schema):
        with pytest.raises(SQLParseError, match="supports"):
            parse_query("SELECT COUNT(*) WHERE cat > 'a'", schema)

    def test_in_on_numeric_rejected(self, schema):
        with pytest.raises(SQLParseError, match="categorical"):
            parse_query("SELECT COUNT(*) WHERE x IN ('1')", schema)


class TestGroupByAndErrors:
    def test_group_by(self, schema):
        query = parse_query("SELECT COUNT(*) GROUP BY cat, d", schema)
        assert query.group_by == ("cat", "d")

    def test_unknown_column(self, schema):
        with pytest.raises(SQLParseError, match="unknown column"):
            parse_query("SELECT SUM(zzz)", schema)

    def test_trailing_garbage(self, schema):
        with pytest.raises(SQLParseError, match="trailing"):
            parse_query("SELECT COUNT(*) HAVING x", schema)

    def test_missing_select(self, schema):
        with pytest.raises(SQLParseError):
            parse_query("COUNT(*)", schema)

    def test_error_reports_offset(self, schema):
        with pytest.raises(SQLParseError, match="offset"):
            parse_query("SELECT SUM(x) WHERE ???", schema)

    def test_escaped_quote_in_string(self, schema):
        query = parse_query(r"SELECT COUNT(*) WHERE cat = 'a\'b'", schema)
        assert query.predicate == InSet("cat", {"a'b"})


class TestEndToEnd:
    def test_parsed_query_matches_ast_query(self, tiny_table):
        text = (
            "SELECT SUM(x), COUNT(*), AVG(x + y) "
            "WHERE x > 5 AND cat IN ('a', 'b') GROUP BY cat"
        )
        parsed = parse_query(text, tiny_table.schema)
        answer = execute_on_table(tiny_table, parsed)
        # Cross-check against a hand-built evaluation.
        mask = (tiny_table.columns["x"] > 5) & np.isin(
            tiny_table.columns["cat"], ["a", "b"]
        )
        for key, vec in answer.items():
            rows = mask & (tiny_table.columns["cat"] == key[0])
            np.testing.assert_allclose(vec[0], tiny_table.columns["x"][rows].sum())
            assert vec[1] == rows.sum()

    def test_roundtrip_through_label(self, schema):
        """Parsed queries render labels that describe the same query."""
        query = parse_query(
            "SELECT SUM(x * 2) WHERE d <= 50 GROUP BY cat", schema
        )
        label = query.label()
        assert "SUM((x * 2.0))" in label
        assert "GROUP BY cat" in label
