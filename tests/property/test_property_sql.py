"""Property-based round-trip tests for the SQL parser.

Random workload-generated queries are rendered to SQL, parsed back, and
checked for *semantic* equivalence: identical answers on the underlying
table. This exercises the parser against the full space of queries the
system actually generates, not just hand-picked strings. The renderer
lives here: these tests are all that ever called it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracle import execute_on_table

from repro.engine.aggregates import Aggregate
from repro.engine.expressions import BinOp, ColumnRef, Const, Expression
from repro.engine.predicates import (
    And,
    Comparison,
    Contains,
    InSet,
    Not,
    Or,
    Predicate,
)
from repro.engine.query import Query
from repro.engine.sql import parse_query
from repro.errors import QueryScopeError
from repro.workload.generator import QueryGenerator


def _render_expression(expr: Expression) -> str:
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, BinOp):
        return (
            f"({_render_expression(expr.left)} {expr.op} "
            f"{_render_expression(expr.right)})"
        )
    raise QueryScopeError(f"cannot render expression {expr!r}")


def _quote(value: str) -> str:
    return "'" + value.replace("'", "\\'") + "'"


def _render_predicate(predicate: Predicate) -> str:
    if isinstance(predicate, Comparison):
        op = {"==": "=", "!=": "<>"}.get(predicate.op, predicate.op)
        # Floats normalize integer-valued comparisons (dates carry ints;
        # the parser produces floats) so rendering is idempotent.
        return f"{predicate.column} {op} {float(predicate.value)!r}"
    if isinstance(predicate, InSet):
        values = ", ".join(_quote(str(v)) for v in sorted(predicate.values))
        return f"{predicate.column} IN ({values})"
    if isinstance(predicate, Contains):
        return f"{predicate.column} LIKE {_quote('%' + predicate.text + '%')}"
    if isinstance(predicate, Not):
        return f"NOT ({_render_predicate(predicate.child)})"
    if isinstance(predicate, And):
        return " AND ".join(
            f"({_render_predicate(c)})" for c in predicate.children
        )
    if isinstance(predicate, Or):
        return " OR ".join(
            f"({_render_predicate(c)})" for c in predicate.children
        )
    raise QueryScopeError(f"cannot render predicate {predicate!r}")


def _render_aggregate(aggregate: Aggregate) -> str:
    if aggregate.expr is None:
        return "COUNT(*)"
    return f"{aggregate.func.value}({_render_expression(aggregate.expr)})"


def render_sql(query: Query) -> str:
    """Render a Query back to SQL text accepted by :func:`parse_query`.

    Round-tripping preserves semantics but not necessarily structure:
    single-value ``IN`` sets reparse as ``IN``, parenthesization is
    canonicalized, and numeric literals render via ``repr``. Useful for
    query logging and for serializing workloads.
    """
    parts = ["SELECT " + ", ".join(_render_aggregate(a) for a in query.aggregates)]
    if query.predicate is not None:
        parts.append("WHERE " + _render_predicate(query.predicate))
    if query.group_by:
        parts.append("GROUP BY " + ", ".join(query.group_by))
    return " ".join(parts)


@pytest.fixture(scope="module")
def generator_factory(tpch_ptable, tpch_workload):
    def make(seed: int) -> QueryGenerator:
        return QueryGenerator(tpch_workload, tpch_ptable.table, seed=seed)

    return make, tpch_ptable.table


class TestSQLRoundTrip:
    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_semantic_roundtrip(self, generator_factory, seed):
        make, table = generator_factory
        query = make(seed).sample_query()
        sql = render_sql(query)
        reparsed = parse_query(sql, table.schema)

        original = execute_on_table(table, query)
        roundtripped = execute_on_table(table, reparsed)
        assert set(original) == set(roundtripped), sql
        for key in original:
            np.testing.assert_allclose(
                original[key], roundtripped[key], rtol=1e-9, atol=1e-9
            )

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_structural_roundtrip(self, generator_factory, seed):
        """Group-bys and aggregate counts survive exactly; the predicate
        reparses to an equivalent tree (same mask everywhere)."""
        make, table = generator_factory
        query = make(seed).sample_query()
        reparsed = parse_query(render_sql(query), table.schema)
        assert reparsed.group_by == query.group_by
        assert len(reparsed.aggregates) == len(query.aggregates)
        if query.predicate is None:
            assert reparsed.predicate is None
        else:
            original_mask = query.predicate.mask(table.columns)
            reparsed_mask = reparsed.predicate.mask(table.columns)
            np.testing.assert_array_equal(original_mask, reparsed_mask)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_rendered_sql_is_stable(self, generator_factory, seed):
        """render(parse(render(q))) == render(q) — rendering normalizes."""
        make, table = generator_factory
        query = make(seed).sample_query()
        once = render_sql(query)
        twice = render_sql(parse_query(once, table.schema))
        assert once == twice
