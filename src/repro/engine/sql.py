"""A small SQL dialect covering exactly PS3's query scope.

Production systems feed PS3 from a SQL optimizer; this module provides
the equivalent front end so examples and downstream users can write
queries as text instead of assembling ASTs:

    SELECT SUM(l_extendedprice * (1 - l_discount)), COUNT(*)
    WHERE l_shipdate >= 8766 AND p_brand IN ('brand#01', 'brand#02')
      AND p_type LIKE '%promo%'
    GROUP BY l_returnflag, l_linestatus

Supported grammar (paper section 2.2 — single table, so no FROM clause):

* aggregates: ``SUM(expr)``, ``AVG(expr)``, ``COUNT(*)`` where ``expr``
  is arithmetic (``+ - * /``) over numeric columns and literals;
* predicates: ``AND`` / ``OR`` / ``NOT`` / parentheses over clauses
  ``col <op> number`` (numeric/date), ``col = 'text'`` / ``col <>
  'text'``, ``col IN ('a', 'b')``, and ``col LIKE '%text%'``;
* ``GROUP BY col [, col ...]``.

The parser is schema-aware: it resolves column kinds so string equality
becomes :class:`InSet` and numeric comparisons become
:class:`Comparison`, and rejects out-of-scope constructs with precise
error positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.engine.aggregates import Aggregate, avg_of, count_star, sum_of
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
from repro.engine.schema import Schema
from repro.errors import QueryScopeError


class SQLParseError(QueryScopeError):
    """Raised for syntax errors or out-of-scope constructs."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d*|\.\d+|\d+)
  | (?P<string>'(?:[^'\\]|\\.)*')
  | (?P<op><=|>=|<>|!=|==|=|<|>)
  | (?P<punct>[(),*+\-/])
  | (?P<word>[A-Za-z_][A-Za-z0-9_#.]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT", "WHERE", "GROUP", "BY", "AND", "OR", "NOT", "IN", "LIKE",
    "SUM", "AVG", "COUNT",
}


@dataclass(frozen=True)
class _Token:
    kind: str  # number | string | op | punct | word | keyword | end
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise SQLParseError(
                f"unexpected character {text[position]!r} at offset {position}"
            )
        position = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        value = match.group()
        if kind == "word" and value.upper() in _KEYWORDS:
            tokens.append(_Token("keyword", value.upper(), match.start()))
        else:
            tokens.append(_Token(kind, value, match.start()))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, schema: Schema) -> None:
        self.text = text
        self.schema = schema
        self.tokens = _tokenize(text)
        self.index = 0

    # -- token plumbing -------------------------------------------------------

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def expect(self, kind: str, text: str | None = None) -> _Token:
        token = self.current
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text or kind
            raise SQLParseError(
                f"expected {wanted!r} at offset {token.position}, "
                f"found {token.text or 'end of input'!r}"
            )
        return self.advance()

    def accept(self, kind: str, text: str | None = None) -> bool:
        token = self.current
        if token.kind == kind and (text is None or token.text == text):
            self.advance()
            return True
        return False

    # -- grammar ---------------------------------------------------------------

    def parse_query(self) -> Query:
        self.expect("keyword", "SELECT")
        aggregates = [self.parse_aggregate()]
        while self.accept("punct", ","):
            aggregates.append(self.parse_aggregate())
        predicate = None
        if self.accept("keyword", "WHERE"):
            predicate = self.parse_predicate()
        group_by: tuple[str, ...] = ()
        if self.accept("keyword", "GROUP"):
            self.expect("keyword", "BY")
            columns = [self.parse_column_name()]
            while self.accept("punct", ","):
                columns.append(self.parse_column_name())
            group_by = tuple(columns)
        if self.current.kind != "end":
            raise SQLParseError(
                f"trailing input at offset {self.current.position}: "
                f"{self.current.text!r}"
            )
        return Query(aggregates, predicate, group_by)

    def parse_aggregate(self) -> Aggregate:
        token = self.current
        if token.kind != "keyword" or token.text not in ("SUM", "AVG", "COUNT"):
            raise SQLParseError(
                f"expected SUM/AVG/COUNT at offset {token.position}"
            )
        self.advance()
        self.expect("punct", "(")
        if token.text == "COUNT":
            self.expect("punct", "*")
            self.expect("punct", ")")
            return count_star()
        expr = self.parse_expression()
        self.expect("punct", ")")
        return sum_of(expr) if token.text == "SUM" else avg_of(expr)

    # Arithmetic expressions with the usual precedence.

    def parse_expression(self) -> Expression:
        expr = self.parse_term()
        while self.current.kind == "punct" and self.current.text in "+-":
            op = self.advance().text
            expr = BinOp(op, expr, self.parse_term())
        return expr

    def parse_term(self) -> Expression:
        expr = self.parse_factor()
        while self.current.kind == "punct" and self.current.text in "*/":
            op = self.advance().text
            expr = BinOp(op, expr, self.parse_factor())
        return expr

    def parse_factor(self) -> Expression:
        token = self.current
        if self.accept("punct", "("):
            expr = self.parse_expression()
            self.expect("punct", ")")
            return expr
        if token.kind == "number" or (
            token.kind == "punct" and token.text == "-"
        ):
            return Const(self.parse_number_literal())
        if token.kind == "word":
            name = self.parse_column_name()
            column = self.schema[name]
            if not column.is_numeric:
                raise SQLParseError(
                    f"column {name!r} at offset {token.position} is "
                    f"{column.kind.value}; aggregate expressions take "
                    "numeric columns"
                )
            return ColumnRef(name)
        raise SQLParseError(
            f"expected expression at offset {token.position}, "
            f"found {token.text or 'end of input'!r}"
        )

    # Predicates: OR < AND < NOT < clause.

    def parse_predicate(self) -> Predicate:
        children = [self.parse_conjunction()]
        while self.accept("keyword", "OR"):
            children.append(self.parse_conjunction())
        return children[0] if len(children) == 1 else Or(children)

    def parse_conjunction(self) -> Predicate:
        children = [self.parse_unary()]
        while self.accept("keyword", "AND"):
            children.append(self.parse_unary())
        return children[0] if len(children) == 1 else And(children)

    def parse_unary(self) -> Predicate:
        if self.accept("keyword", "NOT"):
            return Not(self.parse_unary())
        if self.accept("punct", "("):
            inner = self.parse_predicate()
            self.expect("punct", ")")
            return inner
        return self.parse_clause()

    def parse_clause(self) -> Predicate:
        position = self.current.position
        name = self.parse_column_name()
        column = self.schema[name]
        if self.accept("keyword", "IN"):
            if not column.is_categorical:
                raise SQLParseError(
                    f"IN at offset {position} requires a categorical column"
                )
            self.expect("punct", "(")
            values = [self.parse_string_literal()]
            while self.accept("punct", ","):
                values.append(self.parse_string_literal())
            self.expect("punct", ")")
            return InSet(name, set(values))
        if self.accept("keyword", "LIKE"):
            if not column.is_categorical:
                raise SQLParseError(
                    f"LIKE at offset {position} requires a categorical column"
                )
            pattern = self.parse_string_literal()
            if not (pattern.startswith("%") and pattern.endswith("%")):
                raise SQLParseError(
                    "only '%text%' substring patterns are in scope"
                )
            text = pattern.strip("%")
            if not text or "%" in text:
                raise SQLParseError("LIKE pattern must contain one literal run")
            return Contains(name, text)
        op_token = self.expect("op")
        op = {"=": "==", "<>": "!="}.get(op_token.text, op_token.text)
        if column.is_categorical:
            if op not in ("==", "!="):
                raise SQLParseError(
                    f"categorical column {name!r} supports =, <>, IN, LIKE"
                )
            value = self.parse_string_literal()
            clause: Predicate = InSet(name, {value})
            return Not(clause) if op == "!=" else clause
        return Comparison(name, op, self.parse_number_literal())

    # -- terminals ---------------------------------------------------------------

    def parse_column_name(self) -> str:
        token = self.expect("word")
        if token.text not in self.schema:
            raise SQLParseError(
                f"unknown column {token.text!r} at offset {token.position}"
            )
        return token.text

    def parse_string_literal(self) -> str:
        token = self.expect("string")
        return token.text[1:-1].replace("\\'", "'")

    def parse_number_literal(self) -> float:
        negative = self.accept("punct", "-")
        token = self.current
        if token.kind != "number":
            raise SQLParseError(
                f"expected a numeric literal at offset {token.position}"
            )
        self.advance()
        value = float(token.text)
        return -value if negative else value


def parse_query(text: str, schema: Schema) -> Query:
    """Parse a PS3-scope SQL string against a table schema."""
    return _Parser(text, schema).parse_query()
