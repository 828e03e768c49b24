"""Predicate AST: conjunctions, disjunctions and negations of clauses.

The supported clause forms follow the paper's scope (section 2.2):

* equality and inequality comparisons (``< <= > >= == !=``) on numeric and
  date columns;
* equality checks and the ``IN`` operator on string/categorical columns;
* ``Contains`` — a ``LIKE '%text%'`` style substring filter on categorical
  columns, supported via exact dictionaries when the column has low
  cardinality (paper section 3.2).

Predicates evaluate to boolean row masks over a partition's columns, and
expose their leaf clauses so the selectivity estimator can combine
per-clause estimates (``repro.stats.plan``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.errors import ExecutionError, QueryScopeError

_NUMERIC_OPS = ("<", "<=", ">", ">=", "==", "!=")


def hash_once(cls):
    """Make a frozen dataclass hash its compared fields once per object.

    Plan caches and pick memos hash a query and its predicate tree on
    every lookup; the fields never change, so the first hash is kept.
    Copies and pickles drop it (string hashes differ between processes)
    and hash afresh.
    """
    names = tuple(f.name for f in fields(cls) if f.compare)

    def __hash__(self) -> int:
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = hash(tuple(getattr(self, name) for name in names))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    cls.__hash__, cls.__getstate__ = __hash__, __getstate__
    return cls


class Predicate:
    """Base class for predicate nodes."""

    def mask(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        """Boolean mask of rows satisfying the predicate."""
        raise NotImplementedError

    def columns(self) -> frozenset[str]:
        """All column names referenced anywhere in the predicate."""
        raise NotImplementedError

    def leaves(self) -> tuple[Predicate, ...]:
        """All leaf clauses, in depth-first order."""
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.label()})"


def _column(columns: dict[str, np.ndarray], name: str) -> np.ndarray:
    try:
        return columns[name]
    except KeyError:
        raise ExecutionError(f"column {name!r} missing at runtime") from None


@hash_once
@dataclass(frozen=True, repr=False)
class Comparison(Predicate):
    """``column op value`` on a numeric or date column."""

    column: str
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.op not in _NUMERIC_OPS:
            raise QueryScopeError(f"unsupported comparison operator {self.op!r}")

    def mask(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        values = _column(columns, self.column)
        if self.op == "<":
            return values < self.value
        if self.op == "<=":
            return values <= self.value
        if self.op == ">":
            return values > self.value
        if self.op == ">=":
            return values >= self.value
        if self.op == "==":
            return values == self.value
        return values != self.value

    def columns(self) -> frozenset[str]:
        return frozenset({self.column})

    def leaves(self) -> tuple[Predicate, ...]:
        return (self,)

    def label(self) -> str:
        return f"{self.column} {self.op} {self.value!r}"


@hash_once
@dataclass(frozen=True, repr=False)
class InSet(Predicate):
    """``column IN (v1, v2, ...)`` on a categorical column.

    A single-element set expresses plain equality. Members are
    normalized to ``str`` — categorical columns hold strings, and the
    exact dictionaries and selectivity plans key on ``str(value)`` — so
    ``InSet("c", [1])`` and ``InSet("c", ["1"])`` are one predicate to
    the picker, every executor and the SQL round-trip alike.
    """

    column: str
    values: frozenset

    def __init__(self, column: str, values) -> None:
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "values", frozenset(map(str, values)))
        if not self.values:
            raise QueryScopeError("IN set must be non-empty")

    def mask(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        values = _column(columns, self.column)
        return np.isin(values, list(self.values))

    def columns(self) -> frozenset[str]:
        return frozenset({self.column})

    def leaves(self) -> tuple[Predicate, ...]:
        return (self,)

    def label(self) -> str:
        rendered = ", ".join(sorted(map(str, self.values)))
        return f"{self.column} IN ({rendered})"


@hash_once
@dataclass(frozen=True, repr=False)
class Contains(Predicate):
    """Substring filter on a categorical column (``LIKE '%text%'``)."""

    column: str
    text: str

    def __post_init__(self) -> None:
        if not self.text:
            raise QueryScopeError("Contains text must be non-empty")

    def mask(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        values = _column(columns, self.column)
        return np.char.find(values.astype(str), self.text) >= 0

    def columns(self) -> frozenset[str]:
        return frozenset({self.column})

    def leaves(self) -> tuple[Predicate, ...]:
        return (self,)

    def label(self) -> str:
        return f"{self.column} LIKE '%{self.text}%'"


@hash_once
@dataclass(frozen=True, repr=False)
class And(Predicate):
    """Conjunction of two or more predicates."""

    children: tuple[Predicate, ...]

    def __init__(self, children) -> None:
        object.__setattr__(self, "children", tuple(children))
        if len(self.children) < 1:
            raise QueryScopeError("And requires at least one child")

    def mask(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        out = self.children[0].mask(columns)
        for child in self.children[1:]:
            out = out & child.mask(columns)
        return out

    def columns(self) -> frozenset[str]:
        return frozenset().union(*(c.columns() for c in self.children))

    def leaves(self) -> tuple[Predicate, ...]:
        return tuple(leaf for c in self.children for leaf in c.leaves())

    def label(self) -> str:
        return " AND ".join(f"({c.label()})" for c in self.children)


@hash_once
@dataclass(frozen=True, repr=False)
class Or(Predicate):
    """Disjunction of two or more predicates."""

    children: tuple[Predicate, ...]

    def __init__(self, children) -> None:
        object.__setattr__(self, "children", tuple(children))
        if len(self.children) < 1:
            raise QueryScopeError("Or requires at least one child")

    def mask(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        out = self.children[0].mask(columns)
        for child in self.children[1:]:
            out = out | child.mask(columns)
        return out

    def columns(self) -> frozenset[str]:
        return frozenset().union(*(c.columns() for c in self.children))

    def leaves(self) -> tuple[Predicate, ...]:
        return tuple(leaf for c in self.children for leaf in c.leaves())

    def label(self) -> str:
        return " OR ".join(f"({c.label()})" for c in self.children)


@hash_once
@dataclass(frozen=True, repr=False)
class Not(Predicate):
    """Negation of a predicate."""

    child: Predicate

    def mask(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        return ~self.child.mask(columns)

    def columns(self) -> frozenset[str]:
        return self.child.columns()

    def leaves(self) -> tuple[Predicate, ...]:
        return self.child.leaves()

    def label(self) -> str:
        return f"NOT ({self.child.label()})"
