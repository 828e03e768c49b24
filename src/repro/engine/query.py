"""Query objects: aggregates + optional predicate + optional group-by.

A :class:`Query` is the unit the whole system operates on. It validates the
paper's supported scope at construction time and precomputes the pieces the
picker needs repeatedly: the set of referenced columns, the list of linear
components (with deduplication so AVG(x) and SUM(x) share a component), and
the mapping from aggregates back to component slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.aggregates import Aggregate, Component
from repro.engine.predicates import Predicate, hash_once
from repro.errors import QueryScopeError


@hash_once
@dataclass(frozen=True)
class Query:
    """A single-table aggregation query in PS3's scope.

    Parameters
    ----------
    aggregates:
        One or more SUM / COUNT(*) / AVG aggregates.
    predicate:
        Optional predicate tree (conjunctions/disjunctions/negations of
        single-column clauses).
    group_by:
        Zero or more grouping column names. The empty tuple means a global
        (single-group) aggregate.
    """

    aggregates: tuple[Aggregate, ...]
    predicate: Predicate | None = None
    group_by: tuple[str, ...] = ()
    # Derived, cached attributes (computed in __post_init__).
    components: tuple[Component, ...] = field(init=False, compare=False, repr=False)
    component_index: tuple[tuple[int, ...], ...] = field(
        init=False, compare=False, repr=False
    )

    def __init__(
        self,
        aggregates,
        predicate: Predicate | None = None,
        group_by=(),
    ) -> None:
        object.__setattr__(self, "aggregates", tuple(aggregates))
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "group_by", tuple(group_by))
        if not self.aggregates:
            raise QueryScopeError("a query needs at least one aggregate")
        if len(set(self.group_by)) != len(self.group_by):
            raise QueryScopeError("duplicate group-by column")
        components: list[Component] = []
        index: list[tuple[int, ...]] = []
        for agg in self.aggregates:
            slots = []
            for comp in agg.components():
                try:
                    slot = components.index(comp)
                except ValueError:
                    slot = len(components)
                    components.append(comp)
                slots.append(slot)
            index.append(tuple(slots))
        object.__setattr__(self, "components", tuple(components))
        object.__setattr__(self, "component_index", tuple(index))

    @property
    def num_components(self) -> int:
        return len(self.components)

    def columns(self) -> frozenset[str]:
        """All columns referenced by aggregates, predicate, and group-by."""
        used = set(self.group_by)
        for agg in self.aggregates:
            used |= agg.columns()
        if self.predicate is not None:
            used |= self.predicate.columns()
        return frozenset(used)

    def predicate_columns(self) -> frozenset[str]:
        if self.predicate is None:
            return frozenset()
        return self.predicate.columns()

    def num_predicate_clauses(self) -> int:
        """Number of leaf clauses; drives the picker's clustering fallback."""
        if self.predicate is None:
            return 0
        return len(self.predicate.leaves())

    def label(self) -> str:
        parts = [", ".join(a.label() for a in self.aggregates)]
        if self.predicate is not None:
            parts.append(f"WHERE {self.predicate.label()}")
        if self.group_by:
            parts.append(f"GROUP BY {', '.join(self.group_by)}")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Query({self.label()})"
