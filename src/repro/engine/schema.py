"""Table schemas: typed column descriptors.

PS3's summary statistics are per-column and type-dependent (measures only
apply to numeric columns, heavy hitters and distinct values apply to all,
log-measures only to strictly positive numeric columns), so the schema is
the single source of truth for which statistics exist for a dataset. The
feature-vector layout (``repro.stats.features``) is derived entirely from
the schema, which is what lets all queries over one dataset share a feature
schema (paper section 3.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import SchemaError


class ColumnKind(enum.Enum):
    """The three column types in the supported query scope.

    ``DATE`` columns are stored as integer days since an epoch and behave
    numerically for comparisons and histograms, but are never used inside
    arithmetic aggregate expressions.
    """

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    DATE = "date"


@dataclass(frozen=True)
class Column:
    """A named, typed column.

    Parameters
    ----------
    name:
        Column name, unique within a schema.
    kind:
        One of :class:`ColumnKind`.
    positive:
        For numeric columns, whether all values are strictly positive. Only
        positive columns get log-transformed measures (paper section 3.1).
    low_cardinality:
        For categorical columns, a hint that the number of distinct values
        is small enough to store an exact value dictionary, which enables
        regex-style ``Contains`` filters (paper section 3.2).
    """

    name: str
    kind: ColumnKind
    positive: bool = False
    low_cardinality: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.positive and self.kind is ColumnKind.CATEGORICAL:
            raise SchemaError(
                f"column {self.name!r}: 'positive' applies to numeric columns"
            )
        if self.low_cardinality and self.kind is not ColumnKind.CATEGORICAL:
            raise SchemaError(
                f"column {self.name!r}: 'low_cardinality' applies to "
                "categorical columns"
            )

    @property
    def is_numeric(self) -> bool:
        return self.kind is ColumnKind.NUMERIC

    @property
    def is_categorical(self) -> bool:
        return self.kind is ColumnKind.CATEGORICAL


@dataclass(frozen=True)
class Schema:
    """An ordered collection of uniquely named columns."""

    columns: tuple[Column, ...]
    _by_name: dict[str, Column] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        seen: dict[str, Column] = {}
        for col in self.columns:
            if col.name in seen:
                raise SchemaError(f"duplicate column name {col.name!r}")
            seen[col.name] = col
        object.__setattr__(self, "_by_name", seen)

    @classmethod
    def of(cls, *columns: Column) -> Schema:
        """Build a schema from column arguments (convenience constructor)."""
        return cls(tuple(columns))

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self.columns)

    def require(self, name: str, *kinds: ColumnKind) -> Column:
        """Return the column, checking it exists and matches a kind.

        Raises :class:`SchemaError` if the column is absent or (when
        ``kinds`` are given) of the wrong kind.
        """
        col = self[name]
        if kinds and col.kind not in kinds:
            wanted = "/".join(k.value for k in kinds)
            raise SchemaError(
                f"column {name!r} has kind {col.kind.value}, expected {wanted}"
            )
        return col
