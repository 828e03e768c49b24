"""In-memory columnar tables and coarse partitions.

A :class:`Table` stores one numpy array per column. A
:class:`PartitionedTable` splits a table into contiguous row ranges; each
:class:`Partition` is a zero-copy view. This models big-data stores where a
"partition" is the finest granularity at which the storage layer maintains
statistics (paper footnote 1): all-or-nothing access, tens-to-hundreds of
megabytes in production, scaled down here.

Rows inside a partition stay in ingest order — PS3 is explicitly layout
agnostic and never re-partitions data (paper section 2.1); layout changes
happen through ``repro.engine.layout`` *before* partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.schema import ColumnKind, Schema
from repro.errors import SchemaError


def _validate_column_array(kind: ColumnKind, name: str, arr: np.ndarray) -> np.ndarray:
    if kind is ColumnKind.CATEGORICAL:
        if arr.dtype.kind not in ("U", "S", "O"):
            raise SchemaError(
                f"categorical column {name!r} must hold strings, got {arr.dtype}"
            )
        return arr.astype(str) if arr.dtype.kind == "O" else arr
    if kind is ColumnKind.DATE:
        if arr.dtype.kind not in ("i", "u"):
            raise SchemaError(
                f"date column {name!r} must hold integer days, got {arr.dtype}"
            )
        return arr.astype(np.int64, copy=False)
    if arr.dtype.kind not in ("i", "u", "f"):
        raise SchemaError(f"numeric column {name!r} has dtype {arr.dtype}")
    return arr.astype(np.float64) if arr.dtype.kind != "f" else arr


@dataclass
class Table:
    """A columnar table: a schema plus one equal-length array per column."""

    schema: Schema
    columns: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if set(self.columns) != set(self.schema.names):
            missing = set(self.schema.names) - set(self.columns)
            extra = set(self.columns) - set(self.schema.names)
            raise SchemaError(f"column mismatch: missing={missing} extra={extra}")
        lengths = {name: len(arr) for name, arr in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"ragged columns: {lengths}")
        for column in self.schema:
            arr = np.asarray(self.columns[column.name])
            self.columns[column.name] = _validate_column_array(
                column.kind, column.name, arr
            )

    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def __len__(self) -> int:
        return self.num_rows

    def take(self, indices: np.ndarray) -> Table:
        """A new table with rows reordered/selected by ``indices``."""
        return Table(
            self.schema,
            {name: arr[indices] for name, arr in self.columns.items()},
        )

    def slice(self, start: int, stop: int) -> dict[str, np.ndarray]:
        """Zero-copy column views for the half-open row range [start, stop)."""
        return {name: arr[start:stop] for name, arr in self.columns.items()}


@dataclass(frozen=True)
class Partition:
    """A contiguous, all-or-nothing row range of a table."""

    table: Table
    index: int
    start: int
    stop: int

    @property
    def num_rows(self) -> int:
        return self.stop - self.start

    def __len__(self) -> int:
        return self.num_rows

    @property
    def columns(self) -> dict[str, np.ndarray]:
        return self.table.slice(self.start, self.stop)

    def column(self, name: str) -> np.ndarray:
        return self.table.columns[name][self.start : self.stop]


@dataclass
class PartitionedTable:
    """A table split into N contiguous partitions.

    The split is by row ranges, so partitions inherit whatever layout the
    underlying table has (sorted, shuffled, ingest order, ...). This is the
    object the whole PS3 pipeline operates on.
    """

    table: Table
    boundaries: tuple[int, ...]  # len N+1, boundaries[0] == 0
    partitions: tuple[Partition, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        bounds = self.boundaries
        if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != self.table.num_rows:
            raise SchemaError(
                "boundaries must start at 0 and end at num_rows "
                f"(got {bounds[:2]}...{bounds[-1]} for {self.table.num_rows} rows)"
            )
        if any(b >= e for b, e in zip(bounds, bounds[1:])):
            raise SchemaError("partitions must be non-empty and increasing")
        self.partitions = tuple(
            Partition(self.table, i, b, e)
            for i, (b, e) in enumerate(zip(bounds, bounds[1:]))
        )

    @property
    def schema(self) -> Schema:
        return self.table.schema

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def num_rows(self) -> int:
        return self.table.num_rows

    def __iter__(self):
        return iter(self.partitions)

    def __getitem__(self, index: int) -> Partition:
        return self.partitions[index]
