"""Data-layout tools: sorting, shuffling, and partitioning.

PS3 works with data *in situ* — whatever order it was ingested in — and the
paper's sensitivity study (section 5.5.1) shows how much layout matters.
These helpers build the layouts the evaluation uses: sorted by one or more
columns (the default for every dataset), fully random, or left as-is; then
split into N equal-row partitions.
"""

from __future__ import annotations

import numpy as np

from repro.engine.schema import Schema
from repro.engine.table import PartitionedTable, Table
from repro.errors import ConfigError
from repro.rowbuffers import grow


def sort_table(table: Table, by: str | tuple[str, ...]) -> Table:
    """Return a copy of ``table`` stably sorted by one or more columns.

    With multiple columns, the first name is the primary key (numpy lexsort
    takes keys in reverse significance order, which this wrapper hides).
    """
    keys = (by,) if isinstance(by, str) else tuple(by)
    if not keys:
        raise ConfigError("sort_table requires at least one column")
    for name in keys:
        table.schema.require(name)
    order = np.lexsort(tuple(table.columns[name] for name in reversed(keys)))
    return table.take(order)


def shuffle_table(table: Table, rng: np.random.Generator) -> Table:
    """Return a copy of ``table`` with rows in uniformly random order."""
    order = rng.permutation(table.num_rows)
    return table.take(order)


def partition_evenly(table: Table, num_partitions: int) -> PartitionedTable:
    """Split a table into ``num_partitions`` contiguous, near-equal parts.

    Sizes differ by at most one row. Raises if there are fewer rows than
    partitions (partitions must be non-empty).
    """
    if num_partitions < 1:
        raise ConfigError("num_partitions must be >= 1")
    if table.num_rows < num_partitions:
        raise ConfigError(
            f"cannot split {table.num_rows} rows into {num_partitions} partitions"
        )
    edges = np.linspace(0, table.num_rows, num_partitions + 1).astype(int)
    return PartitionedTable(table, tuple(int(e) for e in edges))


def validate_batch(
    schema: Schema, new_columns: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """One appended batch as arrays of the schema's kinds, in schema order.

    The check every batch passes before it is journaled, applied or
    replayed: a wrong column set, ragged or empty columns are a
    ``ConfigError``, a column of the wrong kind a ``SchemaError``.
    Already-normalised columns come back as they are (no copy).
    """
    if set(new_columns) != set(schema.names):
        missing = set(schema.names) - set(new_columns)
        extra = set(new_columns) - set(schema.names)
        raise ConfigError(f"append column mismatch: missing={missing} extra={extra}")
    new = {name: np.asarray(new_columns[name]) for name in schema.names}
    lengths = {len(arr) for arr in new.values()}
    if len(lengths) != 1 or 0 in lengths:
        raise ConfigError("appended columns must be equal-length and non-empty")
    return Table(schema, new).columns


def append_rows(
    ptable: PartitionedTable, new_columns: dict[str, np.ndarray]
) -> PartitionedTable:
    """Seal a new partition of appended rows onto an existing table.

    Models the paper's append-only stores (section 2.1): the new rows
    become one fresh partition at the end; existing partitions and their
    statistics are untouched. The cost follows the batch, not the table:
    the returned table's columns are views of buffers with spare rows
    behind them (:mod:`repro.rowbuffers`), which the next append fills;
    the whole table is copied only when the spare runs out.
    """
    new = validate_batch(ptable.schema, new_columns)
    columns, buffers = grow(
        ptable.table.columns, new, getattr(ptable.table, "_buffers", None)
    )
    table = Table(ptable.schema, columns)
    table._buffers = buffers
    return PartitionedTable(table, ptable.boundaries + (table.num_rows,))


def layout_and_partition(
    table: Table,
    num_partitions: int,
    sort_by: str | tuple[str, ...] | None = None,
    shuffle: bool = False,
    rng: np.random.Generator | None = None,
) -> PartitionedTable:
    """One-stop layout helper used by datasets and benchmarks.

    Exactly one of ``sort_by`` / ``shuffle`` may be set; with neither, the
    ingest order is kept.
    """
    if sort_by is not None and shuffle:
        raise ConfigError("choose either sort_by or shuffle, not both")
    if shuffle:
        if rng is None:
            raise ConfigError("shuffle requires an rng")
        table = shuffle_table(table, rng)
    elif sort_by is not None:
        table = sort_table(table, sort_by)
    return partition_evenly(table, num_partitions)
