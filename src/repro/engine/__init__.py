"""Columnar storage and query-execution substrate.

This package implements the parts of a big-data query engine that PS3
depends on: an in-memory columnar table split into coarse partitions, a
typed query AST (aggregates, predicates, group-by), one batch executor
producing every partition's answer, weighted answer combination, and
data-layout tools (sorting, shuffling, partitioning).

The paper runs on SCOPE/Spark; this is the from-scratch substrate standing
in for those systems. The essential property preserved is that queries are
evaluated *per partition* and per-partition answers combine linearly under
weights.
"""

from repro.engine.aggregates import AggFunc, Aggregate
from repro.engine.batch_executor import BatchExecutor, FusedTableView, fused_view
from repro.engine.combiner import WeightedChoice
from repro.engine.expressions import BinOp, ColumnRef, Const, Expression
from repro.engine.layout import partition_evenly, shuffle_table, sort_table
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
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.serving import (
    ServingConfig,
    ServingFrontEnd,
    ServingHealth,
    ServingStats,
)
from repro.engine.table import Partition, PartitionedTable, Table

__all__ = [
    "AggFunc",
    "Aggregate",
    "And",
    "BatchExecutor",
    "BinOp",
    "Column",
    "ColumnKind",
    "ColumnRef",
    "Comparison",
    "Const",
    "Contains",
    "Expression",
    "FusedTableView",
    "InSet",
    "Not",
    "Or",
    "Partition",
    "PartitionedTable",
    "Predicate",
    "Query",
    "Schema",
    "ServingConfig",
    "ServingFrontEnd",
    "ServingHealth",
    "ServingStats",
    "Table",
    "WeightedChoice",
    "fused_view",
    "partition_evenly",
    "shuffle_table",
    "sort_table",
]
