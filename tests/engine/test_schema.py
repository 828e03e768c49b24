"""Unit tests for schemas and column descriptors."""

import pytest

from repro.engine.schema import Column, ColumnKind, Schema
from repro.errors import SchemaError


class TestColumn:
    def test_numeric_column(self):
        col = Column("x", ColumnKind.NUMERIC, positive=True)
        assert col.is_numeric
        assert not col.is_categorical
        assert col.positive

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("", ColumnKind.NUMERIC)

    def test_positive_categorical_rejected(self):
        with pytest.raises(SchemaError):
            Column("c", ColumnKind.CATEGORICAL, positive=True)

    def test_low_cardinality_numeric_rejected(self):
        with pytest.raises(SchemaError):
            Column("x", ColumnKind.NUMERIC, low_cardinality=True)


class TestSchema:
    def test_lookup_and_iteration(self):
        schema = Schema.of(
            Column("a", ColumnKind.NUMERIC),
            Column("b", ColumnKind.CATEGORICAL),
        )
        assert len(schema) == 2
        assert schema.names == ("a", "b")
        assert schema["a"].is_numeric
        assert "b" in schema
        assert "z" not in schema
        assert [c.name for c in schema] == ["a", "b"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema.of(Column("a", ColumnKind.NUMERIC), Column("a", ColumnKind.DATE))

    def test_unknown_column_raises(self):
        schema = Schema.of(Column("a", ColumnKind.NUMERIC))
        with pytest.raises(SchemaError, match="unknown column"):
            schema["missing"]

    def test_require_kind(self):
        schema = Schema.of(Column("n", ColumnKind.NUMERIC))
        assert schema.require("n", ColumnKind.NUMERIC).name == "n"
        with pytest.raises(SchemaError, match="expected"):
            schema.require("n", ColumnKind.CATEGORICAL)
