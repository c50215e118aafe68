"""Schema objects: columns, table schemas and foreign keys.

A :class:`TableSchema` is a named, ordered collection of :class:`Column`
definitions; :class:`ForeignKey` links a column of one table to a column
of another, and the ontology layer (:mod:`repro.ontology.builder`) turns
the foreign keys into the relations its reasoner infers join paths over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from .errors import SchemaError, UnknownColumnError
from .types import DataType


@dataclass(frozen=True)
class Column:
    """A single column definition.

    Attributes:
        name: column name (case-insensitive for lookups, original case kept).
        dtype: declared :class:`~repro.sqldb.types.DataType`.
        nullable: whether NULL values are accepted on insert.
        primary_key: whether this column is (part of) the primary key.
        synonyms: alternative surface forms used by NL interpretation
            (e.g. ``salary`` ↔ "pay", "compensation").  The engine ignores
            them; the NLIDB layers read them through the catalog.
    """

    name: str
    dtype: DataType
    nullable: bool = True
    primary_key: bool = False
    synonyms: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise SchemaError("column name must be non-empty")


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key edge ``src_table.src_column -> dst_table.dst_column``."""

    src_table: str
    src_column: str
    dst_table: str
    dst_column: str

    def reversed(self) -> "ForeignKey":
        """The same edge viewed from the referenced side."""
        return ForeignKey(self.dst_table, self.dst_column, self.src_table, self.src_column)


class TableSchema:
    """Ordered column definitions for one table.

    Column lookup is case-insensitive.  Iteration yields columns in
    declaration order.
    """

    def __init__(self, name: str, columns: Iterable[Column], synonyms: Iterable[str] = ()):
        if not name or not name.strip():
            raise SchemaError("table name must be non-empty")
        self.name = name
        self.columns: List[Column] = list(columns)
        self.synonyms: Tuple[str, ...] = tuple(synonyms)
        if not self.columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        self._by_name: Dict[str, int] = {}
        for idx, col in enumerate(self.columns):
            key = col.name.lower()
            if key in self._by_name:
                raise SchemaError(f"duplicate column {col.name!r} in table {name!r}")
            self._by_name[key] = idx

    def __iter__(self) -> "Iterator[Column]":
        return iter(self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, column_name: str) -> bool:
        return column_name.lower() in self._by_name

    def column(self, name: str) -> Column:
        """Return the column named ``name`` (case-insensitive)."""
        try:
            return self.columns[self._by_name[name.lower()]]
        except KeyError:
            raise UnknownColumnError(f"table {self.name!r} has no column {name!r}") from None

    def column_index(self, name: str) -> int:
        """Positional index of ``name`` within the row tuple."""
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise UnknownColumnError(f"table {self.name!r} has no column {name!r}") from None

    @property
    def column_names(self) -> List[str]:
        """Column names in declaration order."""
        return [col.name for col in self.columns]

    @property
    def primary_key(self) -> List[Column]:
        """Columns flagged as primary key, in declaration order."""
        return [col for col in self.columns if col.primary_key]

    def numeric_columns(self) -> List[Column]:
        """Columns with a numeric type (useful for aggregation workloads)."""
        return [col for col in self.columns if col.dtype.is_numeric]

    def text_columns(self) -> List[Column]:
        """Columns with TEXT type (useful for value lookup indexes)."""
        return [col for col in self.columns if col.dtype is DataType.TEXT]

    def to_ddl(self) -> str:
        """Render a ``CREATE TABLE`` statement for documentation/tests."""
        parts = []
        for col in self.columns:
            bits = [col.name, str(col.dtype)]
            if col.primary_key:
                bits.append("PRIMARY KEY")
            if not col.nullable:
                bits.append("NOT NULL")
            parts.append(" ".join(bits))
        body = ",\n  ".join(parts)
        return f"CREATE TABLE {self.name} (\n  {body}\n);"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TableSchema({self.name!r}, {len(self.columns)} columns)"
