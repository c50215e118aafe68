"""The Database: a named catalog of tables plus foreign-key metadata.

The foreign keys are the structural knowledge the ontology layer turns
into relations (:mod:`repro.ontology.builder`), and join inference
between matched elements is the ontology reasoner's job
(:mod:`repro.ontology.reasoner`).  ``catalog_version`` and
``data_version`` tell structures derived from the catalog or the data,
such as the value index (:mod:`repro.sqldb.index`), when to rebuild.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import SchemaError, UnknownTableError
from .schema import Column, ForeignKey, TableSchema
from .table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .analyzer import AnalysisResult
    from .executor import Executor
    from .planner import ExecutionStats
    from .relation import Relation


class Database:
    """A collection of in-memory tables with foreign-key relationships."""

    def __init__(self, name: str = "db"):
        self.name = name
        self._tables: Dict[str, Table] = {}
        self.foreign_keys: List[ForeignKey] = []
        #: bumped on catalog changes (new tables); plan caches key off it.
        self.catalog_version: int = 0
        #: monotonic version covering catalog shape and row contents:
        #: bumped by every new table and every table write (see
        #: :meth:`Table.insert`), so the value index
        #: (:mod:`repro.sqldb.index`) and the columnar engine's caches
        #: detect staleness in O(1).  Like ``Table.version`` it assumes
        #: one writer at a time (readers may run concurrently).
        self.data_version: int = 0
        self._default_executor = None

    # -- catalog ------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        """Register a new table; raises on duplicate names."""
        key = schema.name.lower()
        if key in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        table = Table(schema, self)
        self._tables[key] = table
        self.catalog_version += 1
        self.data_version += 1
        return table

    def create_table_sql(self, sql: str) -> Table:
        """Register a new table from ``CREATE TABLE`` DDL text.

        Constraints round-trip: ``NOT NULL`` lands in
        :attr:`~repro.sqldb.schema.Column.nullable` (which the static
        inference pass reads) and ``PRIMARY KEY`` in
        :attr:`~repro.sqldb.schema.Column.primary_key`.
        """
        from .parser import parse_create_table

        return self.create_table(parse_create_table(sql))

    def table(self, name: str) -> Table:
        """Look up a table by (case-insensitive) name."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise UnknownTableError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        """Whether a table named ``name`` exists."""
        return name.lower() in self._tables

    @property
    def tables(self) -> List[Table]:
        """All tables in creation order."""
        return list(self._tables.values())

    @property
    def table_names(self) -> List[str]:
        """Original-case table names in creation order."""
        return [t.name for t in self._tables.values()]

    def schema(self, name: str) -> TableSchema:
        """The schema of table ``name``."""
        return self.table(name).schema

    def add_foreign_key(
        self, src_table: str, src_column: str, dst_table: str, dst_column: str
    ) -> ForeignKey:
        """Declare ``src_table.src_column`` references ``dst_table.dst_column``.

        Both endpoints must exist; the FK is validated against the catalog.
        """
        src = self.table(src_table).schema
        dst = self.table(dst_table).schema
        src.column(src_column)  # raises if missing
        dst.column(dst_column)
        fk = ForeignKey(src.name, src.column(src_column).name, dst.name, dst.column(dst_column).name)
        self.foreign_keys.append(fk)
        return fk

    def insert(self, table_name: str, values: Sequence[Any]) -> None:
        """Insert one positional row into ``table_name``."""
        self.table(table_name).insert(values)

    def insert_many(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Insert many positional rows; returns the count inserted."""
        return self.table(table_name).insert_many(rows)

    # -- SQL execution ----------------------------------------------------------

    @property
    def executor(self) -> "Executor":
        """The database's shared planning executor (created lazily), so
        ad-hoc SQL benefits from the statement and plan caches."""
        if self._default_executor is None:
            from .executor import Executor

            self._default_executor = Executor(self)
        return self._default_executor

    def execute_sql(self, sql: str) -> "Relation":
        """Parse (cached) and execute SQL text through the shared executor."""
        return self.executor.execute_sql(sql)

    def explain_sql(self, sql: str) -> str:
        """EXPLAIN-style plan description for SQL text (not executed)."""
        return self.executor.explain_sql(sql)

    def analyze_sql(self, sql: str) -> "AnalysisResult":
        """Statically analyze SQL text against this catalog.

        Returns an :class:`~repro.sqldb.analyzer.AnalysisResult` with the
        full diagnostic list (never raises on bad SQL — parse errors
        become ``SQL101`` diagnostics).  Nothing is executed.
        """
        from .analyzer import SemanticAnalyzer

        return SemanticAnalyzer(self).analyze_sql(sql)

    @property
    def last_stats(self) -> "Optional[ExecutionStats]":
        """The shared executor's most recent per-query
        :class:`~repro.sqldb.planner.ExecutionStats` (``None`` before the
        first query)."""
        if self._default_executor is None:
            return None
        return self._default_executor.last_stats

    # -- introspection ----------------------------------------------------------

    def find_column(self, column_name: str) -> List[Tuple[str, Column]]:
        """All (table, column) pairs whose column matches ``column_name``."""
        out = []
        for table in self.tables:
            if column_name in table.schema:
                out.append((table.name, table.schema.column(column_name)))
        return out

    def stats(self) -> Dict[str, int]:
        """Simple size statistics used by benchmark reporting."""
        return {
            "tables": len(self._tables),
            "columns": sum(len(t.schema) for t in self.tables),
            "rows": sum(len(t) for t in self.tables),
            "foreign_keys": len(self.foreign_keys),
        }

    def ddl(self) -> str:
        """Full ``CREATE TABLE`` script for every table."""
        return "\n\n".join(t.schema.to_ddl() for t in self.tables)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Database({self.name!r}, tables={self.table_names})"
