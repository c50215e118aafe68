"""Row storage for one table, with typed inserts.

Rows are stored as plain tuples in declaration order; the schema drives
coercion and nullability checks at insert time so the executor can assume
well-typed data.

Tables are append-only: :meth:`Table.insert` and :meth:`Table.insert_many`
are the only writers of ``rows``, and there is no UPDATE or DELETE.  So
every derived structure is an image of a row *prefix* ``rows[:n]``, and
brings itself up to date by absorbing ``rows[n:]`` — the appended rows
only, never a rebuild:

- *secondary hash indexes* (:meth:`Table.secondary_index`): per-column
  maps from canonical value (see :func:`repro.sqldb.types.hash_key`) to
  the row positions holding that value, which the planner uses to answer
  equality and ``IN`` predicates without a full scan;
- the *column store* (:meth:`Table.column_store`), the columnar
  engine's NumPy image of the rows.

Both are created on first use (as the extension of an empty image) and
extended under a per-table lock, so concurrent readers never double or
lose an appended row.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import SchemaError, TypeMismatchError
from .schema import TableSchema
from .types import coerce, hash_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .columnar import ColumnStore
    from .database import Database


class Table:
    """An in-memory table: a :class:`TableSchema` plus a list of row tuples."""

    def __init__(self, schema: TableSchema, database: "Database"):
        self.schema = schema
        self.rows: List[Tuple[Any, ...]] = []
        #: bumped on every insert, together with the owning database's
        #: ``data_version``, which caches key on to notice writes.
        self.version: int = 0
        self._database = database
        #: column → (n, index over ``rows[:n]``); see :meth:`secondary_index`
        self._indexes: Dict[str, Tuple[int, Dict[Any, List[int]]]] = {}
        #: the latest published column store; ``None`` until first requested
        self._column_store: Optional["ColumnStore"] = None
        #: serializes extensions of the indexes and the column store
        self._lock = threading.Lock()

    @property
    def name(self) -> str:
        """The table name, taken from the schema."""
        return self.schema.name

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)

    def insert(self, values: Sequence[Any]) -> None:
        """Insert one row given positionally, coercing each value.

        Raises :class:`TypeMismatchError` for wrong arity, bad types, or a
        NULL in a NOT NULL column.
        """
        cols = self.schema.columns
        if len(values) != len(cols):
            raise TypeMismatchError(
                f"table {self.name!r} expects {len(cols)} values, got {len(values)}"
            )
        row = []
        for col, value in zip(cols, values):
            converted = coerce(value, col.dtype)
            if converted is None and not col.nullable:
                raise TypeMismatchError(f"column {self.name}.{col.name} is NOT NULL")
            row.append(converted)
        self.rows.append(tuple(row))
        self.version += 1
        self._database.data_version += 1

    def insert_dict(self, record: Dict[str, Any]) -> None:
        """Insert one row given as a ``{column: value}`` mapping.

        Missing columns default to NULL; unknown keys raise
        :class:`SchemaError`.
        """
        known = {c.name.lower() for c in self.schema.columns}
        for key in record:
            if key.lower() not in known:
                raise SchemaError(f"table {self.name!r} has no column {key!r}")
        lowered = {k.lower(): v for k, v in record.items()}
        self.insert([lowered.get(c.name.lower()) for c in self.schema.columns])

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk insert of positional rows; returns the number inserted.

        All rows are coerced and validated *before* any is stored, so a
        bad row leaves the table untouched (all-or-nothing), and the batch
        is appended in one step with one ``version`` bump.  The next
        index lookup or columnar scan absorbs the whole batch at once,
        converting only its rows.
        """
        cols = self.schema.columns
        n_cols = len(cols)
        converted: List[Tuple[Any, ...]] = []
        for values in rows:
            if len(values) != n_cols:
                raise TypeMismatchError(
                    f"table {self.name!r} expects {n_cols} values, got {len(values)}"
                )
            row = []
            for col, value in zip(cols, values):
                item = coerce(value, col.dtype)
                if item is None and not col.nullable:
                    raise TypeMismatchError(
                        f"column {self.name}.{col.name} is NOT NULL"
                    )
                row.append(item)
            converted.append(tuple(row))
        if not converted:
            return 0
        self.rows.extend(converted)
        self.version += 1
        self._database.data_version += 1
        return len(converted)

    # -- secondary indexes --------------------------------------------------

    def secondary_index(self, column: str) -> Dict[Any, List[int]]:
        """Hash index over one column: canonical value → ascending row
        positions.  NULLs are not indexed (they match no equality
        predicate).

        The index covers a prefix ``rows[:n]``; each call first appends
        the positions of ``rows[n:]`` in place, so the work is
        proportional to the rows inserted since the last call.
        """
        key = self.schema.column(column).name.lower()
        idx = self.schema.column_index(column)
        with self._lock:
            covered, mapping = self._indexes.get(key, (0, {}))
            rows = self.rows
            n = len(rows)
            for pos in range(covered, n):
                value = rows[pos][idx]
                if value is not None:
                    mapping.setdefault(hash_key(value), []).append(pos)
            self._indexes[key] = (n, mapping)
        return mapping

    def column_store(self) -> "ColumnStore":
        """The table's columnar image (:class:`repro.sqldb.columnar.ColumnStore`).

        When rows were appended since the current store was published,
        publishes a new store extended by exactly those rows (see
        :meth:`ColumnStore.extended`); stores are immutable, so a scan
        still reading an older one is unaffected.
        """
        from .columnar import ColumnStore

        with self._lock:
            store = self._column_store or ColumnStore.empty(self.schema)
            if store.n_rows < len(self.rows):
                store = store.extended(self.schema, self.rows[store.n_rows :])
            self._column_store = store
        return store

    def column_values(self, column: str) -> List[Any]:
        """All values of ``column`` in row order (including NULLs)."""
        idx = self.schema.column_index(column)
        return [row[idx] for row in self.rows]

    def distinct_values(self, column: str) -> List[Any]:
        """Distinct non-NULL values of ``column`` in first-seen order."""
        idx = self.schema.column_index(column)
        seen = set()
        out: List[Any] = []
        for row in self.rows:
            value = row[idx]
            if value is None or value in seen:
                continue
            seen.add(value)
            out.append(value)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name!r}, {len(self.rows)} rows)"
