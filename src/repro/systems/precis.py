"""Précis-style keyword answering [26, 47] (§4.1).

Précis turns "unstructured keywords as queries to structured databases
as answers": the keyword query is first normalized to *disjunctive
normal form*, each disjunct is looked up in an inverted index over the
database contents, and the answer is not a flat result set but "the
essence of the answer" — the matching tuples *plus* the tuples they
relate to through foreign keys (a logical database subset).

Implementation:

- a tiny boolean keyword language ``a b OR c NOT d`` with explicit
  DNF normalization (:func:`to_dnf`),
- per-disjunct lookup through the shared value index,
- answer expansion: one FK hop in both directions from every matching
  row, returned as a :class:`PrecisAnswer` (table → rows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.pipeline import NLIDBContext
from repro.nlp.stopwords import is_stopword
from repro.nlp.tokenizer import tokenize


@dataclass(frozen=True)
class DNFClause:
    """One conjunction of (possibly negated) keywords."""

    positive: FrozenSet[str]
    negative: FrozenSet[str] = frozenset()

    def describe(self) -> str:
        parts = sorted(self.positive) + [f"NOT {w}" for w in sorted(self.negative)]
        return " AND ".join(parts)


def to_dnf(query: str) -> List[DNFClause]:
    """Normalize ``a b OR c NOT d`` into DNF clauses.

    ``OR`` splits top-level disjuncts; juxtaposition is conjunction;
    ``NOT w`` negates the following keyword.  (Précis cites textbook DNF
    transformation [36]; keyword queries are already nearly flat, so the
    normalization is the OR-split plus negation bookkeeping.)
    """
    disjuncts = [d.strip() for d in _split_or(query) if d.strip()]
    clauses: List[DNFClause] = []
    for disjunct in disjuncts:
        positive: Set[str] = set()
        negative: Set[str] = set()
        negate_next = False
        for token in tokenize(disjunct):
            if token.kind == "punct":
                continue
            word = token.norm
            if word == "not":
                negate_next = True
                continue
            if word == "and" or is_stopword(word):
                continue
            (negative if negate_next else positive).add(word)
            negate_next = False
        if positive:
            clauses.append(DNFClause(frozenset(positive), frozenset(negative)))
    return clauses


def _split_or(query: str) -> List[str]:
    parts: List[str] = []
    current: List[str] = []
    for word in query.split():
        if word.lower() == "or":
            parts.append(" ".join(current))
            current = []
        else:
            current.append(word)
    parts.append(" ".join(current))
    return parts


@dataclass
class PrecisAnswer:
    """A logical database subset: per-table matched + related rows."""

    rows: Dict[str, List[Tuple[Any, ...]]] = field(default_factory=dict)

    def table_names(self) -> List[str]:
        """Tables participating in the answer."""
        return sorted(self.rows)

    def row_count(self) -> int:
        """Total rows across all tables."""
        return sum(len(rows) for rows in self.rows.values())

    def _add(self, table: str, row: Tuple[Any, ...]) -> None:
        bucket = self.rows.setdefault(table, [])
        if row not in bucket:
            bucket.append(row)

    def to_text(self, max_rows: int = 5) -> str:
        """Readable multi-table rendering."""
        lines = []
        for table in self.table_names():
            lines.append(f"[{table}]")
            for row in self.rows[table][:max_rows]:
                lines.append(f"  {row}")
            extra = len(self.rows[table]) - max_rows
            if extra > 0:
                lines.append(f"  ... ({extra} more)")
        return "\n".join(lines)


class PrecisSystem:
    """DNF keyword lookup with FK-neighbourhood answer expansion."""

    name = "precis"
    family = "entity"

    def __init__(self, expand_hops: int = 1):
        self.expand_hops = expand_hops

    def answer(self, query: str, context: NLIDBContext) -> Optional[PrecisAnswer]:
        """The logical database subset answering ``query``."""
        clauses = to_dnf(query)
        if not clauses:
            return None
        answer = PrecisAnswer()
        matched_any = False
        for clause in clauses:
            for table, row in self._clause_rows(clause, context):
                matched_any = True
                answer._add(table, row)
                for related_table, related_row in self._neighbourhood(
                    table, row, context
                ):
                    answer._add(related_table, related_row)
        return answer if matched_any else None

    # -- matching -----------------------------------------------------------------

    def _clause_rows(self, clause: DNFClause, context: NLIDBContext):
        """Rows containing every positive keyword and no negative one."""
        per_keyword: List[Set[Tuple[str, int]]] = []
        for keyword in clause.positive:
            per_keyword.append(self._rows_with(keyword, context))
        if not per_keyword:
            return
        common = set.intersection(*per_keyword)
        for keyword in clause.negative:
            common -= self._rows_with(keyword, context)
        for table, row_index in sorted(common):
            yield table, context.database.table(table).rows[row_index]

    def _rows_with(self, keyword: str, context: NLIDBContext) -> Set[Tuple[str, int]]:
        out: Set[Tuple[str, int]] = set()
        hits = context.value_index.lookup(keyword)
        for entry in hits:
            table = context.database.table(entry.table)
            column_index = table.schema.column_index(entry.column)
            for row_index, row in enumerate(table.rows):
                if row[column_index] == entry.value:
                    out.add((table.name, row_index))
        return out

    # -- expansion -------------------------------------------------------------------

    def _neighbourhood(self, table: str, row: Tuple[Any, ...], context: NLIDBContext):
        """One FK hop in both directions from ``row``."""
        database = context.database
        schema = database.table(table).schema
        for fk in database.foreign_keys:
            if fk.src_table.lower() == table.lower():
                # row references a parent: include the parent row
                value = row[schema.column_index(fk.src_column)]
                if value is None:
                    continue
                parent = database.table(fk.dst_table)
                parent_index = parent.schema.column_index(fk.dst_column)
                for parent_row in parent.rows:
                    if parent_row[parent_index] == value:
                        yield parent.name, parent_row
            if fk.dst_table.lower() == table.lower():
                # children reference this row: include them
                value = row[schema.column_index(fk.dst_column)]
                if value is None:
                    continue
                child = database.table(fk.src_table)
                child_index = child.schema.column_index(fk.src_column)
                for child_row in child.rows:
                    if child_row[child_index] == value:
                        yield child.name, child_row
