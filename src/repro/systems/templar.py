"""TEMPLAR-style query-log augmentation [7] (§3 of the survey).

TEMPLAR "leverages information from the SQL query log to improve keyword
mapping and join path inference".  This implementation wraps the shared
entity pipeline and re-ranks ambiguous mappings with log statistics:

- a :class:`QueryLog` ingests past SQL and counts column usage and join
  table pairs,
- when an annotation span has near-tied candidates (e.g. "name" matching
  both ``customers.name`` and ``products.name``), the candidate whose
  column historically appears more often is boosted,
- join fan-out decisions prefer table pairs seen in the log.

With an empty log the system behaves exactly like its base pipeline —
which is the E10 ablation baseline.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List, Optional

from repro.core.interpretation import Interpretation
from repro.core.pipeline import NLIDBContext, NLIDBSystem
from repro.core.registry import register
from repro.sqldb import parse_select
from repro.sqldb.ast import ColumnRef

from .base import AnnotatedQuestion, EntityAnnotator
from .interpreter import InterpreterConfig, SemanticInterpreter


class QueryLog:
    """Aggregated statistics over a history of SQL queries."""

    def __init__(self):
        self.column_counts: Counter = Counter()
        self.table_counts: Counter = Counter()
        self.join_pairs: Counter = Counter()
        self.size = 0

    def add(self, sql: str) -> bool:
        """Ingest one SQL statement; returns False on parse failure."""
        try:
            stmt = parse_select(sql)
        except Exception:
            return False
        self.size += 1
        tables = [t.lower() for t in stmt.referenced_tables()]
        for table in tables:
            self.table_counts[table] += 1
        for i, a in enumerate(tables):
            for b in tables[i + 1 :]:
                self.join_pairs[frozenset((a, b))] += 1
        alias_map = {}
        if stmt.from_table is not None:
            alias_map[stmt.from_table.binding.lower()] = stmt.from_table.table.lower()
        for join in stmt.joins:
            alias_map[join.table.binding.lower()] = join.table.table.lower()
        for expr in stmt.all_expressions():
            if isinstance(expr, ColumnRef):
                table = alias_map.get((expr.table or "").lower(), (expr.table or "").lower())
                if not table and len(tables) == 1:
                    # unqualified column in a single-table query
                    table = tables[0]
                if table:
                    self.column_counts[(table, expr.column.lower())] += 1
        for sub in stmt.subqueries():
            # count nested usage too (cheap recursion through text)
            self.size -= 1  # add() below re-increments
            self.add(sub.to_sql())
        return True

    def extend(self, statements: Iterable[str]) -> int:
        """Ingest many statements; returns how many parsed."""
        return sum(1 for s in statements if self.add(s))

    def column_frequency(self, table: str, column: str) -> float:
        """Relative usage frequency of a column in the log (0 when empty)."""
        if self.size == 0:
            return 0.0
        return self.column_counts[(table.lower(), column.lower())] / self.size


class TemplarSystem(NLIDBSystem):
    """Entity pipeline with query-log-boosted keyword mapping."""

    name = "templar"
    family = "entity"

    def __init__(self, log: Optional[QueryLog] = None, boost: float = 0.3):
        self.log = log or QueryLog()
        self.boost = boost
        self.annotator = EntityAnnotator(
            fuzzy_values=True,
            similarity_threshold=0.75,
        )
        self.interpreter = SemanticInterpreter(InterpreterConfig.full(), self.name)

    def interpret(self, question: str, context: NLIDBContext) -> List[Interpretation]:
        annotated = self.annotator.annotate(question, context)
        annotated = self._reorder_by_log(annotated, context)
        return self.interpreter.interpret(annotated, context)

    # -- log-driven re-ranking -----------------------------------------------------

    def _log_score(self, annotation, context: NLIDBContext) -> float:
        ref = None
        if annotation.kind == "property":
            ref = annotation.payload
        elif annotation.kind == "value":
            ref = annotation.payload[0]
        elif annotation.kind == "concept":
            table = context.mapping.table_of(annotation.payload)
            if self.log.size == 0:
                return annotation.score
            freq = self.log.table_counts[table.lower()] / self.log.size
            return annotation.score * (1.0 + self.boost * min(freq, 1.0))
        if ref is None:
            return annotation.score
        table, column = context.mapping.column_of(ref.concept, ref.prop)
        freq = self.log.column_frequency(table, column)
        return annotation.score * (1.0 + self.boost * min(freq, 1.0))

    def _reorder_by_log(
        self, annotated: AnnotatedQuestion, context: NLIDBContext
    ) -> AnnotatedQuestion:
        """Swap each kept annotation for an alternative the log prefers."""
        current = annotated
        for annotation in list(annotated.annotations):
            if annotation.kind not in ("property", "value", "concept"):
                continue
            alternatives = annotated.alternatives_for(annotation)
            if not alternatives:
                continue
            best = annotation
            best_score = self._log_score(annotation, context)
            for alternative in alternatives:
                score = self._log_score(alternative, context)
                if score > best_score:
                    best, best_score = alternative, score
            if best != annotation:
                current = current.replace(annotation, best)
        return current


register("templar", TemplarSystem)
