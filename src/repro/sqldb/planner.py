"""Cost-aware query planning for the in-memory SQL engine.

The naive executor interprets a :class:`~repro.sqldb.ast.SelectStatement`
with full nested-loop joins over full table scans, and re-evaluates the
whole WHERE clause on every post-join row.  Execution-accuracy evaluation
(§3/§6 of the survey) re-runs thousands of generated queries per
benchmark, so the planner rewrites each statement into a physical plan
before execution:

- **Predicate pushdown** — conjunctive WHERE clauses are split and every
  single-table conjunct is evaluated during that table's scan, before
  join fan-out.
- **Hash equi-joins** — ``a.x = b.y`` ON conditions build a one-pass
  hash table on the smaller input and probe it, instead of the
  O(|R|·|S|) nested loop.  Key canonicalization
  (:func:`repro.sqldb.types.hash_key`) exactly mirrors
  :func:`~repro.sqldb.types.values_equal`, so NULL keys match nothing
  and mixed int/float/date/string comparisons behave identically.
- **Secondary index scans** — pushed ``col = literal`` / ``col IN
  (literals)`` predicates are answered from the table's lazy hash index
  (:meth:`repro.sqldb.table.Table.secondary_index`) instead of scanning.

Planning is *semantics-preserving*: every query remains answerable by
the naive path (``Executor(db, use_planner=False)``), and the
differential test suite runs the full SQL corpus through both paths.
Conjuncts that could change error behaviour (aggregates, ambiguous
columns, sub-queries) are conservatively left in the residual filter.
Conjuncts are placed, never rewritten or dropped: what static inference
proves about a predicate (:mod:`repro.sqldb.inference`) reaches the
user as the analyzer's SQL5xx warnings, not as a different plan.

:class:`ExecutionStats` is the observability surface: per-query counters
for rows scanned, hash probes, cache hits and the chosen strategy, which
:meth:`QueryPlan.describe` renders as an ``EXPLAIN``-style report.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .ast import (
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    Literal,
    SelectStatement,
    SubqueryExpr,
    TableRef,
    WindowFunction,
    split_conjuncts,
)
from .database import Database
from .schema import TableSchema


@dataclass
class ExecutionStats:
    """Per-query observability counters exposed by the executor.

    ``strategy`` is a one-line summary of the top-level plan; every other
    field is a monotonically increasing counter covering the query and
    all of its sub-queries.
    """

    rows_scanned: int = 0
    rows_output: int = 0
    full_scans: int = 0
    #: queries answered by the vectorized columnar kernels
    vectorized: int = 0
    index_scans: int = 0
    index_lookups: int = 0
    hash_joins: int = 0
    nested_loop_joins: int = 0
    hash_build_rows: int = 0
    hash_probes: int = 0
    loop_comparisons: int = 0
    predicates_pushed: int = 0
    subqueries: int = 0
    statement_cache_hits: int = 0
    statement_cache_misses: int = 0
    preflight_checks: int = 0
    preflight_cache_hits: int = 0
    static_rejections: int = 0
    strategy: str = ""

    def merge(self, other: "ExecutionStats") -> None:
        """Accumulate another stats record's counters into this one."""
        for f in fields(self):
            if f.type == "int" or isinstance(getattr(self, f.name), int):
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> Dict[str, Any]:
        """Counters as a plain dict (for reporting and benchmarks)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def reset(self) -> None:
        """Zero every counter and clear the strategy."""
        for f in fields(self):
            setattr(self, f.name, 0 if isinstance(getattr(self, f.name), int) else "")


@dataclass(frozen=True)
class ScanPlan:
    """How one table is read: access path plus predicates applied during
    the scan (before any join sees the rows)."""

    table: str
    binding: str
    pushed: Tuple[Expr, ...] = ()
    index_column: Optional[str] = None
    index_values: Tuple[Any, ...] = ()

    @property
    def access(self) -> str:
        """``"index-scan(col)"`` or ``"full-scan"``."""
        if self.index_column is not None:
            return f"index-scan({self.index_column}={len(self.index_values)} value(s))"
        return "full-scan"

    def describe(self) -> str:
        alias = f" AS {self.binding}" if self.binding != self.table else ""
        text = f"scan {self.table}{alias} [{self.access}]"
        if self.pushed:
            text += " filter " + " AND ".join(p.to_sql() for p in self.pushed)
        return text


@dataclass(frozen=True)
class JoinPlan:
    """How one JOIN is executed: the scan of the new table plus either a
    hash strategy (probe/build key pairs) or a nested loop."""

    scan: ScanPlan
    strategy: str  # "hash" | "nested-loop"
    probe_keys: Tuple[Expr, ...] = ()  # over the already-joined side
    build_keys: Tuple[Expr, ...] = ()  # over the newly scanned table
    residual: Tuple[Expr, ...] = ()  # non-equi ON conjuncts

    def describe(self) -> str:
        if self.strategy == "hash":
            keys = ", ".join(
                f"{p.to_sql()} = {b.to_sql()}"
                for p, b in zip(self.probe_keys, self.build_keys)
            )
            text = f"hash join ({keys}) <- {self.scan.describe()}"
        else:
            text = f"nested-loop join <- {self.scan.describe()}"
        if self.residual:
            text += " residual " + " AND ".join(c.to_sql() for c in self.residual)
        return text


@dataclass(frozen=True)
class QueryPlan:
    """The physical plan for one SELECT block (sub-query plans nested)."""

    statement: SelectStatement
    base: Optional[ScanPlan]
    joins: Tuple[JoinPlan, ...]
    residual_where: Tuple[Expr, ...]
    pushed_count: int
    subplans: Tuple["QueryPlan", ...] = ()

    def summary(self) -> str:
        """One-line strategy tag recorded in :class:`ExecutionStats`."""
        parts: List[str] = []
        if self.base is None:
            parts.append("const")
        else:
            parts.append(
                "index-scan" if self.base.index_column is not None else "full-scan"
            )
        for jp in self.joins:
            parts.append("hash-join" if jp.strategy == "hash" else "nested-loop")
        if self.pushed_count:
            parts.append(f"pushed={self.pushed_count}")
        if self.subplans:
            parts.append(f"subqueries={len(self.subplans)}")
        return "+".join(parts)

    def describe(self, indent: int = 0) -> str:
        """EXPLAIN-style multi-line rendering of the plan."""
        pad = "  " * indent
        lines = [f"{pad}plan: {self.statement.to_sql()}"]
        if self.base is None:
            lines.append(f"{pad}  -> constant single-row source")
        else:
            lines.append(f"{pad}  -> {self.base.describe()}")
            for jp in self.joins:
                lines.append(f"{pad}  -> {jp.describe()}")
        if self.residual_where:
            lines.append(
                f"{pad}  -> filter "
                + " AND ".join(c.to_sql() for c in self.residual_where)
            )
        for sub in self.subplans:
            lines.append(f"{pad}  subplan:")
            lines.append(sub.describe(indent + 2))
        return "\n".join(lines)


_AMBIGUOUS = object()  # sentinel: resolution would raise in the naive path


class Planner:
    """Rewrites SELECT statements into :class:`QueryPlan` physical plans."""

    def __init__(self, database: Database):
        self.database = database

    def plan(self, stmt: SelectStatement) -> QueryPlan:
        """Plan one SELECT block (and, for EXPLAIN, its sub-queries)."""
        subplans = tuple(self.plan(sub) for sub in stmt.subqueries())
        where_conjuncts = split_conjuncts(stmt.where)
        if stmt.from_table is None:
            return QueryPlan(stmt, None, (), tuple(where_conjuncts), 0, subplans)

        bindings = self._bindings(stmt)
        pushed: Dict[str, List[Expr]] = {}
        residual: List[Expr] = []
        for conjunct in where_conjuncts:
            target = self._conjunct_target(conjunct, bindings)
            if target is None:
                residual.append(conjunct)
            else:
                pushed.setdefault(target, []).append(conjunct)

        base_binding = stmt.from_table.binding.lower()
        base = self._scan_plan(stmt.from_table, pushed.get(base_binding, []))
        pushed_count = sum(len(v) for v in pushed.values())

        joins: List[JoinPlan] = []
        seen = [bindings[0]]
        for i, join in enumerate(stmt.joins):
            jbinding = join.table.binding.lower()
            local = seen + [bindings[i + 1]]
            probe_keys: List[Expr] = []
            build_keys: List[Expr] = []
            residual_on: List[Expr] = []
            for conjunct in split_conjuncts(join.condition):
                pair = self._equi_key(conjunct, local, jbinding)
                if pair is not None:
                    probe_keys.append(pair[0])
                    build_keys.append(pair[1])
                else:
                    residual_on.append(conjunct)
            scan = self._scan_plan(join.table, pushed.get(jbinding, []))
            strategy = "hash" if probe_keys else "nested-loop"
            joins.append(
                JoinPlan(
                    scan,
                    strategy,
                    tuple(probe_keys),
                    tuple(build_keys),
                    tuple(residual_on),
                )
            )
            seen.append(bindings[i + 1])

        return QueryPlan(
            stmt,
            base,
            tuple(joins),
            tuple(residual),
            pushed_count,
            subplans,
        )

    # -- analysis helpers ----------------------------------------------------

    def _bindings(self, stmt: SelectStatement) -> List[Tuple[str, TableSchema]]:
        out = [
            (
                stmt.from_table.binding.lower(),
                self.database.table(stmt.from_table.table).schema,
            )
        ]
        for join in stmt.joins:
            out.append(
                (join.table.binding.lower(), self.database.table(join.table.table).schema)
            )
        return out

    def _candidates(
        self, ref: ColumnRef, bindings: Sequence[Tuple[str, TableSchema]]
    ) -> Any:
        """Bindings a column reference could resolve to within this block.

        Returns a list of binding names, or the ``_AMBIGUOUS`` sentinel
        when naive resolution would raise (ambiguous column, or a
        qualified reference to a missing column) — such conjuncts must
        stay in the residual filter so the error surfaces identically.
        An empty list means "resolves outside this block" (correlated).
        """
        if ref.table:
            want = ref.table.lower()
            for binding, schema in bindings:
                if binding == want:
                    if ref.column in schema:
                        return [binding]
                    return _AMBIGUOUS
            return []
        found = [binding for binding, schema in bindings if ref.column in schema]
        if len(found) > 1:
            return _AMBIGUOUS
        return found

    def _conjunct_target(
        self, conjunct: Expr, bindings: Sequence[Tuple[str, TableSchema]]
    ) -> Optional[str]:
        """The single binding a conjunct can be pushed to, or ``None``.

        Sub-queries and aggregates are never pushed (pushdown would change
        how often they are evaluated / when their errors raise); neither
        are conjuncts spanning several tables or ambiguous references.
        """
        for node in conjunct.walk():
            if isinstance(node, SubqueryExpr):
                return None
            if isinstance(node, FuncCall) and node.is_aggregate:
                return None
            if isinstance(node, WindowFunction):
                # Window calls have no per-row value before windows are
                # computed; leave the conjunct residual so the executor
                # (or analyzer) reports the misuse, not a pushed scan.
                return None
        targets = set()
        for node in conjunct.walk():
            if isinstance(node, ColumnRef):
                candidates = self._candidates(node, bindings)
                if candidates is _AMBIGUOUS:
                    return None
                if candidates:
                    targets.add(candidates[0])
        if len(targets) == 1:
            return targets.pop()
        return None

    def _equi_key(
        self,
        conjunct: Expr,
        bindings: Sequence[Tuple[str, TableSchema]],
        new_binding: str,
    ) -> Optional[Tuple[ColumnRef, ColumnRef]]:
        """``(probe_key, build_key)`` when the conjunct is a usable
        ``old.col = new.col`` equality, else ``None``.

        Both sides must be bare column references (no computed keys —
        evaluating expressions during the build could raise errors the
        nested loop would never reach on an empty input).
        """
        if not (
            isinstance(conjunct, BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            return None
        left = self._candidates(conjunct.left, bindings)
        right = self._candidates(conjunct.right, bindings)
        if left is _AMBIGUOUS or right is _AMBIGUOUS or not left or not right:
            return None
        lb, rb = left[0], right[0]
        if lb == new_binding and rb != new_binding:
            return (conjunct.right, conjunct.left)
        if rb == new_binding and lb != new_binding:
            return (conjunct.left, conjunct.right)
        return None

    def _scan_plan(self, table_ref: TableRef, pushed: Sequence[Expr]) -> ScanPlan:
        """Pick an access path: the first pushed equality/IN predicate on
        an indexable column becomes an index scan; the rest stay filters."""
        schema = self.database.table(table_ref.table).schema
        index_column: Optional[str] = None
        index_values: Tuple[Any, ...] = ()
        remaining: List[Expr] = []
        for conjunct in pushed:
            if index_column is None:
                match = self._index_match(conjunct, schema)
                if match is not None:
                    index_column, index_values = match
                    continue
            remaining.append(conjunct)
        return ScanPlan(
            table_ref.table,
            table_ref.binding,
            tuple(remaining),
            index_column,
            index_values,
        )

    def _index_match(
        self, conjunct: Expr, schema: TableSchema
    ) -> Optional[Tuple[str, Tuple[Any, ...]]]:
        if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
            for col_side, lit_side in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if (
                    isinstance(col_side, ColumnRef)
                    and isinstance(lit_side, Literal)
                    and col_side.column in schema
                ):
                    return (schema.column(col_side.column).name, (lit_side.value,))
        if (
            isinstance(conjunct, InList)
            and not conjunct.negated
            and isinstance(conjunct.operand, ColumnRef)
            and conjunct.operand.column in schema
            and all(isinstance(item, Literal) for item in conjunct.items)
        ):
            return (
                schema.column(conjunct.operand.column).name,
                tuple(item.value for item in conjunct.items),
            )
        return None
