"""Query evaluation over :class:`~repro.sqldb.database.Database`.

The executor interprets :class:`~repro.sqldb.ast.SelectStatement` trees:

- FROM/JOIN via the :mod:`~repro.sqldb.planner` physical plan — hash
  equi-joins, predicate pushdown and secondary-index scans — with the
  original nested-loop interpreter kept as the ``use_planner=False``
  escape hatch (and as the reference path for differential testing),
- WHERE with full boolean expressions, LIKE, BETWEEN, IN lists,
- nested sub-queries (scalar / IN / EXISTS), including correlated ones —
  inner column references resolve through the enclosing row scope,
- GROUP BY / HAVING with the five SQL aggregates,
- ORDER BY (including by select alias) and LIMIT/OFFSET, DISTINCT,
- compound statements (``UNION [ALL]`` / ``EXCEPT`` / ``INTERSECT``)
  with set-operation NULL-equality dedup, ``CASE`` expressions (searched
  and simple forms), and a first slice of window functions
  (``ROW_NUMBER``/``RANK``/``DENSE_RANK`` plus windowed
  ``COUNT``/``SUM``/``AVG``/``MIN``/``MAX`` over ``PARTITION BY`` /
  ``ORDER BY``, sqlite default frame).

Repeated statements are served from a parsed-statement LRU cache keyed
by SQL text (parsing is pure, so the cache never goes stale — results
are always recomputed from current table rows), and compiled ``LIKE``
regexes are memoized.  Per-query counters land in ``executor.last_stats``
(:class:`~repro.sqldb.planner.ExecutionStats`).

NULL follows SQL **three-valued logic**: a comparison, ``LIKE``,
``BETWEEN`` or ``IN`` involving NULL evaluates to *unknown* (Python
``None``), ``NOT`` propagates unknown, and ``AND``/``OR`` are Kleene
connectives.  WHERE/HAVING/ON keep only rows whose predicate is
``True`` — unknown filters out exactly as false does, so
``WHERE NOT (a = 1)`` does **not** resurrect the ``a IS NULL`` row and
``x NOT IN (1, NULL)`` matches nothing.  ``IS [NOT] NULL`` is the only
NULL test that yields a plain boolean.  The remaining deviations from
full SQL, chosen to match NLIDB benchmark practice, are documented in
:mod:`repro.sqldb.types` (``LIKE`` folds ASCII case only, as in SQLite;
comparisons across incompatible non-NULL types are false, not errors).
The planner preserves result semantics exactly; the one sanctioned
deviation is *error timing* — a predicate pushed below a join may raise
(or skip raising) a type error that the naive path would reach in a
different order.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .ast import (
    Between,
    BinaryOp,
    CaseExpr,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Literal,
    SelectStatement,
    SetOperation,
    Star,
    Statement,
    SubqueryExpr,
    UnaryOp,
    WindowFunction,
)
from .database import Database
from .errors import (
    AggregateArityError,
    AmbiguousColumnError,
    CompoundOrderError,
    ExecutionError,
    FunctionArityError,
    GroupedStarError,
    MisplacedAggregateError,
    MisplacedWindowError,
    NestedAggregateError,
    SetOperationArityError,
    SubqueryColumnsError,
    SubqueryError,
    UnknownColumnError,
    UnknownFunctionError,
    UnknownTableError,
    WindowFunctionError,
)
from .functions import AGGREGATE_FUNCTIONS, call_scalar
from .planner import ExecutionStats, JoinPlan, Planner, QueryPlan, ScanPlan
from .relation import Relation
from .schema import TableSchema
from .types import (
    and3,
    binary_value,
    bool3,
    compare3,
    hash_key,
    negate,
    not3,
    or3,
    sort_key,
    values_equal,
)

from ..perf.cache import LRUCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .analyzer import AnalysisResult
    from .columnar import ColumnarEngine


class _Scope:
    """One row's name-resolution scope: the bound tables of the current
    block plus a link to the enclosing block's scope for correlated
    sub-queries."""

    __slots__ = ("bindings", "parent")

    def __init__(
        self,
        bindings: List[Tuple[str, TableSchema, Tuple[Any, ...]]],
        parent: Optional["_Scope"] = None,
    ):
        self.bindings = bindings  # (binding name lowered, schema, row)
        self.parent = parent

    def extended(self, binding: str, schema: TableSchema, row: Tuple[Any, ...]) -> "_Scope":
        """A new scope with one more bound row."""
        return _Scope(self.bindings + [(binding.lower(), schema, row)], self.parent)

    def resolve(self, ref: ColumnRef) -> Any:
        """Resolve a column reference, walking outward for correlation."""
        scope: Optional[_Scope] = self
        while scope is not None:
            found = scope._resolve_local(ref)
            if found is not _MISSING:
                return found
            scope = scope.parent
        raise UnknownColumnError(f"cannot resolve column {ref.to_sql()!r}")

    def _resolve_local(self, ref: ColumnRef) -> Any:
        if ref.table:
            want = ref.table.lower()
            for binding, schema, row in self.bindings:
                if binding == want:
                    if ref.column in schema:
                        return row[schema.column_index(ref.column)]
                    raise UnknownColumnError(
                        f"table {ref.table!r} has no column {ref.column!r}"
                    )
            return _MISSING
        matches = [
            (schema, row)
            for binding, schema, row in self.bindings
            if ref.column in schema
        ]
        if len(matches) > 1:
            raise AmbiguousColumnError(f"column {ref.column!r} is ambiguous")
        if matches:
            schema, row = matches[0]
            return row[schema.column_index(ref.column)]
        return _MISSING


def _binds(ref: ColumnRef, bindings: List[Tuple[str, TableSchema]]) -> bool:
    """Whether ``ref`` stops at this level of the scope chain, as
    :meth:`_Scope._resolve_local` decides (with a value or an error)."""
    if ref.table:
        want = ref.table.lower()
        return any(binding == want for binding, _ in bindings)
    return any(ref.column in schema for _, schema in bindings)


class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<missing>"


_MISSING = _Missing()


class _Group:
    """One group of a grouped block, and the scope its HAVING, select
    list and ORDER BY keys evaluate in: an aggregate reads every member
    scope (in input order), anything else reads the representative
    scope :meth:`rep`, so a bare column reads the first member.

    Only the whole-table group of an empty input is empty.  Its
    representative is an all-NULL row over the block's FROM/JOIN
    bindings: a bare column there is NULL, and ``a IS NULL``, ``1 IN
    (1, 2)`` or an uncorrelated subquery evaluate as sqlite3 does.  The
    columnar engine's group view overrides :meth:`rep` and
    :meth:`aggregate` to read its column store."""

    __slots__ = ("members", "size", "_rep")

    def __init__(self, members: List[_Scope], empty_rep: Optional[_Scope] = None):
        self.members = members
        self.size = len(members)
        self._rep = members[0] if members else empty_rep

    def rep(self) -> _Scope:
        assert self._rep is not None
        return self._rep

    def resolve(self, ref: ColumnRef) -> Any:
        """A bare column reads the representative scope."""
        return self.rep().resolve(ref)

    def aggregate(
        self, executor: "Executor", call: FuncCall, func: Callable[..., Any]
    ) -> Any:
        """``func`` over the call's argument evaluated on every member."""
        values = [executor._eval(call.args[0], scope) for scope in self.members]
        return func(values, distinct=call.distinct)


#: what an expression evaluates over: one row, or one group of a grouped block
_AnyScope = Union[_Scope, _Group]


class Executor:
    """Evaluates SELECT statements against one database.

    ``use_planner`` selects the physical-plan path (hash joins, predicate
    pushdown, index scans); ``use_planner=False`` is the naive reference
    interpreter.  ``statement_cache_size=0`` disables the parsed-statement
    LRU.  After every query, ``last_stats`` holds that query's
    :class:`~repro.sqldb.planner.ExecutionStats` and ``total_stats``
    accumulates across the executor's lifetime.

    ``analyze=True`` (the default) runs the static semantic analyzer
    (:mod:`repro.sqldb.analyzer`) as a pre-flight before planning: a
    statement with an error-severity diagnostic raises the mapped
    exception class — the same class the interpreter would raise —
    without touching a row.  ``analyze=False`` is the escape hatch that
    restores pure lazy runtime errors.  The analysis and the plan depend
    only on the statement and the catalog, so both live in one cache
    entry per statement object, dropped when ``catalog_version`` moves:
    repeated statements pay the analyzer and the planner once, across
    writes.  Plans are never rewritten by static inference; its verdicts
    surface only as the analyzer's SQL5xx warnings.

    Per-value rules (three-valued comparison, arithmetic, ``LIKE``, the
    Kleene connectives) come from :mod:`repro.sqldb.types`.  A group is
    a scope: :meth:`_eval` evaluates every expression, over a row or
    over a group, and an aggregate is legal only over a group.
    :meth:`_project_groups` runs HAVING, the select list and ORDER BY
    over a :class:`_Group` of member scopes here, or over the columnar
    engine's group view, whose aggregates over a local column read the
    column store.
    """

    def __init__(
        self,
        database: Database,
        use_planner: bool = True,
        statement_cache_size: int = 256,
        analyze: bool = True,
        use_columnar: bool = True,
    ):
        self.database = database
        self.use_planner = use_planner
        self.analyze = analyze
        #: route eligible planned statements through the vectorized
        #: columnar kernels (:mod:`repro.sqldb.columnar`); anything the
        #: kernels can't mirror byte-for-byte falls back automatically.
        #: Only active together with ``use_planner`` — the naive path
        #: stays a pure reference interpreter.
        self.use_columnar = use_columnar
        self.last_stats = ExecutionStats()
        self.total_stats = ExecutionStats()
        self._stats = self.last_stats
        #: ``id(expr) -> reduced result`` of each uncorrelated subquery run
        #: so far in the current statement execution, whose tree stays
        #: alive (so no other expression takes the id) until the next
        #: execution empties it
        self._subquery_results: Dict[int, Any] = {}
        self._planner = Planner(database)
        self._analyzer = None
        self._columnar = None
        self._statement_cache = LRUCache(statement_cache_size)
        #: per-row window values while projecting a windowed block; a
        #: WindowFunction reached by ``_eval`` outside such a projection
        #: has no value and raises :class:`MisplacedWindowError`.
        self._active_windows: Optional[Dict[WindowFunction, Any]] = None
        #: ``id(stmt) -> [stmt, analysis, plan, uncorrelated]``, each
        #: part filled on first use; cleared when ``catalog_version`` moves
        self._statement_info = LRUCache(512)
        self._info_catalog_version = database.catalog_version

    # -- public API -----------------------------------------------------------

    def execute(self, stmt: Statement) -> Relation:
        """Run ``stmt`` and return its result relation."""
        self._begin_query()
        self._preflight(stmt)
        return self._run(stmt)

    def execute_sql(self, sql: str) -> Relation:
        """Parse (through the statement cache) and run SQL text."""
        self._begin_query()
        stmt = self._parse_cached(sql, count=True)
        self._preflight(stmt)
        return self._run(stmt)

    def analysis_for(self, stmt: Statement) -> "AnalysisResult":
        """Static analysis of ``stmt``, cached per statement object.

        The cache is keyed by object identity (the statement cache makes
        repeated SQL text hit the same object) and shares its entry with
        the plan.  The analyzer reads only the catalog, so a write keeps
        the verdict and a catalog change drops it.
        """
        from .analyzer import SemanticAnalyzer

        entry = self._info_entry(stmt)
        if entry[1] is not None:
            self._stats.preflight_cache_hits += 1
            return entry[1]
        if self._analyzer is None:
            self._analyzer = SemanticAnalyzer(self.database)
        entry[1] = self._analyzer.analyze(stmt)
        return entry[1]

    def explain(self, stmt: Statement) -> str:
        """EXPLAIN-style description of the plan chosen for ``stmt``,
        including which execution path (vectorized columnar or row) the
        statement would take."""
        if isinstance(stmt, SetOperation):
            mode = "concatenate" if stmt.all_rows else "hash dedup, NULLs compare equal"
            suffix = " ALL" if stmt.all_rows else ""
            lines = [f"compound: {stmt.op.upper()}{suffix} ({mode})"]
            for i, block in enumerate(stmt.selects()):
                lines.append(f"  branch {i + 1}:")
                lines.extend("    " + ln for ln in self.explain(block).splitlines())
            if stmt.order_by:
                lines.append(
                    "  order by: " + ", ".join(o.to_sql() for o in stmt.order_by)
                )
            return "\n".join(lines)
        plan = self._planner.plan(stmt)
        text = plan.describe()
        if self.use_planner:
            engine = self._columnar_engine()
            if engine is not None:
                text += "\n" + engine.describe(stmt, plan)
        return text

    def explain_sql(self, sql: str) -> str:
        """Parse SQL text and describe its plan without executing it."""
        return self.explain(self._parse_cached(sql, count=False))

    # -- query lifecycle -------------------------------------------------------

    def _begin_query(self) -> None:
        self.last_stats = ExecutionStats()
        self._stats = self.last_stats
        self._subquery_results = {}

    def _preflight(self, stmt: Statement) -> None:
        """Static pre-flight: reject statements the analyzer proves broken.

        Raises the exception class mapped to the first error-severity
        diagnostic — identical to what the interpreter would raise, only
        before any row is touched.  Warnings never reject."""
        if not self.analyze:
            return
        self._stats.preflight_checks += 1
        result = self.analysis_for(stmt)
        if not result.ok:
            self._stats.static_rejections += 1
            # _run never happens, so fold this query's counters in now.
            self.total_stats.merge(self._stats)
            result.raise_first_error()

    def _run(self, stmt: Statement) -> Relation:
        result = self._execute(stmt, parent=None)
        self._stats.rows_output += len(result.rows)
        if not self.use_planner and not self._stats.strategy:
            self._stats.strategy = "naive"
        self.total_stats.merge(self._stats)
        return result

    def _parse_cached(self, sql: str, count: bool) -> Statement:
        from .parser import parse_select

        stmt = self._statement_cache.get(sql)
        if stmt is None:
            stmt = parse_select(sql)
            self._statement_cache.put(sql, stmt)
            if count:
                self._stats.statement_cache_misses += 1
        elif count:
            self._stats.statement_cache_hits += 1
        return stmt

    def _info_entry(self, stmt: Statement) -> List[Any]:
        """The ``[stmt, analysis, plan, uncorrelated]`` cache entry for
        ``stmt``."""
        if self.database.catalog_version != self._info_catalog_version:
            # New tables can change name resolution and unqualified-column
            # binding, so every verdict and plan is dropped.
            self._statement_info.clear()
            self._info_catalog_version = self.database.catalog_version
        entry = self._statement_info.get(id(stmt))
        if entry is None or entry[0] is not stmt:
            entry = [stmt, None, None, None]
            self._statement_info.put(id(stmt), entry)
        return entry

    def _plan_for(self, stmt: SelectStatement) -> QueryPlan:
        entry = self._info_entry(stmt)
        if entry[2] is None:
            entry[2] = self._planner.plan(stmt)
        return entry[2]

    def _uncorrelated(self, stmt: SelectStatement) -> bool:
        """Whether subquery ``stmt`` reads nothing from enclosing rows,
        so one run serves every outer row (decided once per statement)."""
        entry = self._info_entry(stmt)
        if entry[3] is None:
            entry[3] = self._binds_inside(stmt, ())
        return bool(entry[3])

    def _binds_inside(
        self, stmt: SelectStatement, levels: Tuple[List[Tuple[str, TableSchema]], ...]
    ) -> bool:
        """Whether every column reference in ``stmt`` binds to a block of
        ``stmt`` itself.  ``levels`` holds the bindings of the blocks
        enclosing ``stmt`` inside the subquery under test, innermost
        last, and a reference walks them as :meth:`_Scope.resolve` walks
        its parents: a name that only a sibling subquery binds resolves
        outward, so it correlates."""
        trefs = [stmt.from_table] if stmt.from_table is not None else []
        trefs.extend(join.table for join in stmt.joins)
        if not all(self.database.has_table(tref.table) for tref in trefs):
            return False  # the run raises; keep it per row
        bindings = [(t.binding.lower(), self.database.schema(t.table)) for t in trefs]
        # a join condition sees only the tables bound so far
        base = len(trefs) - len(stmt.joins)
        roots = [
            (join.condition, levels + (bindings[: base + i + 1],))
            for i, join in enumerate(stmt.joins)
        ]
        exprs = (
            *(item.expr for item in stmt.select_items),
            stmt.where,
            *stmt.group_by,
            stmt.having,
            *(order.expr for order in stmt.order_by),
        )
        roots.extend((expr, levels + (bindings,)) for expr in exprs if expr is not None)
        for root, scope in roots:
            for node in root.walk():
                if isinstance(node, SubqueryExpr):
                    if not self._binds_inside(node.query, scope):
                        return False
                elif isinstance(node, ColumnRef) and not any(
                    _binds(node, level) for level in scope
                ):
                    return False
        return True

    def _columnar_engine(self) -> "Optional[ColumnarEngine]":
        """The lazily built vectorized engine, or ``None`` when disabled
        (or when its dependencies are unavailable)."""
        if not self.use_columnar:
            return None
        if self._columnar is None:
            try:
                from .columnar import ColumnarEngine

                self._columnar = ColumnarEngine(self)
            except Exception:
                # numpy missing or engine init failed: permanently fall
                # back to the row path for this executor.
                self.use_columnar = False
                return None
        return self._columnar

    # -- statement evaluation ----------------------------------------------------

    def _execute(self, stmt: Statement, parent: Optional[_Scope]) -> Relation:
        if isinstance(stmt, SetOperation):
            return self._execute_compound(stmt, parent)
        if self.use_planner:
            plan = self._plan_for(stmt)
            engine = self._columnar_engine()
            if engine is not None:
                claimed = engine.try_execute(stmt, plan, parent)
                if claimed is not None:
                    rows, order_rows, columns = claimed
                    self._stats.predicates_pushed += plan.pushed_count
                    if parent is None and not self._stats.strategy:
                        self._stats.strategy = plan.summary()
                    return self._finalize(stmt, rows, order_rows, columns)
            scopes = self._scopes_from_plan(plan, parent)
            if plan.residual_where:
                scopes = [
                    s
                    for s in scopes
                    if all(
                        self._truthy(self._eval(c, s)) for c in plan.residual_where
                    )
                ]
            self._stats.predicates_pushed += plan.pushed_count
            if parent is None and not self._stats.strategy:
                self._stats.strategy = plan.summary()
        else:
            scopes = self._build_from(stmt, parent)
            if stmt.where is not None:
                scopes = [s for s in scopes if self._truthy(self._eval(stmt.where, s))]

        if stmt.is_grouped():
            rows, order_rows = self._project_groups(stmt, self._groups(stmt, scopes, parent))
        else:
            rows, order_rows = self._project_rows(stmt, scopes)

        columns = self._output_columns(stmt, scopes)
        return self._finalize(stmt, rows, order_rows, columns)

    # -- compound (set-operation) evaluation ----------------------------------

    def _execute_compound(self, stmt: SetOperation, parent: Optional[_Scope]) -> Relation:
        """Evaluate ``left OP right`` with SQL set-operation semantics.

        Dedup follows the SQL *set-operation* NULL rule, which differs
        from WHERE's three-valued comparisons: for ``UNION``/``EXCEPT``/
        ``INTERSECT`` two rows are duplicates when their values are
        pairwise "not distinct", i.e. **NULLs compare equal** here.  The
        key tuples below therefore let ``None`` pass through (equal to
        itself in a hash set), while WHERE-level ``=`` against NULL stays
        unknown — the corpus asserts the two paths disagree on purpose
        (``EXCEPT`` vs ``NOT IN`` with NULLs).
        """
        if parent is None and not self._stats.strategy:
            suffix = " all" if stmt.all_rows else ""
            self._stats.strategy = f"compound({stmt.op}{suffix})"
        left = self._execute(stmt.left, parent)
        right = self._execute(stmt.right, parent)
        if len(left.columns) != len(right.columns):
            raise SetOperationArityError(
                f"{stmt.op.upper()} branches return {len(left.columns)} "
                f"and {len(right.columns)} columns"
            )
        columns = list(left.columns)
        rows: List[Tuple[Any, ...]]
        if stmt.op == "union":
            if stmt.all_rows:
                rows = list(left.rows) + list(right.rows)
            else:
                rows = []
                seen = set()
                for row in list(left.rows) + list(right.rows):
                    key = _setop_key(row)
                    if key not in seen:
                        seen.add(key)
                        rows.append(row)
        else:
            right_keys = {_setop_key(row) for row in right.rows}
            want_in_right = stmt.op == "intersect"
            rows = []
            seen = set()
            for row in left.rows:
                key = _setop_key(row)
                if key in seen or (key in right_keys) != want_in_right:
                    continue
                seen.add(key)
                rows.append(row)
        if stmt.order_by:
            keys = self._compound_order_keys(stmt, columns)
            rows = sorted(
                rows,
                key=lambda row: tuple(
                    _DirectionKey(sort_key(row[idx]), desc) for idx, desc in keys
                ),
            )
        if stmt.limit is not None or stmt.offset:
            skip = stmt.offset or 0
            end = None if stmt.limit is None else skip + stmt.limit
            rows = rows[skip:end]
        return Relation(columns, rows)

    def _compound_order_keys(
        self, stmt: SetOperation, columns: List[str]
    ) -> List[Tuple[int, bool]]:
        """Resolve a compound's ORDER BY terms to output-column indices.

        Per sqlite, a compound orders by the leftmost block's output
        column *names* or by 1-based integer *positions* — arbitrary
        expressions have no single block to evaluate against."""
        lowered = [c.lower() for c in columns]
        out: List[Tuple[int, bool]] = []
        for item in stmt.order_by:
            expr = item.expr
            idx: Optional[int] = None
            if isinstance(expr, ColumnRef) and expr.table is None:
                name = expr.column.lower()
                if name in lowered:
                    idx = lowered.index(name)
            elif (
                isinstance(expr, Literal)
                and isinstance(expr.value, int)
                and not isinstance(expr.value, bool)
                and 1 <= expr.value <= len(columns)
            ):
                idx = expr.value - 1
            if idx is None:
                raise CompoundOrderError(
                    f"compound ORDER BY term {expr.to_sql()!r} is neither an "
                    "output column name nor a 1-based column position"
                )
            out.append((idx, item.direction == "desc"))
        return out

    def _finalize(
        self,
        stmt: SelectStatement,
        rows: List[Tuple[Any, ...]],
        order_rows: List[Tuple[Any, ...]],
        columns: List[str],
    ) -> Relation:
        """Shared DISTINCT → ORDER BY → LIMIT/OFFSET tail, so the
        columnar and row paths diverge only in how they produce rows."""
        if stmt.distinct:
            seen = set()
            kept_rows, kept_order = [], []
            for row, okey in zip(rows, order_rows):
                marker = tuple(_hashable(v) for v in row)
                if marker in seen:
                    continue
                seen.add(marker)
                kept_rows.append(row)
                kept_order.append(okey)
            rows, order_rows = kept_rows, kept_order

        if stmt.order_by:
            directions = [item.direction for item in stmt.order_by]
            def key(pair: Tuple[Any, Any]) -> Tuple[Any, ...]:
                _, okey = pair
                return tuple(
                    _DirectionKey(sort_key(v), direction == "desc")
                    for v, direction in zip(okey, directions)
                )
            paired = sorted(zip(rows, order_rows), key=key)
            rows = [row for row, _ in paired]

        if stmt.limit is not None or stmt.offset:
            skip = stmt.offset or 0
            end = None if stmt.limit is None else skip + stmt.limit
            rows = rows[skip:end]

        return Relation(columns, rows)

    def _build_from(self, stmt: SelectStatement, parent: Optional[_Scope]) -> List[_Scope]:
        if stmt.from_table is None:
            return [_Scope([], parent)]
        base = self.database.table(stmt.from_table.table)
        binding = stmt.from_table.binding
        scopes = [
            _Scope([(binding.lower(), base.schema, row)], parent) for row in base.rows
        ]
        for join in stmt.joins:
            table = self.database.table(join.table.table)
            joined: List[_Scope] = []
            jbinding = join.table.binding
            for scope in scopes:
                for row in table.rows:
                    candidate = scope.extended(jbinding, table.schema, row)
                    if self._truthy(self._eval(join.condition, candidate)):
                        joined.append(candidate)
            scopes = joined
        return scopes

    # -- planned FROM/JOIN evaluation -----------------------------------------

    def _scopes_from_plan(
        self, plan: QueryPlan, parent: Optional[_Scope]
    ) -> List[_Scope]:
        if plan.base is None:
            return [_Scope([], parent)]
        base_table = self.database.table(plan.base.table)
        rows = self._scan(plan.base, base_table, parent)
        binding = plan.base.binding.lower()
        scopes = [
            _Scope([(binding, base_table.schema, row)], parent) for row in rows
        ]
        for join_plan in plan.joins:
            scopes = self._join(scopes, join_plan, parent)
        return scopes

    def _scan(
        self, scan: ScanPlan, table: Any, parent: Optional[_Scope]
    ) -> List[Tuple[Any, ...]]:
        """Read one table: index lookup when the plan found an equality/IN
        predicate, full scan otherwise; pushed predicates filter here."""
        stats = self._stats
        if scan.index_column is not None:
            index = table.secondary_index(scan.index_column)
            stats.index_scans += 1
            positions: List[int] = []
            for value in scan.index_values:
                if value is None:
                    continue  # NULL matches nothing
                stats.index_lookups += 1
                positions.extend(index.get(hash_key(value), ()))
            all_rows = table.rows
            candidates = [all_rows[pos] for pos in sorted(set(positions))]
        else:
            stats.full_scans += 1
            candidates = table.rows
        stats.rows_scanned += len(candidates)
        if not scan.pushed:
            return list(candidates)
        binding = scan.binding.lower()
        schema = table.schema
        out: List[Tuple[Any, ...]] = []
        for row in candidates:
            scope = _Scope([(binding, schema, row)], parent)
            if all(self._truthy(self._eval(p, scope)) for p in scan.pushed):
                out.append(row)
        return out

    def _join(
        self, scopes: List[_Scope], join_plan: JoinPlan, parent: Optional[_Scope]
    ) -> List[_Scope]:
        stats = self._stats
        table = self.database.table(join_plan.scan.table)
        schema = table.schema
        binding = join_plan.scan.binding
        rows = self._scan(join_plan.scan, table, parent)

        if join_plan.strategy != "hash":
            stats.nested_loop_joins += 1
            out: List[_Scope] = []
            for scope in scopes:
                for row in rows:
                    stats.loop_comparisons += 1
                    candidate = scope.extended(binding, schema, row)
                    if all(
                        self._truthy(self._eval(c, candidate))
                        for c in join_plan.residual
                    ):
                        out.append(candidate)
            return out

        stats.hash_joins += 1
        if not scopes:
            return []
        lowered = binding.lower()
        out = []
        # Build the hash table on the smaller input.  Both arms emit
        # candidates in (existing scope order, table row order) — exactly
        # the nested loop's order — so results stay byte-identical.
        if len(scopes) <= len(rows):
            buckets: Dict[Any, List[int]] = {}
            for i, scope in enumerate(scopes):
                key = self._join_key(join_plan.probe_keys, scope)
                if key is not None:
                    buckets.setdefault(key, []).append(i)
            stats.hash_build_rows += len(scopes)
            matches: List[List[Tuple[Any, ...]]] = [[] for _ in scopes]
            for row in rows:
                row_scope = _Scope([(lowered, schema, row)], parent)
                stats.hash_probes += 1
                key = self._join_key(join_plan.build_keys, row_scope)
                if key is None:
                    continue
                for i in buckets.get(key, ()):
                    matches[i].append(row)
            for i, scope in enumerate(scopes):
                for row in matches[i]:
                    candidate = scope.extended(binding, schema, row)
                    if all(
                        self._truthy(self._eval(c, candidate))
                        for c in join_plan.residual
                    ):
                        out.append(candidate)
        else:
            row_buckets: Dict[Any, List[Tuple[Any, ...]]] = {}
            for row in rows:
                row_scope = _Scope([(lowered, schema, row)], parent)
                key = self._join_key(join_plan.build_keys, row_scope)
                if key is not None:
                    row_buckets.setdefault(key, []).append(row)
            stats.hash_build_rows += len(rows)
            for scope in scopes:
                stats.hash_probes += 1
                key = self._join_key(join_plan.probe_keys, scope)
                if key is None:
                    continue
                for row in row_buckets.get(key, ()):
                    candidate = scope.extended(binding, schema, row)
                    if all(
                        self._truthy(self._eval(c, candidate))
                        for c in join_plan.residual
                    ):
                        out.append(candidate)
        return out

    def _join_key(
        self, keys: Tuple[Expr, ...], scope: _Scope
    ) -> Optional[Tuple[Any, ...]]:
        """Canonical composite key, or ``None`` when any part is NULL
        (NULL join keys match nothing, as in the nested loop)."""
        parts = []
        for expr in keys:
            value = self._eval(expr, scope)
            if value is None:
                return None
            parts.append(hash_key(value))
        return tuple(parts)

    def _output_columns(self, stmt: SelectStatement, scopes: List[_Scope]) -> List[str]:
        columns: List[str] = []
        for item in stmt.select_items:
            if isinstance(item.expr, Star):
                columns.extend(self._star_columns(stmt, item.expr))
            else:
                columns.append(item.output_name)
        return columns

    def _star_columns(self, stmt: SelectStatement, star: Star) -> List[str]:
        refs: List[Tuple[str, TableSchema]] = []
        if stmt.from_table is not None:
            refs.append((stmt.from_table.binding, self.database.table(stmt.from_table.table).schema))
        for join in stmt.joins:
            refs.append((join.table.binding, self.database.table(join.table.table).schema))
        if star.table:
            want = star.table.lower()
            refs = [r for r in refs if r[0].lower() == want]
            if not refs:
                raise UnknownTableError(f"no table bound as {star.table!r}")
        out = []
        for _, schema in refs:
            out.extend(schema.column_names)
        return out

    def _star_values(self, stmt: SelectStatement, star: Star, scope: _Scope) -> List[Any]:
        want = star.table.lower() if star.table else None
        values: List[Any] = []
        for binding, schema, row in scope.bindings:
            if want is not None and binding != want:
                continue
            values.extend(row)
        return values

    def _project_rows(
        self, stmt: SelectStatement, scopes: List[_Scope]
    ) -> Tuple[List[Tuple[Any, ...]], List[Tuple[Any, ...]]]:
        rows: List[Tuple[Any, ...]] = []
        order_rows: List[Tuple[Any, ...]] = []
        alias_map = self._alias_exprs(stmt)
        windows = self._window_nodes(stmt, alias_map)
        window_values = {win: self._window_values(win, scopes) for win in windows}
        saved = self._active_windows
        try:
            for i, scope in enumerate(scopes):
                if windows:
                    self._active_windows = {
                        win: vals[i] for win, vals in window_values.items()
                    }
                out: List[Any] = []
                for item in stmt.select_items:
                    if isinstance(item.expr, Star):
                        out.extend(self._star_values(stmt, item.expr, scope))
                    else:
                        out.append(self._eval(item.expr, scope))
                rows.append(tuple(out))
                order_rows.append(
                    tuple(
                        self._eval(self._substitute_alias(o.expr, alias_map), scope)
                        for o in stmt.order_by
                    )
                )
        finally:
            self._active_windows = saved
        return rows, order_rows

    # -- window evaluation ----------------------------------------------------

    def _window_nodes(
        self, stmt: SelectStatement, alias_map: Dict[str, Expr]
    ) -> List[WindowFunction]:
        """Unique window calls of this block's SELECT list and ORDER BY."""
        exprs = [item.expr for item in stmt.select_items]
        exprs.extend(self._substitute_alias(o.expr, alias_map) for o in stmt.order_by)
        out: List[WindowFunction] = []
        for expr in exprs:
            for node in expr.walk():
                if isinstance(node, WindowFunction) and node not in out:
                    out.append(node)
        return out

    def _window_values(
        self, win: WindowFunction, scopes: List[_Scope]
    ) -> List[Any]:
        """Per-input-row values of one window call.

        Matches sqlite's defaults: ``PARTITION BY`` groups NULL keys
        together; with ``ORDER BY`` an aggregate window uses the implicit
        ``RANGE UNBOUNDED PRECEDING → CURRENT ROW`` frame, so *peer* rows
        (equal order keys) share the running value; without ``ORDER BY``
        it aggregates the whole partition.
        """
        name = win.name.lower()
        if name not in WindowFunction.SUPPORTED:
            raise WindowFunctionError(
                f"unsupported window function {win.name.upper()}"
            )
        star = len(win.args) == 1 and isinstance(win.args[0], Star)
        ranking = name in WindowFunction.RANKING
        if ranking:
            if win.args:
                raise WindowFunctionError(
                    f"{win.name.upper()}() takes no arguments"
                )
            if name in ("rank", "dense_rank") and not win.order_by:
                raise WindowFunctionError(
                    f"{win.name.upper()} requires ORDER BY in its OVER clause"
                )
        elif star:
            if name != "count":
                raise WindowFunctionError(
                    f"{win.name.upper()}(*) is not supported"
                )
        elif len(win.args) != 1:
            raise WindowFunctionError(
                f"{win.name.upper()} takes exactly one argument"
            )

        values: List[Any] = [None] * len(scopes)
        partitions: "OrderedDict[Any, List[int]]" = OrderedDict()
        for i, scope in enumerate(scopes):
            pkey = tuple(_hashable(self._eval(e, scope)) for e in win.partition_by)
            partitions.setdefault(pkey, []).append(i)
        directions = [o.direction for o in win.order_by]
        func = AGGREGATE_FUNCTIONS.get(name)
        for indices in partitions.values():
            okeys: Dict[int, Tuple[Any, ...]] = {}
            if win.order_by:
                for i in indices:
                    raw = [self._eval(o.expr, scopes[i]) for o in win.order_by]
                    okeys[i] = tuple(
                        _DirectionKey(sort_key(v), d == "desc")
                        for v, d in zip(raw, directions)
                    )
                # stable: ties keep input order, so ROW_NUMBER is
                # deterministic for this engine (sqlite leaves it free)
                ordered = sorted(indices, key=lambda i: okeys[i])
            else:
                ordered = list(indices)
            if ranking:
                rank = dense = 0
                for pos, i in enumerate(ordered):
                    new_peer = (
                        not okeys or pos == 0 or okeys[i] != okeys[ordered[pos - 1]]
                    )
                    if new_peer:
                        rank = pos + 1
                        dense += 1
                    if name == "row_number":
                        values[i] = pos + 1
                    elif name == "rank":
                        values[i] = rank
                    else:
                        values[i] = dense
                continue
            assert func is not None  # SUPPORTED aggregates all exist
            if star:
                argvals: List[Any] = [None] * len(ordered)
            else:
                argvals = [self._eval(win.args[0], scopes[i]) for i in ordered]
            if not win.order_by:
                total = func(argvals, star=True) if star else func(argvals)
                for i in ordered:
                    values[i] = total
                continue
            pos = 0
            while pos < len(ordered):
                end = pos + 1
                while end < len(ordered) and okeys[ordered[end]] == okeys[ordered[pos]]:
                    end += 1
                prefix = argvals[:end]
                agg = func(prefix, star=True) if star else func(prefix)
                for j in range(pos, end):
                    values[ordered[j]] = agg
                pos = end
        return values

    def _groups(
        self, stmt: SelectStatement, scopes: List[_Scope], parent: Optional[_Scope]
    ) -> List[_Group]:
        """Partition rows by the GROUP BY key, groups in first-occurrence
        order; without GROUP BY the whole input is one group, possibly
        empty, whose representative is then an all-NULL row."""
        if not stmt.group_by:
            if scopes:
                return [_Group(scopes)]
            refs = [stmt.from_table] if stmt.from_table is not None else []
            refs.extend(join.table for join in stmt.joins)
            nulls = []
            for ref in refs:
                schema = self.database.table(ref.table).schema
                nulls.append((ref.binding.lower(), schema, (None,) * len(schema)))
            return [_Group([], _Scope(nulls, parent))]
        groups: Dict[Tuple[Any, ...], List[_Scope]] = {}
        for scope in scopes:
            key = tuple(_hashable(self._eval(expr, scope)) for expr in stmt.group_by)
            groups.setdefault(key, []).append(scope)
        return [_Group(members) for members in groups.values()]

    def _project_groups(
        self, stmt: SelectStatement, groups: Sequence[_Group]
    ) -> Tuple[List[Tuple[Any, ...]], List[Tuple[Any, ...]]]:
        """HAVING, the select list and the ORDER BY keys of every group,
        each evaluated by :meth:`_eval` with the group as its scope, over
        row-path groups and columnar group views alike."""
        alias_map = self._alias_exprs(stmt)
        order_exprs = [self._substitute_alias(o.expr, alias_map) for o in stmt.order_by]
        rows: List[Tuple[Any, ...]] = []
        order_rows: List[Tuple[Any, ...]] = []
        for group in groups:
            if stmt.having is not None and not self._truthy(self._eval(stmt.having, group)):
                continue
            out = []
            for item in stmt.select_items:
                if isinstance(item.expr, Star):
                    raise GroupedStarError("SELECT * is not valid in a grouped query")
                out.append(self._eval(item.expr, group))
            rows.append(tuple(out))
            order_rows.append(tuple(self._eval(e, group) for e in order_exprs))
        return rows, order_rows

    def _alias_exprs(self, stmt: SelectStatement) -> Dict[str, Expr]:
        out: Dict[str, Expr] = {}
        for item in stmt.select_items:
            if item.alias:
                out[item.alias.lower()] = item.expr
        return out

    def _substitute_alias(self, expr: Expr, alias_map: Dict[str, Expr]) -> Expr:
        if isinstance(expr, ColumnRef) and expr.table is None:
            replacement = alias_map.get(expr.column.lower())
            if replacement is not None:
                return replacement
        return expr

    # -- expression evaluation -----------------------------------------------

    def _truthy(self, value: Any) -> bool:
        # WHERE/HAVING/ON keep only rows whose predicate is True: both
        # False and unknown (None) filter out, per three-valued logic.
        return bool(value) and value is not None

    def _eval(self, expr: Expr, scope: _AnyScope) -> Any:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ColumnRef):
            return scope.resolve(expr)
        if isinstance(expr, FuncCall):
            if expr.is_aggregate:
                if isinstance(scope, _Group):
                    return self._eval_aggregate(expr, scope)
                raise MisplacedAggregateError(
                    f"aggregate {expr.name.upper()} used outside a grouped context"
                )
            if any(isinstance(arg, Star) for arg in expr.args):
                raise FunctionArityError(
                    f"'*' is not a valid argument to {expr.name.upper()}"
                )
            args = [self._eval(arg, scope) for arg in expr.args]
            return call_scalar(expr.name, args)
        if isinstance(expr, Star):
            raise ExecutionError("'*' is only valid in SELECT or COUNT(*)")
        if isinstance(expr, BinaryOp):
            return self._eval_binary(expr, scope)
        if isinstance(expr, UnaryOp):
            if expr.op.upper() == "NOT":
                return not3(bool3(self._eval(expr.operand, scope)))
            return negate(self._eval(expr.operand, scope))
        if isinstance(expr, IsNull):
            is_null = self._eval(expr.operand, scope) is None
            return not is_null if expr.negated else is_null
        if isinstance(expr, Between):
            value = self._eval(expr.operand, scope)
            low = self._eval(expr.low, scope)
            high = self._eval(expr.high, scope)
            # Three-valued (value >= low) AND (value <= high): a NULL
            # operand makes a side unknown; incomparable non-NULL types
            # make it false, as with plain comparisons.
            result = and3(compare3(">=", value, low), compare3("<=", value, high))
            return not3(result) if expr.negated else result
        if isinstance(expr, InList):
            value = self._eval(expr.operand, scope)
            hit = False
            saw_null = value is None
            for item in expr.items:
                item_value = self._eval(item, scope)
                if item_value is None:
                    saw_null = True
                elif value is not None and values_equal(value, item_value):
                    hit = True
                    break
            if hit:
                result: Any = True
            elif saw_null:
                # A NULL probe, or a non-match against a list containing
                # NULL, is unknown — so NOT IN (…, NULL) matches nothing.
                result = None
            else:
                result = False
            return not3(result) if expr.negated else result
        if isinstance(expr, CaseExpr):
            # Searched form: first WHEN whose condition is definitely
            # true (unknown skips, like WHERE).  Simple form: definite
            # equality — a NULL operand or NULL WHEN value never matches.
            if expr.operand is not None:
                operand = self._eval(expr.operand, scope)
                for when, result in expr.whens:
                    if values_equal(operand, self._eval(when, scope)):
                        return self._eval(result, scope)
            else:
                for when, result in expr.whens:
                    if self._truthy(self._eval(when, scope)):
                        return self._eval(result, scope)
            if expr.default is not None:
                return self._eval(expr.default, scope)
            return None
        if isinstance(expr, WindowFunction):
            if self._active_windows is not None:
                value = self._active_windows.get(expr, _MISSING)
                if value is not _MISSING:
                    return value
            raise MisplacedWindowError(
                f"window function {expr.name.upper()} used where no window "
                "scope exists (WHERE, JOIN ON, GROUP BY, a grouped query or a "
                "nested call)"
            )
        if isinstance(expr, SubqueryExpr):
            return self._eval_subquery(expr, scope)
        raise ExecutionError(f"cannot evaluate expression {expr!r}")  # pragma: no cover

    def _eval_binary(self, expr: BinaryOp, scope: _AnyScope) -> Any:
        op = expr.op
        if op == "AND":
            # Kleene conjunction, short-circuiting on a definite False so
            # error timing matches the pre-three-valued interpreter.
            left = bool3(self._eval(expr.left, scope))
            if left is False:
                return False
            return and3(left, bool3(self._eval(expr.right, scope)))
        if op == "OR":
            left = bool3(self._eval(expr.left, scope))
            if left is True:
                return True
            return or3(left, bool3(self._eval(expr.right, scope)))
        return binary_value(op, self._eval(expr.left, scope), self._eval(expr.right, scope))

    def _eval_subquery(self, expr: SubqueryExpr, scope: _AnyScope) -> Any:
        self._stats.subqueries += 1
        if id(expr) in self._subquery_results:
            result = self._subquery_results[id(expr)]
        else:
            result = self._run_subquery(expr, scope)
            if self._uncorrelated(expr.query):
                self._subquery_results[id(expr)] = result
        if expr.kind == "scalar":
            if expr.operand is None or expr.op is None:
                return result
            return binary_value(expr.op, self._eval(expr.operand, scope), result)
        if expr.kind in ("in", "not_in"):
            keys, has_null = result
            outer = self._eval(expr.operand, scope) if expr.operand else None
            if outer is None:
                # NULL IN (empty set) is false; otherwise unknown.
                verdict: Any = False if not keys and not has_null else None
            elif hash_key(outer) in keys:
                verdict = True
            else:
                verdict = None if has_null else False
            return not3(verdict) if expr.kind == "not_in" else verdict
        return result if expr.kind == "exists" else not result

    def _run_subquery(self, expr: SubqueryExpr, scope: _AnyScope) -> Any:
        """Run ``expr``'s query under ``scope`` and reduce the result to
        what its kind reads: the scalar value, ``(hash keys, has NULL)``
        for ``IN`` (``hash_key`` is equal iff ``values_equal``), or
        whether a row exists."""
        # The enclosing block's window values must not leak into the
        # subquery's own evaluation (its windows get their own scope).
        saved = self._active_windows
        self._active_windows = None
        parent = scope.rep() if isinstance(scope, _Group) else scope
        try:
            result = self._execute(expr.query, parent=parent)
        finally:
            self._active_windows = saved
        if expr.kind == "scalar":
            # arity first: it is statically decidable (the analyzer flags
            # it as SQL421), row count depends on the data
            if len(result.columns) != 1:
                raise SubqueryColumnsError("scalar subquery must return one column")
            if len(result.rows) > 1:
                raise SubqueryError("scalar subquery returned more than one row")
            return result.rows[0][0] if result.rows else None
        if expr.kind in ("in", "not_in"):
            if len(result.columns) != 1:
                raise SubqueryColumnsError("IN subquery must return one column")
            values = result.first_column()
            keys = {hash_key(v) for v in values if v is not None}
            return keys, any(v is None for v in values)
        if expr.kind in ("exists", "not_exists"):
            return bool(result.rows)
        raise ExecutionError(f"unknown subquery kind {expr.kind!r}")  # pragma: no cover

    def _eval_aggregate(self, call: FuncCall, group: _Group) -> Any:
        func = AGGREGATE_FUNCTIONS.get(call.name.lower())
        if func is None:  # pragma: no cover - guarded by is_aggregate
            raise UnknownFunctionError(f"unknown aggregate {call.name!r}")
        if call.name.lower() == "count" and len(call.args) == 1 and isinstance(call.args[0], Star):
            return group.size  # COUNT(*) counts rows, NULLs included
        if not call.args:
            raise AggregateArityError(f"{call.name.upper()} requires an argument")
        if len(call.args) != 1:
            raise AggregateArityError(f"{call.name.upper()} takes exactly one argument")
        if isinstance(call.args[0], Star):
            raise AggregateArityError(f"{call.name.upper()}(*) is not supported")
        for node in call.args[0].walk():
            if isinstance(node, FuncCall) and node.is_aggregate:
                raise NestedAggregateError(
                    f"aggregate {node.name.upper()} nested inside "
                    f"{call.name.upper()}"
                )
        return group.aggregate(self, call, func)


class _DirectionKey:
    """Sort key wrapper that reverses comparisons for DESC order."""

    __slots__ = ("key", "reverse")

    def __init__(self, key: tuple, reverse: bool):
        self.key = key
        self.reverse = reverse

    def __lt__(self, other: "_DirectionKey") -> bool:
        if self.reverse:
            return other.key < self.key
        return self.key < other.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _DirectionKey) and self.key == other.key


def _hashable(value: Any) -> Any:
    """A hashable stand-in for ``value`` usable as a GROUP BY / DISTINCT
    key: nested lists, dicts and sets are converted recursively instead
    of raising ``TypeError``."""
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return (
            "{}",
            tuple(
                sorted(
                    ((k, _hashable(v)) for k, v in value.items()),
                    key=lambda kv: repr(kv[0]),
                )
            ),
        )
    if isinstance(value, (set, frozenset)):
        return frozenset(_hashable(v) for v in value)
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def _setop_key(row: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Dedup key for set operations: NULLs compare equal (``None`` hashes
    to itself), non-NULLs use :func:`hash_key` so ``1``/``1.0`` and
    DATE/ISO-string collapse exactly as :func:`values_equal` would."""
    return tuple(None if v is None else hash_key(v) for v in row)


def execute_sql(database: Database, sql: str) -> Relation:
    """Convenience one-shot: parse and execute ``sql`` on ``database``.

    Routes through the database's shared executor so repeated statements
    benefit from the parsed-statement cache.
    """
    return database.execute_sql(sql)
