"""Catalog-aware static semantic analysis over the SQL AST.

The analyzer runs between parsing and planning.  Given a
:class:`~repro.sqldb.ast.SelectStatement` and the database catalog it
checks, without touching a single row:

- **name resolution** — unknown tables, unknown columns (through the
  correlated-subquery scope chain, exactly as the executor resolves
  them), ambiguous unqualified columns, duplicate FROM/JOIN bindings;
- **types** — arithmetic and ``LIKE`` over non-conforming operands,
  comparisons that can never be true, ``IN`` list and ``BETWEEN``
  homogeneity, scalar-function and aggregate argument types and arities,
  division by a literal zero;
- **aggregation** — aggregates in per-row contexts (WHERE, JOIN ``ON``,
  GROUP BY keys, ORDER BY of an ungrouped query), nested aggregates,
  ``SELECT *`` in grouped queries, bare non-grouped columns, ``HAVING``
  on an ungrouped query;
- **subqueries** — scalar/``IN`` subqueries whose SELECT list is not
  exactly one column, with correlation handled through the scope chain;
- **compounds, CASE and windows** (``SQL310``–``SQL316``) — set-operation
  branches of differing width (error) or incompatible column families
  (warning), window calls outside the select list / ORDER BY of an
  ungrouped block, unsupported window shapes, CASE operand/branch family
  mixes, and compound ``ORDER BY`` terms that are neither an output
  column name nor a 1-based position.

Results are :class:`Diagnostic` objects, not exceptions.  Each carries a
stable ``code`` shared 1:1 with an exception class in
:mod:`repro.sqldb.errors` (via ``ERROR_CLASS_BY_CODE``) and a source
:class:`~repro.sqldb.ast.Span` when the AST came from the parser.

Severity encodes the **differential contract** with the executor:

- ``error`` — the executor would raise the mapped exception class when
  it evaluated the offending expression over a row, or over a group of
  a grouped block (the select list, HAVING and ORDER BY of a grouped
  block evaluate over groups, where aggregates are legal).  The
  executor's pre-flight turns the first such diagnostic back into that
  exception, so rejected statements fail with exactly the error the
  interpreter would have produced, only earlier and with a source span.
- ``warning`` — the executor tolerates the construct, but the statement
  almost certainly does not mean what it says: a comparison that is
  always false, a bare non-grouped column (read SQLite-style from the
  group's first row, and NULL in the empty whole-table group of an empty
  input), a silently ignored ``HAVING``.  Candidate rankers use warnings
  as soft penalties.

The mirror is deliberately exact: every check documents the executor
behaviour it models, and ``tests/test_sqldb_analyzer.py`` enforces the
contract differentially over the full SQL corpus.

NULL note: the executor follows SQL three-valued logic (a NULL operand
makes a predicate *unknown*, which filters out like false), so the
"always true/false" wording in type-mismatch warnings refers to the
non-NULL case; NULL rows drop out of those predicates regardless.
``SQL306`` flags a literal NULL in an ``IN`` list, where unknown
propagation makes ``NOT IN`` unsatisfiable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

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
    Span,
    SqlNode,
    Star,
    Statement,
    SubqueryExpr,
    TableRef,
    UnaryOp,
    WindowFunction,
)
from .errors import ERROR_CLASS_BY_CODE, ParseError
from .functions import SCALAR_FUNCTIONS
from .inference import (
    BOOL,
    DATE,
    FAMILY_BY_DTYPE,
    NUMBER,
    TEXT,
    Resolver,
    families_compatible,
    infer_where,
    value_family,
)
from .schema import TableSchema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database

ERROR = "error"
WARNING = "warning"

#: (min_arity, max_arity, arg families, result family) per scalar function.
#: Kept consistent with :data:`repro.sqldb.functions.SCALAR_FUNCTIONS`.
_SCALAR_SIGNATURES = {
    "abs": (1, 1, (NUMBER,), NUMBER),
    "round": (1, 2, (NUMBER, NUMBER), NUMBER),
    "lower": (1, 1, (TEXT,), TEXT),
    "upper": (1, 1, (TEXT,), TEXT),
    "length": (1, 1, (TEXT,), NUMBER),
    "year": (1, 1, (DATE,), NUMBER),
    "month": (1, 1, (DATE,), NUMBER),
    "day": (1, 1, (DATE,), NUMBER),
}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding.

    ``code`` keys into ``ERROR_CLASS_BY_CODE`` — the exception class the
    executor raises (severity ``error``) or would conceptually raise
    (severity ``warning``) for this construct.  ``span`` is present when
    the statement came from the parser and locates the offending source
    text.
    """

    code: str
    severity: str
    message: str
    span: Optional[Span] = None

    @property
    def error_class(self) -> type:
        """The :mod:`repro.sqldb.errors` class this code maps onto."""
        return ERROR_CLASS_BY_CODE[self.code]

    def format(self) -> str:
        """``line:col [severity CODE] message`` single-line rendering."""
        where = f"{self.span.line}:{self.span.col}" if self.span else "-:-"
        return f"{where} [{self.severity} {self.code}] {self.message}"


@dataclass
class AnalysisResult:
    """All diagnostics for one statement, in rough evaluation order."""

    diagnostics: Tuple[Diagnostic, ...] = ()

    @property
    def errors(self) -> List[Diagnostic]:
        """Error-severity diagnostics (statement would fail at runtime)."""
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        """Warning-severity diagnostics (runtime tolerates, result suspect)."""
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def ok(self) -> bool:
        """Whether the statement passed (warnings do not fail a statement)."""
        return not self.errors

    def codes(self) -> List[str]:
        """Distinct diagnostic codes, in first-occurrence order."""
        seen: List[str] = []
        for d in self.diagnostics:
            if d.code not in seen:
                seen.append(d.code)
        return seen

    def raise_first_error(self) -> None:
        """Re-raise the first error diagnostic as its mapped exception.

        This is what the executor pre-flight calls: the raised class is
        the same one the interpreter would raise, so existing
        ``pytest.raises`` expectations hold whether analysis is on or off.
        """
        for diag in self.diagnostics:
            if diag.severity == ERROR:
                raise diag.error_class(diag.message)


class _Scope:
    """Schema-only mirror of the executor's row scope: the bound tables
    of one block plus the enclosing block for correlated subqueries.

    ``schema`` is ``None`` for a binding whose table is unknown — the
    analyzer then stays silent about columns that might belong to it
    instead of cascading bogus unknown-column errors.
    """

    __slots__ = ("bindings", "parent")

    def __init__(
        self,
        bindings: List[Tuple[str, Optional[TableSchema]]],
        parent: Optional["_Scope"] = None,
    ):
        self.bindings = bindings
        self.parent = parent


@dataclass
class _Ctx:
    """Where in the statement an expression sits, for aggregate rules."""

    clause: str
    #: the expression evaluates over a group (a grouped block's select
    #: list, HAVING or ORDER BY): aggregates are legal, and a bare column
    #: outside ``group_keys`` reads the group's representative row
    group: bool = False
    in_aggregate: bool = False
    group_keys: Tuple[Expr, ...] = ()
    #: window calls are legal only in the select list / ORDER BY of an
    #: ungrouped block — everywhere else the executor raises SQL312
    allow_windows: bool = False


class SemanticAnalyzer:
    """Analyzes SELECT statements against one database's catalog."""

    def __init__(self, database: "Database"):
        self.database = database

    # -- public API ---------------------------------------------------------

    def analyze(self, stmt: Statement) -> AnalysisResult:
        """Analyze a parsed (or programmatically built) statement."""
        self._diags: List[Diagnostic] = []
        if isinstance(stmt, SetOperation):
            self._analyze_compound(stmt)
        else:
            self._analyze_block(stmt, parent=None)
        # Alias-substituted ORDER BY re-analyzes select expressions; drop
        # the resulting duplicates while preserving first-emission order.
        seen = set()
        unique: List[Diagnostic] = []
        for diag in self._diags:
            key = (diag.code, diag.severity, diag.message, diag.span)
            if key not in seen:
                seen.add(key)
                unique.append(diag)
        return AnalysisResult(tuple(unique))

    def analyze_sql(self, sql: str) -> AnalysisResult:
        """Parse and analyze SQL text; parse failures become ``SQL101``."""
        from .parser import parse_select

        try:
            stmt = parse_select(sql)
        except ParseError as exc:
            span = None
            if exc.position >= 0:
                span = Span(exc.position, exc.position + 1, max(exc.line, 1), max(exc.column, 1))
            return AnalysisResult(
                (Diagnostic(exc.code, ERROR, str(exc), span),)
            )
        return self.analyze(stmt)

    # -- plumbing -----------------------------------------------------------

    def _emit(self, code: str, severity: str, message: str, node: Optional[SqlNode]) -> None:
        span = node.span if node is not None else None
        self._diags.append(Diagnostic(code, severity, message, span))

    # -- compound (set-operation) analysis ----------------------------------

    def _analyze_compound(self, stmt: SetOperation) -> None:
        """Analyze a ``UNION``/``EXCEPT``/``INTERSECT`` chain.

        Each block is analyzed as its own top-level scope (compound
        branches cannot correlate with each other), then the branches are
        checked against each other: differing output widths raise at
        runtime (``SQL310``), incompatible column families make
        cross-branch dedup matches impossible (``SQL311``, warning), and
        the compound's ``ORDER BY`` must name a leftmost-block output
        column or a 1-based position (``SQL316``, mirroring the
        executor's :class:`CompoundOrderError`)."""
        blocks = stmt.selects()
        infos = [self._analyze_block(block, parent=None) for block in blocks]
        first_width, _, first_families = infos[0]
        for block, (width, _, families) in zip(blocks[1:], infos[1:]):
            if first_width is not None and width is not None and width != first_width:
                self._emit(
                    "SQL310",
                    ERROR,
                    f"compound branches return {first_width} and {width} columns",
                    block,
                )
            elif (
                first_families is not None
                and families is not None
                and len(families) == len(first_families)
            ):
                for i, (f1, f2) in enumerate(zip(first_families, families)):
                    if not families_compatible(f1, f2):
                        self._emit(
                            "SQL311",
                            WARNING,
                            f"compound column {i + 1} pairs {f1} with {f2}: "
                            "cross-branch values never match during dedup",
                            block,
                        )
        names: Optional[List[str]] = []
        for item in blocks[0].select_items:
            if isinstance(item.expr, Star):
                names = None
                break
            assert names is not None
            names.append(item.output_name.lower())
        for order in stmt.order_by:
            expr = order.expr
            ok = False
            if isinstance(expr, ColumnRef) and expr.table is None:
                ok = names is None or expr.column.lower() in names
            elif (
                isinstance(expr, Literal)
                and isinstance(expr.value, int)
                and not isinstance(expr.value, bool)
            ):
                ok = first_width is None or 1 <= expr.value <= first_width
            if not ok:
                self._emit(
                    "SQL316",
                    ERROR,
                    f"compound ORDER BY term {expr.to_sql()!r} is neither an "
                    "output column name nor a 1-based column position",
                    order,
                )

    # -- block analysis -----------------------------------------------------

    def _analyze_block(
        self, stmt: SelectStatement, parent: Optional[_Scope]
    ) -> Tuple[Optional[int], Optional[str], Optional[Tuple[Optional[str], ...]]]:
        """Analyze one SELECT block; returns ``(output width, family of
        the single output column, per-item output families)`` for
        subquery arity/type and compound cross-branch checks (each may be
        ``None`` when stars over unknown tables make them unknowable).
        """
        bindings: List[Tuple[str, Optional[TableSchema]]] = []
        table_refs: List[TableRef] = []
        if stmt.from_table is not None:
            table_refs.append(stmt.from_table)
        table_refs.extend(join.table for join in stmt.joins)

        seen_bindings = set()
        for tref in table_refs:
            binding = tref.binding.lower()
            if binding in seen_bindings:
                # Executor semantics: the first binding shadows for
                # qualified refs, unqualified refs may turn ambiguous —
                # tolerated at runtime, so warning-grade here.
                self._emit(
                    "SQL213",
                    WARNING,
                    f"duplicate table binding {tref.binding!r}",
                    tref,
                )
            seen_bindings.add(binding)
            if self.database.has_table(tref.table):
                bindings.append((binding, self.database.schema(tref.table)))
            else:
                self._emit("SQL210", ERROR, f"no table named {tref.table!r}", tref)
                bindings.append((binding, None))

        scope = _Scope(bindings, parent)

        # Join conditions see only the tables bound so far (plus outer
        # scopes), mirroring the executor's incremental FROM construction.
        base_count = 1 if stmt.from_table is not None else 0
        for i, join in enumerate(stmt.joins):
            join_scope = _Scope(bindings[: base_count + i + 1], parent)
            self._infer(join.condition, join_scope, _Ctx(clause="JOIN condition"))

        grouped = stmt.is_grouped()

        if stmt.where is not None:
            self._infer(stmt.where, scope, _Ctx(clause="WHERE"))
            self._static_where(stmt, scope)

        for key in stmt.group_by:
            self._infer(key, scope, _Ctx(clause="GROUP BY"))

        keys = tuple(stmt.group_by)
        width: Optional[int] = 0
        first_family: Optional[str] = None
        families: List[Optional[str]] = []
        families_known = True
        select_ctx = _Ctx(
            clause="select list", group=grouped, group_keys=keys, allow_windows=not grouped
        )
        for idx, item in enumerate(stmt.select_items):
            if isinstance(item.expr, Star):
                if grouped:
                    self._emit(
                        "SQL414",
                        ERROR,
                        "SELECT * is not valid in a grouped query",
                        item,
                    )
                width = self._extend_star_width(width, item.expr, bindings, item)
                families_known = False
            else:
                if width is not None:
                    width += 1
                family = self._infer(item.expr, scope, select_ctx)
                families.append(family)
                if idx == 0:
                    first_family = family

        if stmt.having is not None:
            if grouped:
                self._infer(stmt.having, scope, _Ctx(clause="HAVING", group=True, group_keys=keys))
            else:
                # The executor evaluates HAVING only for grouped queries;
                # on an ungrouped, unaggregated one the clause is silently
                # ignored, so nothing inside it can raise — don't analyze it.
                self._emit(
                    "SQL416",
                    WARNING,
                    "HAVING on an ungrouped query is ignored",
                    stmt.having,
                )

        alias_map: Dict[str, Expr] = {}
        for item in stmt.select_items:
            if item.alias:
                alias_map[item.alias.lower()] = item.expr
        order_ctx = _Ctx(
            clause="ORDER BY", group=grouped, group_keys=keys, allow_windows=not grouped
        )
        for order in stmt.order_by:
            expr = order.expr
            if isinstance(expr, ColumnRef) and expr.table is None:
                expr = alias_map.get(expr.column.lower(), expr)
            self._infer(expr, scope, order_ctx)

        if len(stmt.select_items) != 1 or isinstance(stmt.select_items[0].expr, Star):
            first_family = None
        return width, first_family, (tuple(families) if families_known else None)

    def _static_where(self, stmt: SelectStatement, scope: _Scope) -> None:
        """Run the static inference pass over the WHERE conjuncts and
        emit its SQL5xx findings (contradictory / always-true /
        out-of-domain predicates).  All are warning-grade: the executor
        evaluates such predicates without raising.  Findings an SQL3xx
        diagnostic already covers are suppressed inside the pass."""
        from .ast import split_conjuncts

        report = infer_where(split_conjuncts(stmt.where), Resolver(scope.bindings))
        for issue in report.issues:
            self._emit(issue.code, WARNING, issue.message, issue.node)

    def _extend_star_width(
        self,
        width: Optional[int],
        star: Star,
        bindings: List[Tuple[str, Optional[TableSchema]]],
        node: SqlNode,
    ) -> Optional[int]:
        """Accumulate the column count a ``*`` expands to; ``None`` when a
        referenced table is unknown.  Mirrors ``Executor._star_columns``:
        qualified stars see only the block's own bindings (never outer
        scopes)."""
        if star.table:
            matching = [s for b, s in bindings if b == star.table.lower()]
            if not matching:
                self._emit(
                    "SQL210", ERROR, f"no table bound as {star.table!r}", node
                )
                return None
        else:
            matching = [s for _, s in bindings]
        if any(s is None for s in matching):
            return None
        if width is None:
            return None
        return width + sum(len(s) for s in matching)

    # -- name resolution ----------------------------------------------------

    def _resolve(self, ref: ColumnRef, scope: _Scope) -> Optional[str]:
        """Resolve a column reference through the scope chain, emitting
        name diagnostics; returns the column's type family or ``None``.

        Mirrors ``_Scope.resolve``/``_resolve_local`` in the executor: a
        qualified reference stops at the innermost level that binds its
        qualifier (even if the column is missing there); an unqualified
        one is ambiguous only within a single level.
        """
        if ref.table:
            want = ref.table.lower()
            level: Optional[_Scope] = scope
            while level is not None:
                for binding, schema in level.bindings:
                    if binding == want:
                        if schema is None:
                            return None  # unknown table already reported
                        if ref.column in schema:
                            return FAMILY_BY_DTYPE.get(schema.column(ref.column).dtype)
                        self._emit(
                            "SQL211",
                            ERROR,
                            f"table {ref.table!r} has no column {ref.column!r}",
                            ref,
                        )
                        return None
                level = level.parent
            self._emit(
                "SQL211", ERROR, f"cannot resolve column {ref.to_sql()!r}", ref
            )
            return None
        level = scope
        while level is not None:
            matches = [
                schema
                for _, schema in level.bindings
                if schema is not None and ref.column in schema
            ]
            if len(matches) > 1:
                self._emit(
                    "SQL212", ERROR, f"column {ref.column!r} is ambiguous", ref
                )
                return None
            if matches:
                return FAMILY_BY_DTYPE.get(matches[0].column(ref.column).dtype)
            if any(schema is None for _, schema in level.bindings):
                return None  # might belong to the unknown table — stay quiet
            level = level.parent
        self._emit("SQL211", ERROR, f"cannot resolve column {ref.to_sql()!r}", ref)
        return None

    # -- expression inference -----------------------------------------------

    def _infer(self, expr: Expr, scope: _Scope, ctx: _Ctx) -> Optional[str]:
        """Infer the type family of an expression over a row or, under a
        group context, over a group, emitting diagnostics along the way;
        ``None`` means unknown (no claims)."""
        if ctx.group and expr in ctx.group_keys:
            # A grouping key: constant within the group, fully legal.
            # Re-infer quietly for its family (duplicates are deduped).
            return self._infer(expr, scope, _Ctx(clause=ctx.clause))
        if isinstance(expr, Literal):
            return value_family(expr.value)
        if isinstance(expr, ColumnRef):
            family = self._resolve(expr, scope)
            if ctx.group:
                self._emit(
                    "SQL413",
                    WARNING,
                    f"column {expr.to_sql()!r} is neither grouped nor "
                    f"aggregated; evaluated on an arbitrary row of each group",
                    expr,
                )
            return family
        if isinstance(expr, Star):
            return None  # legality handled where stars may appear
        if isinstance(expr, BinaryOp):
            if expr.op in ("AND", "OR"):
                self._infer(expr.left, scope, ctx)
                self._infer(expr.right, scope, ctx)
                return BOOL
            left = self._infer(expr.left, scope, ctx)
            right = self._infer(expr.right, scope, ctx)
            return self._check_binary(expr, left, right)
        if isinstance(expr, UnaryOp):
            operand = self._infer(expr.operand, scope, ctx)
            return self._check_unary(expr, operand)
        if isinstance(expr, IsNull):
            self._infer(expr.operand, scope, ctx)
            return BOOL
        if isinstance(expr, Between):
            operand = self._infer(expr.operand, scope, ctx)
            low = self._infer(expr.low, scope, ctx)
            high = self._infer(expr.high, scope, ctx)
            if not families_compatible(operand, low) or not families_compatible(operand, high):
                # values_compare returns None on mismatch → range test false.
                self._emit(
                    "SQL305",
                    WARNING,
                    f"BETWEEN bounds are not comparable with "
                    f"{expr.operand.to_sql()!r}: the test is always "
                    f"{'true' if expr.negated else 'false'}",
                    expr,
                )
            return BOOL
        if isinstance(expr, InList):
            operand = self._infer(expr.operand, scope, ctx)
            mismatched = 0
            null_items = 0
            for item in expr.items:
                if isinstance(item, Literal) and item.value is None:
                    null_items += 1
                    continue
                if not families_compatible(operand, self._infer(item, scope, ctx)):
                    mismatched += 1
            if mismatched:
                self._emit(
                    "SQL304",
                    WARNING,
                    f"{mismatched} of {len(expr.items)} IN list items can "
                    f"never match {expr.operand.to_sql()!r}",
                    expr,
                )
            if null_items:
                # Three-valued logic: a non-matching probe against a list
                # containing NULL is unknown, so the row is filtered out
                # either way and NOT IN can never be satisfied.
                self._emit(
                    "SQL306",
                    WARNING,
                    "NULL in IN list: non-matches become unknown"
                    + (" — NOT IN never matches" if expr.negated else ""),
                    expr,
                )
            return BOOL
        if isinstance(expr, FuncCall):
            return self._infer_call(expr, scope, ctx)
        if isinstance(expr, CaseExpr):
            return self._infer_case(expr, scope, ctx)
        if isinstance(expr, WindowFunction):
            return self._infer_window(expr, scope, ctx)
        if isinstance(expr, SubqueryExpr):
            return self._infer_subquery(expr, scope, ctx)
        return None

    # -- CASE and window functions ------------------------------------------

    def _infer_case(self, expr: CaseExpr, scope: _Scope, ctx: _Ctx) -> Optional[str]:
        """Type-family inference through a CASE expression, over a row or
        a group alike.

        Simple-form WHEN operands incompatible with the CASE operand can
        never match (definite equality at runtime, like ``=``); result
        branches of incompatible families make the expression's type
        data-dependent.  Both are warning-grade ``SQL314`` — the executor
        evaluates either way."""
        operand_family = (
            self._infer(expr.operand, scope, ctx) if expr.operand is not None else None
        )
        result_families: List[Optional[str]] = []
        for when, result in expr.whens:
            when_family = self._infer(when, scope, ctx)
            if expr.operand is not None and not families_compatible(
                operand_family, when_family
            ):
                self._emit(
                    "SQL314",
                    WARNING,
                    f"CASE operand of type {operand_family} never matches a "
                    f"WHEN value of type {when_family}",
                    when,
                )
            result_families.append(self._infer(result, scope, ctx))
        if expr.default is not None:
            result_families.append(self._infer(expr.default, scope, ctx))
        known = [f for f in result_families if f is not None]
        distinct = sorted(set(known))
        if len(distinct) > 1:
            if any(
                not families_compatible(a, b) for a in distinct for b in distinct if a != b
            ):
                self._emit(
                    "SQL314",
                    WARNING,
                    f"CASE branches mix result types {', '.join(distinct)}",
                    expr,
                )
            return None
        return distinct[0] if distinct else None

    def _infer_window(
        self, expr: WindowFunction, scope: _Scope, ctx: _Ctx
    ) -> Optional[str]:
        """Placement (``SQL312``) and shape (``SQL313``) checks for a
        window call, mirroring ``Executor._window_values`` exactly."""
        name = expr.name.lower()
        upper = expr.name.upper()
        if not ctx.allow_windows:
            where = f"a grouped query's {ctx.clause}" if ctx.group else ctx.clause
            self._emit(
                "SQL312",
                ERROR,
                f"window function {upper} is not allowed in {where}",
                expr,
            )
        supported = name in WindowFunction.SUPPORTED
        if not supported:
            self._emit(
                "SQL313", ERROR, f"unsupported window function {upper}", expr
            )
        elif name in WindowFunction.RANKING:
            if expr.args:
                self._emit(
                    "SQL313", ERROR, f"{upper}() takes no arguments", expr
                )
            if name in ("rank", "dense_rank") and not expr.order_by:
                self._emit(
                    "SQL313",
                    ERROR,
                    f"{upper} requires ORDER BY in its OVER clause",
                    expr,
                )
        elif len(expr.args) == 1 and isinstance(expr.args[0], Star):
            if name != "count":
                self._emit(
                    "SQL313", ERROR, f"{upper}(*) is not supported", expr
                )
        elif len(expr.args) != 1:
            self._emit(
                "SQL313", ERROR, f"{upper} takes exactly one argument", expr
            )
        # Arguments and the window spec are evaluated per input row (per
        # group in a grouped block) before any window exists: nested window
        # calls there raise, and aggregates unless the rows are groups.
        inner = _Ctx(
            clause=f"{upper} window",
            group=ctx.group,
            in_aggregate=ctx.in_aggregate,
            group_keys=ctx.group_keys,
        )
        arg_family: Optional[str] = None
        for arg in expr.args:
            if isinstance(arg, Star):
                continue
            arg_family = self._infer(arg, scope, inner)
        for part in expr.partition_by:
            self._infer(part, scope, inner)
        for order in expr.order_by:
            self._infer(order.expr, scope, inner)
        if not supported:
            return None
        if name in ("min", "max"):
            return arg_family
        if name in ("sum", "avg") and arg_family not in (None, NUMBER):
            self._emit(
                "SQL307",
                ERROR,
                f"{upper} requires numeric input, got {arg_family}",
                expr,
            )
        return NUMBER

    def _check_binary(
        self, expr: BinaryOp, left: Optional[str], right: Optional[str]
    ) -> Optional[str]:
        op = expr.op
        if op == "LIKE":
            # Runtime raises on the first non-NULL row with a non-text side.
            if (left not in (None, TEXT)) or (right not in (None, TEXT)):
                self._emit("SQL303", ERROR, "LIKE requires text operands", expr)
            return BOOL
        if op in ("=", "!=", "<", "<=", ">", ">="):
            if not families_compatible(left, right):
                # values_equal/values_compare treat the pair as unequal /
                # incomparable, so the predicate is constant — warning only.
                self._emit(
                    "SQL301",
                    WARNING,
                    f"comparison between {left} and {right} is always "
                    f"{'true' if op == '!=' else 'false'}",
                    expr,
                )
            return BOOL
        if op in ("+", "-", "*", "/"):
            for family, side in ((left, expr.left), (right, expr.right)):
                if family not in (None, NUMBER):
                    self._emit(
                        "SQL302",
                        ERROR,
                        f"arithmetic {op!r} on non-numeric operand {side.to_sql()!r}",
                        expr,
                    )
            if (
                op == "/"
                and isinstance(expr.right, Literal)
                and not isinstance(expr.right.value, bool)
                and isinstance(expr.right.value, (int, float))
                and expr.right.value == 0
                and not (isinstance(expr.left, Literal) and expr.left.value is None)
            ):
                # NULL / 0 is NULL at runtime (the NULL check precedes the
                # zero check), hence the literal-NULL exemption above.
                self._emit("SQL401", ERROR, "division by zero", expr)
            return NUMBER
        return None

    def _check_unary(self, expr: UnaryOp, operand: Optional[str]) -> Optional[str]:
        if expr.op.upper() == "NOT":
            return BOOL
        if operand not in (None, NUMBER):
            self._emit(
                "SQL302",
                ERROR,
                f"unary '-' on non-numeric operand {expr.operand.to_sql()!r}",
                expr,
            )
        return NUMBER

    # -- function calls -----------------------------------------------------

    def _infer_call(self, expr: FuncCall, scope: _Scope, ctx: _Ctx) -> Optional[str]:
        name = expr.name.lower()
        upper = expr.name.upper()
        if expr.is_aggregate:
            if ctx.in_aggregate:
                self._emit(
                    "SQL412",
                    ERROR,
                    f"aggregate {upper} nested inside another aggregate",
                    expr,
                )
            elif not ctx.group:
                self._emit(
                    "SQL411",
                    ERROR,
                    f"aggregate {upper} used outside a grouped context "
                    f"(in {ctx.clause})",
                    expr,
                )
            arg_ctx = _Ctx(
                clause=f"{upper} argument", in_aggregate=True
            )
            if name == "count":
                if not expr.args:
                    self._emit("SQL415", ERROR, "COUNT requires an argument", expr)
                elif len(expr.args) > 1:
                    self._emit(
                        "SQL415", ERROR, "COUNT takes exactly one argument", expr
                    )
                elif not isinstance(expr.args[0], Star):
                    self._infer(expr.args[0], scope, arg_ctx)
                return NUMBER
            if not expr.args:
                self._emit("SQL415", ERROR, f"{upper} requires an argument", expr)
                return NUMBER if name in ("sum", "avg") else None
            if len(expr.args) > 1:
                self._emit(
                    "SQL415", ERROR, f"{upper} takes exactly one argument", expr
                )
            if isinstance(expr.args[0], Star):
                self._emit(
                    "SQL415", ERROR, f"{upper}(*) is not supported", expr
                )
                return NUMBER if name in ("sum", "avg") else None
            arg_family = self._infer(expr.args[0], scope, arg_ctx)
            if name in ("sum", "avg"):
                if arg_family not in (None, NUMBER):
                    self._emit(
                        "SQL307",
                        ERROR,
                        f"{upper} requires numeric input, got {arg_family}",
                        expr,
                    )
                return NUMBER
            return arg_family  # min / max preserve their argument's family

        func = SCALAR_FUNCTIONS.get(name)
        if func is None:
            self._emit("SQL214", ERROR, f"unknown function {expr.name!r}", expr)
            for arg in expr.args:
                self._infer(arg, scope, ctx)
            return None
        if any(isinstance(arg, Star) for arg in expr.args):
            self._emit(
                "SQL417", ERROR, f"'*' is not a valid argument to {upper}", expr
            )
            return None
        signature = _SCALAR_SIGNATURES.get(name)
        if signature is None:  # pragma: no cover - every scalar has one
            for arg in expr.args:
                self._infer(arg, scope, ctx)
            return None
        min_arity, max_arity, arg_families, result = signature
        if not (min_arity <= len(expr.args) <= max_arity):
            wants = (
                f"{min_arity}" if min_arity == max_arity else f"{min_arity}-{max_arity}"
            )
            self._emit(
                "SQL417",
                ERROR,
                f"{upper} takes {wants} argument(s), got {len(expr.args)}",
                expr,
            )
        for i, arg in enumerate(expr.args):
            family = self._infer(arg, scope, ctx)
            expected = arg_families[i] if i < len(arg_families) else None
            if expected is not None and family not in (None, expected):
                self._emit(
                    "SQL307",
                    ERROR,
                    f"{upper} argument {i + 1} must be {expected}, got {family}",
                    expr,
                )
        if (
            name == "round"
            and len(expr.args) == 2
            and isinstance(expr.args[1], Literal)
            and expr.args[1].value is not None
            and not isinstance(expr.args[1].value, int)
        ):
            self._emit("SQL307", ERROR, "ROUND digits must be an integer", expr)
        return result

    # -- subqueries ---------------------------------------------------------

    def _infer_subquery(
        self, expr: SubqueryExpr, scope: _Scope, ctx: _Ctx
    ) -> Optional[str]:
        width, sub_family, _ = self._analyze_block(expr.query, parent=scope)
        if expr.kind in ("scalar", "in", "not_in") and width is not None and width != 1:
            label = "scalar" if expr.kind == "scalar" else "IN"
            self._emit(
                "SQL421",
                ERROR,
                f"{label} subquery must return one column, returns {width}",
                expr,
            )
        if expr.kind in ("in", "not_in"):
            operand = (
                self._infer(expr.operand, scope, ctx) if expr.operand is not None else None
            )
            if not families_compatible(operand, sub_family):
                self._emit(
                    "SQL304",
                    WARNING,
                    f"IN subquery of type {sub_family} can never match "
                    f"{expr.operand.to_sql()!r}",
                    expr,
                )
            return BOOL
        if expr.kind == "scalar":
            if expr.operand is not None:
                operand = self._infer(expr.operand, scope, ctx)
                if not families_compatible(operand, sub_family):
                    self._emit(
                        "SQL301",
                        WARNING,
                        f"comparison between {operand} and subquery of type "
                        f"{sub_family} is always "
                        f"{'true' if expr.op == '!=' else 'false'}",
                        expr,
                    )
                return BOOL
            return sub_family
        return BOOL  # exists / not_exists


def analyze(database: "Database", stmt: SelectStatement) -> AnalysisResult:
    """Convenience one-shot: analyze ``stmt`` against ``database``."""
    return SemanticAnalyzer(database).analyze(stmt)


def analyze_sql(database: "Database", sql: str) -> AnalysisResult:
    """Convenience one-shot: parse and analyze SQL text."""
    return SemanticAnalyzer(database).analyze_sql(sql)
