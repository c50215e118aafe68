"""SQL abstract syntax tree.

The AST is the lingua franca of the reproduction: every NLIDB system
ultimately produces a :class:`SelectStatement` (usually via the
intermediate query language in :mod:`repro.core.intermediate`), the
executor consumes it, and :meth:`SqlNode.to_sql` renders canonical SQL
text for exact-match metrics and for display.

The supported dialect is the subset exercised by the WikiSQL / Spider
families of benchmarks: single-block ``SELECT`` with ``DISTINCT``,
arithmetic and boolean expressions, ``LIKE``/``BETWEEN``/``IN``,
aggregates, ``GROUP BY``/``HAVING``, ``ORDER BY``/``LIMIT``/``OFFSET``,
inner joins
with ``ON`` conditions, nested sub-queries (scalar, ``IN`` and
``EXISTS``, correlated or not), ``CASE`` expressions (searched and
simple), window functions (``ROW_NUMBER``/``RANK``/``DENSE_RANK`` and
the aggregate functions with ``PARTITION BY``/``ORDER BY``), and the
compound set operations ``UNION [ALL]``/``EXCEPT``/``INTERSECT``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

from .types import format_value


@dataclass(frozen=True)
class Span:
    """Half-open source range ``[start, end)`` of an AST node.

    ``start``/``end`` are character offsets into the original SQL text;
    ``line``/``col`` are the 1-based coordinates of ``start``.  Spans are
    attached by the parser and consumed by the static analyzer to point
    diagnostics at the offending fragment.
    """

    start: int
    end: int
    line: int = 1
    col: int = 1

    def excerpt(self, sql: str) -> str:
        """The source text this span covers."""
        return sql[self.start : self.end]

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class SqlNode:
    """Base class for every AST node; all nodes render via :meth:`to_sql`."""

    # Source span, attached by the parser via ``object.__setattr__`` (the
    # nodes are frozen dataclasses).  Deliberately a *class* attribute
    # rather than a dataclass field: it must not participate in
    # ``__eq__``/``__hash__`` (exact-match metrics compare parsed ASTs
    # from differently formatted SQL) and programmatic AST construction
    # must not need to supply it.
    span: Optional[Span] = None

    def to_sql(self) -> str:
        """Render this node as SQL text."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.to_sql()})"


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class Expr(SqlNode):
    """Base class for expression nodes."""

    def children(self) -> Sequence["Expr"]:
        """Immediate sub-expressions (used by analysis passes)."""
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all descendants, depth-first."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value: number, string, boolean, date or NULL."""

    value: Any

    def to_sql(self) -> str:
        return format_value(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A (possibly qualified) column reference such as ``e.salary``."""

    column: str
    table: Optional[str] = None

    def to_sql(self) -> str:
        if self.table:
            return f"{self.table}.{self.column}"
        return self.column

    @property
    def key(self) -> Tuple[Optional[str], str]:
        """Normalized (table, column) pair for comparisons."""
        return (self.table.lower() if self.table else None, self.column.lower())


@dataclass(frozen=True)
class Star(Expr):
    """The ``*`` projection item (optionally qualified, e.g. ``e.*``)."""

    table: Optional[str] = None

    def to_sql(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass(frozen=True)
class BinaryOp(Expr):
    """A binary operation: comparison, arithmetic, boolean or LIKE.

    ``op`` is one of ``= != < <= > >= + - * / AND OR LIKE``.
    """

    op: str
    left: Expr
    right: Expr

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def to_sql(self) -> str:
        left, right = self.left.to_sql(), self.right.to_sql()
        if self.op in ("AND", "OR"):
            return f"({left} {self.op} {right})"
        return f"{left} {self.op} {right}"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """A unary operation: ``NOT expr`` or ``-expr``."""

    op: str
    operand: Expr

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def to_sql(self) -> str:
        if self.op.upper() == "NOT":
            return f"NOT ({self.operand.to_sql()})"
        return f"{self.op}{self.operand.to_sql()}"


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.operand.to_sql()} {suffix}"


@dataclass(frozen=True)
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high`` (inclusive bounds)."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def children(self) -> Sequence[Expr]:
        return (self.operand, self.low, self.high)

    def to_sql(self) -> str:
        kw = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"{self.operand.to_sql()} {kw} {self.low.to_sql()} AND {self.high.to_sql()}"


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (v1, v2, ...)`` with literal list operands."""

    operand: Expr
    items: Tuple[Expr, ...]
    negated: bool = False

    def children(self) -> Sequence[Expr]:
        return (self.operand, *self.items)

    def to_sql(self) -> str:
        kw = "NOT IN" if self.negated else "IN"
        inner = ", ".join(item.to_sql() for item in self.items)
        return f"{self.operand.to_sql()} {kw} ({inner})"


@dataclass(frozen=True)
class FuncCall(Expr):
    """A function call; aggregates are recognized by name.

    ``distinct`` applies only to aggregate arguments (``COUNT(DISTINCT x)``).
    """

    name: str
    args: Tuple[Expr, ...] = ()
    distinct: bool = False

    AGGREGATES = frozenset({"count", "sum", "avg", "min", "max"})

    def children(self) -> Sequence[Expr]:
        return self.args

    @property
    def is_aggregate(self) -> bool:
        """Whether this call is one of the five SQL aggregates."""
        return self.name.lower() in self.AGGREGATES

    def to_sql(self) -> str:
        inner = ", ".join(arg.to_sql() for arg in self.args)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name.upper()}({inner})"


@dataclass(frozen=True)
class CaseExpr(Expr):
    """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``.

    With ``operand`` set this is the *simple* form — each WHEN value is
    compared to the operand with ``=`` semantics (a NULL operand or WHEN
    value never matches).  Without it, the *searched* form — each WHEN is
    a boolean condition and only a definite-true one selects its branch.
    A missing ELSE yields NULL when no branch matches.
    """

    operand: Optional[Expr]
    whens: Tuple[Tuple[Expr, Expr], ...]
    default: Optional[Expr] = None

    def children(self) -> Sequence[Expr]:
        out: List[Expr] = []
        if self.operand is not None:
            out.append(self.operand)
        for condition, result in self.whens:
            out.append(condition)
            out.append(result)
        if self.default is not None:
            out.append(self.default)
        return tuple(out)

    def to_sql(self) -> str:
        parts = ["CASE"]
        if self.operand is not None:
            parts.append(self.operand.to_sql())
        for condition, result in self.whens:
            parts.append(f"WHEN {condition.to_sql()} THEN {result.to_sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.to_sql()}")
        parts.append("END")
        return " ".join(parts)


@dataclass(frozen=True)
class WindowFunction(Expr):
    """``FUNC(args) OVER (PARTITION BY ... ORDER BY ...)``.

    The function name and arguments are stored directly (not as a nested
    :class:`FuncCall`) so aggregate-detection walks never mistake a
    windowed ``SUM(x) OVER (...)`` for a grouping aggregate.  With an
    ORDER BY the aggregate functions use SQLite's default frame (RANGE
    from the partition start through the current row's peers); without
    one they aggregate the whole partition.
    """

    name: str
    args: Tuple[Expr, ...] = ()
    partition_by: Tuple[Expr, ...] = ()
    order_by: Tuple["OrderItem", ...] = ()

    #: ranking functions take no arguments and require no frame
    RANKING = frozenset({"row_number", "rank", "dense_rank"})
    #: aggregate window functions share the grouped-aggregate kernels
    AGGREGATE = frozenset({"count", "sum", "avg", "min", "max"})
    SUPPORTED = RANKING | AGGREGATE

    def children(self) -> Sequence[Expr]:
        out: List[Expr] = list(self.args)
        out.extend(self.partition_by)
        out.extend(o.expr for o in self.order_by)
        return tuple(out)

    def to_sql(self) -> str:
        inner = ", ".join(arg.to_sql() for arg in self.args)
        clauses = []
        if self.partition_by:
            clauses.append(
                "PARTITION BY " + ", ".join(e.to_sql() for e in self.partition_by)
            )
        if self.order_by:
            clauses.append("ORDER BY " + ", ".join(o.to_sql() for o in self.order_by))
        return f"{self.name.upper()}({inner}) OVER ({' '.join(clauses)})"


@dataclass(frozen=True)
class SubqueryExpr(Expr):
    """A nested ``SELECT`` used as an expression.

    ``kind`` selects the usage:

    - ``"scalar"``: the subquery must yield at most one value
      (``... > (SELECT AVG(x) FROM t)``).
    - ``"in"`` / ``"not_in"``: membership against the subquery's single
      output column.
    - ``"exists"`` / ``"not_exists"``: row-existence test; ``operand`` is
      ``None``.
    """

    kind: str
    query: "SelectStatement"
    operand: Optional[Expr] = None
    op: Optional[str] = None  # comparison operator for scalar kind

    def children(self) -> Sequence[Expr]:
        return (self.operand,) if self.operand is not None else ()

    def to_sql(self) -> str:
        sub = self.query.to_sql()
        if self.kind == "scalar":
            if self.operand is None or self.op is None:
                return f"({sub})"
            return f"{self.operand.to_sql()} {self.op} ({sub})"
        if self.kind in ("in", "not_in"):
            kw = "IN" if self.kind == "in" else "NOT IN"
            return f"{self.operand.to_sql()} {kw} ({sub})"
        if self.kind in ("exists", "not_exists"):
            kw = "EXISTS" if self.kind == "exists" else "NOT EXISTS"
            return f"{kw} ({sub})"
        raise ValueError(f"unknown subquery kind {self.kind!r}")  # pragma: no cover


def split_conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Flatten a top-level ``AND`` tree into its conjuncts, in evaluation
    order.

    ``a AND (b AND c)`` → ``[a, b, c]``; any non-AND expression (including
    a top-level ``OR``) is returned as a single conjunct.  Used by the
    planner to push single-table predicates below joins.
    """
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


# --------------------------------------------------------------------------
# Statement structure
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem(SqlNode):
    """One projection item: an expression with an optional alias."""

    expr: Expr
    alias: Optional[str] = None

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.expr.to_sql()} AS {self.alias}"
        return self.expr.to_sql()

    @property
    def output_name(self) -> str:
        """Column name this item produces in the result relation."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.column
        return self.expr.to_sql()


@dataclass(frozen=True)
class TableRef(SqlNode):
    """A table in the FROM clause, with an optional alias."""

    table: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this table is addressable by inside the query."""
        return self.alias or self.table

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.table} AS {self.alias}"
        return self.table


@dataclass(frozen=True)
class Join(SqlNode):
    """An inner join: ``JOIN table [AS alias] ON condition``."""

    table: TableRef
    condition: Expr

    def to_sql(self) -> str:
        return f"JOIN {self.table.to_sql()} ON {self.condition.to_sql()}"


@dataclass(frozen=True)
class OrderItem(SqlNode):
    """One ORDER BY key with direction (``"asc"`` or ``"desc"``)."""

    expr: Expr
    direction: str = "asc"

    def to_sql(self) -> str:
        return f"{self.expr.to_sql()} {self.direction.upper()}"


@dataclass(frozen=True)
class SelectStatement(SqlNode):
    """A full single-block SELECT statement (possibly containing nested
    :class:`SubqueryExpr` sub-selects in its WHERE/HAVING clauses)."""

    select_items: Tuple[SelectItem, ...]
    from_table: Optional[TableRef] = None
    joins: Tuple[Join, ...] = ()
    where: Optional[Expr] = None
    group_by: Tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False

    def to_sql(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(item.to_sql() for item in self.select_items))
        if self.from_table is not None:
            parts.append(f"FROM {self.from_table.to_sql()}")
        for join in self.joins:
            parts.append(join.to_sql())
        if self.where is not None:
            parts.append(f"WHERE {self.where.to_sql()}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(e.to_sql() for e in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having.to_sql()}")
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.to_sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
            if self.offset is not None:
                parts.append(f"OFFSET {self.offset}")
        elif self.offset is not None:
            # OFFSET is only grammatical after LIMIT; render a no-limit
            # programmatic AST the way SQLite spells it.
            parts.append(f"LIMIT -1 OFFSET {self.offset}")
        return " ".join(parts)

    # -- analysis helpers ---------------------------------------------------

    def all_expressions(self) -> Iterator["Expr"]:
        """Yield every expression in the statement (not descending into
        sub-select statements)."""
        for item in self.select_items:
            yield from item.expr.walk()
        for join in self.joins:
            yield from join.condition.walk()
        if self.where is not None:
            yield from self.where.walk()
        for expr in self.group_by:
            yield from expr.walk()
        if self.having is not None:
            yield from self.having.walk()
        for order in self.order_by:
            yield from order.expr.walk()

    def subqueries(self) -> List["SelectStatement"]:
        """All directly nested sub-select statements."""
        return [e.query for e in self.all_expressions() if isinstance(e, SubqueryExpr)]

    def has_aggregate(self) -> bool:
        """Whether any projection/HAVING/ORDER BY expression aggregates."""
        return any(
            isinstance(e, FuncCall) and e.is_aggregate for e in self.all_expressions()
        )

    def is_grouped(self) -> bool:
        """Whether the block evaluates per group: it has a GROUP BY, or
        its select list or HAVING aggregates (ORDER BY alone does not)."""
        if self.group_by:
            return True
        roots = [item.expr for item in self.select_items]
        if self.having is not None:
            roots.append(self.having)
        return any(
            isinstance(node, FuncCall) and node.is_aggregate
            for root in roots
            for node in root.walk()
        )

    def referenced_tables(self) -> List[str]:
        """Names of tables in this block's FROM/JOIN clauses (not nested)."""
        out = []
        if self.from_table is not None:
            out.append(self.from_table.table)
        out.extend(join.table.table for join in self.joins)
        return out

    def output_columns(self) -> List[str]:
        """Result column names in order."""
        return [item.output_name for item in self.select_items]


@dataclass(frozen=True)
class SetOperation(SqlNode):
    """A compound statement: ``left UNION [ALL] | EXCEPT | INTERSECT right``.

    Chains associate left (SQLite semantics): ``a UNION b EXCEPT c``
    parses as ``(a UNION b) EXCEPT c``.  A trailing ``ORDER BY`` /
    ``LIMIT`` applies to the whole compound and resolves against the
    leftmost block's output columns (by name or 1-based position).
    ``all_rows`` (``UNION ALL``) keeps duplicates; every other form
    dedups with set semantics where NULLs compare *equal* — unlike
    ``WHERE``-clause comparisons.
    """

    op: str  # "union" | "except" | "intersect"
    left: "Statement"
    right: SelectStatement
    all_rows: bool = False
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None

    def to_sql(self) -> str:
        keyword = self.op.upper() + (" ALL" if self.all_rows else "")
        parts = [self.left.to_sql(), keyword, self.right.to_sql()]
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.to_sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
            if self.offset is not None:
                parts.append(f"OFFSET {self.offset}")
        elif self.offset is not None:
            parts.append(f"LIMIT -1 OFFSET {self.offset}")
        return " ".join(parts)

    # -- analysis helpers ---------------------------------------------------

    def selects(self) -> List[SelectStatement]:
        """The component blocks, left to right."""
        out: List[SelectStatement] = []
        if isinstance(self.left, SetOperation):
            out.extend(self.left.selects())
        else:
            out.append(self.left)
        out.append(self.right)
        return out

    def output_columns(self) -> List[str]:
        """Result column names (the leftmost block's, SQLite-style)."""
        return self.selects()[0].output_columns()

    def referenced_tables(self) -> List[str]:
        """Tables referenced by any component block (not nested)."""
        out: List[str] = []
        for block in self.selects():
            out.extend(block.referenced_tables())
        return out

    def subqueries(self) -> List[SelectStatement]:
        """All sub-selects nested in any component block."""
        out: List[SelectStatement] = []
        for block in self.selects():
            out.extend(block.subqueries())
        return out


#: Any executable top-level statement shape.
Statement = Union[SelectStatement, SetOperation]
