"""Static inference: per-expression facts, folding, and predicate verdicts.

A bottom-up abstract interpretation over the SQL AST.  For every
expression it computes a :class:`Fact` — type family, nullability
(``never`` / ``maybe`` / ``always``), a constant value when one is
statically known, an optional value interval, and *purity* (whether
evaluating the expression can provably never raise).  On top of facts,
:func:`truth` computes a :class:`Truth` for boolean-position
expressions: which of the three Kleene outcomes (true / false /
unknown) the predicate can produce at runtime.

Consumers:

- the analyzer (:mod:`repro.sqldb.analyzer`) emits ``SQL5xx`` warnings
  from :func:`infer_where` — contradictory predicates (``SQL501``),
  always-true predicates (``SQL502``), and comparison constants outside
  a column's value domain (``SQL503``);
- the planner folds constants (:func:`fold_constants`), drops
  always-true conjuncts, drops range conjuncts implied by tighter ones
  (:func:`implied_drops`), and short-circuits provably-empty scans.

Soundness notes:

- All "never"/"always" claims require ``pure`` — the executor must not
  be able to raise while evaluating the conjunct, otherwise dropping or
  short-circuiting it would swallow a runtime error.
- Interval reasoning is restricted to INTEGER/DATE/TEXT columns.  FLOAT
  is excluded because ``values_compare(nan, c)`` returns 0, which makes
  NaN satisfy every non-strict bound.
- Arithmetic purity assumes cells are representable as float64 (the
  same domain the columnar engine computes in); integers beyond 1e308
  mixed with floats could raise ``OverflowError`` at runtime, which
  this pass deliberately ignores.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
    SqlNode,
    UnaryOp,
)
from .schema import Column, TableSchema
from .types import DataType, format_value, iso_date_or_none, values_compare

#: Nullability lattice points.
NEVER, MAYBE, ALWAYS = "never", "maybe", "always"

#: Type families the inference pass and the semantic analyzer reason in.
#: Coarser than :class:`~repro.sqldb.types.DataType`: INTEGER and FLOAT
#: collapse into ``number`` because the engine compares and computes
#: across them freely.
NUMBER, TEXT, DATE, BOOL = "number", "text", "date", "boolean"

FAMILY_BY_DTYPE = {
    DataType.INTEGER: NUMBER,
    DataType.FLOAT: NUMBER,
    DataType.TEXT: TEXT,
    DataType.DATE: DATE,
    DataType.BOOLEAN: BOOL,
}

_COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")
_MIRRORED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class _NoConst:
    """Sentinel distinguishing "value unknown" from "constant NULL"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NO_CONST"


NO_CONST = _NoConst()


def value_family(value: Any) -> Optional[str]:
    """Type family of a literal's Python value; ``None`` for NULL or for
    values outside the engine's scalar domain (no claims about those —
    programmatic ASTs may carry arbitrary payloads)."""
    if value is None:
        return None
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, (int, float)):
        return NUMBER
    if isinstance(value, datetime.date):
        return DATE
    if isinstance(value, str):
        return TEXT
    return None


def families_compatible(left: Optional[str], right: Optional[str]) -> bool:
    """Whether two families can ever compare equal/ordered at runtime.

    TEXT and DATE are mutually compatible because the engine implicitly
    parses ISO-date strings compared against DATE values."""
    if left is None or right is None or left == right:
        return True
    return {left, right} == {TEXT, DATE}


def _order(left: Any, right: Any) -> Optional[int]:
    """Three-way comparison of two canonical same-domain values."""
    return values_compare(left, right)


def _show(value: Any) -> str:
    """Compact rendering of a canonical interval endpoint."""
    if isinstance(value, float) and value.is_integer() and math.isfinite(value):
        return str(int(value))
    if isinstance(value, datetime.date):
        return value.isoformat()
    if isinstance(value, str):
        return repr(value)
    return repr(value)


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A (possibly unbounded) interval over one canonical value domain.

    ``low``/``high`` of ``None`` mean unbounded on that side.  Endpoint
    values are canonical: ``float`` for INTEGER columns,
    :class:`datetime.date` for DATE, ``str`` for TEXT.
    """

    low: Any = None
    high: Any = None
    low_open: bool = False
    high_open: bool = False

    def is_empty(self) -> bool:
        """Whether no value can satisfy both bounds."""
        if self.low is None or self.high is None:
            return False
        c = _order(self.low, self.high)
        if c is None:
            return False
        if c > 0:
            return True
        return c == 0 and (self.low_open or self.high_open)

    def intersect(self, other: "Interval") -> "Interval":
        """The interval of values inside both ``self`` and ``other``."""
        low, low_open = self.low, self.low_open
        if other.low is not None:
            if low is None:
                low, low_open = other.low, other.low_open
            else:
                c = _order(other.low, low)
                if c is not None and (c > 0 or (c == 0 and other.low_open)):
                    low, low_open = other.low, other.low_open
        high, high_open = self.high, self.high_open
        if other.high is not None:
            if high is None:
                high, high_open = other.high, other.high_open
            else:
                c = _order(other.high, high)
                if c is not None and (c < 0 or (c == 0 and other.high_open)):
                    high, high_open = other.high, other.high_open
        return Interval(low, high, low_open, high_open)

    def contains(self, other: "Interval") -> bool:
        """Whether every value of ``other`` lies inside ``self``."""
        if self.low is not None:
            if other.low is None:
                return False
            c = _order(other.low, self.low)
            if c is None or c < 0:
                return False
            if c == 0 and self.low_open and not other.low_open:
                return False
        if self.high is not None:
            if other.high is None:
                return False
            c = _order(other.high, self.high)
            if c is None or c > 0:
                return False
            if c == 0 and self.high_open and not other.high_open:
                return False
        return True

    @property
    def unbounded(self) -> bool:
        """Whether the interval places no constraint at all."""
        return self.low is None and self.high is None

    def __str__(self) -> str:
        if (
            self.low is not None
            and self.high is not None
            and not self.low_open
            and not self.high_open
            and _order(self.low, self.high) == 0
        ):
            return f"{{{_show(self.low)}}}"
        lo = "(-inf" if self.low is None else ("(" if self.low_open else "[") + _show(self.low)
        hi = "inf)" if self.high is None else _show(self.high) + (")" if self.high_open else "]")
        return f"{lo}, {hi}"


# ---------------------------------------------------------------------------
# Name resolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Resolved:
    """A column reference resolved against one block's bindings."""

    binding: str
    column: Column

    @property
    def key(self) -> Tuple[str, str]:
        """Normalized ``(binding, column)`` identity."""
        return (self.binding, self.column.name.lower())


class Resolver:
    """Schema-only local name resolution shared by the analyzer hook and
    the planner rewriter.

    Mirrors the executor's scope rules for one block: a qualified
    reference binds to the first matching binding; an unqualified one
    must match exactly one schema.  References that may resolve in an
    outer scope, belong to an unknown table, or are ambiguous return
    ``None`` — inference then makes no claims about them.
    """

    def __init__(self, bindings: Sequence[Tuple[str, Optional[TableSchema]]]):
        self._bindings: List[Tuple[str, Optional[TableSchema]]] = [
            (binding.lower(), schema) for binding, schema in bindings
        ]
        self._has_unknown = any(schema is None for _, schema in self._bindings)

    def resolve(self, ref: ColumnRef) -> Optional[Resolved]:
        """Resolve ``ref`` locally, or ``None`` when nothing can be claimed."""
        if ref.table:
            want = ref.table.lower()
            for binding, schema in self._bindings:
                if binding == want:
                    if schema is not None and ref.column in schema:
                        return Resolved(binding, schema.column(ref.column))
                    return None
            return None
        if self._has_unknown:
            return None
        matches = [
            (binding, schema)
            for binding, schema in self._bindings
            if schema is not None and ref.column in schema
        ]
        if len(matches) != 1:
            return None
        binding, schema = matches[0]
        assert schema is not None
        return Resolved(binding, schema.column(ref.column))


# ---------------------------------------------------------------------------
# Facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fact:
    """What is statically known about one expression's value.

    ``const`` is :data:`NO_CONST` when the value is unknown; ``None``
    means the expression is constant NULL.  ``pure`` asserts evaluation
    can never raise on any row.
    """

    family: Optional[str] = None
    nullability: str = MAYBE
    const: Any = NO_CONST
    interval: Optional[Interval] = None
    pure: bool = False

    @property
    def known(self) -> bool:
        """Whether a constant value (possibly NULL) is established."""
        return not isinstance(self.const, _NoConst)


def _literal_fact(value: Any) -> Fact:
    if value is None:
        return Fact(nullability=ALWAYS, const=None, pure=True)
    interval: Optional[Interval] = None
    if isinstance(value, bool):
        pass
    elif isinstance(value, (int, float)):
        canon = _float_or_none(value)
        if canon is not None:
            interval = Interval(canon, canon)
    elif isinstance(value, (datetime.date, str)):
        interval = Interval(value, value)
    return Fact(
        family=value_family(value), nullability=NEVER, const=value, pure=True, interval=interval
    )


def _float_or_none(value: Any) -> Optional[float]:
    """``value`` as a finite float, or ``None`` when it is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        f = float(value)
    except OverflowError:
        return None
    return f if math.isfinite(f) else None


def _bool_fact(t: "Truth") -> Fact:
    const: Any = NO_CONST
    if t.pure:
        if t.can_true and not t.can_false and not t.can_unknown:
            const = True
        elif t.can_false and not t.can_true and not t.can_unknown:
            const = False
        elif t.can_unknown and not t.can_true and not t.can_false:
            const = None
    nullability = MAYBE if t.can_unknown else NEVER
    if const is None:
        nullability = ALWAYS
    return Fact(family=BOOL, nullability=nullability, const=const, pure=t.pure)


def _arith_fact(op: str, lf: Fact, rf: Fact) -> Fact:
    """Mirror of the executor's arithmetic: NULL short-circuits before
    type and zero checks; operands must be non-bool numbers."""
    pure_sides = lf.pure and rf.pure
    if lf.nullability == ALWAYS or rf.nullability == ALWAYS:
        return Fact(family=NUMBER, nullability=ALWAYS, const=None, pure=pure_sides)
    numeric = lf.family == NUMBER and rf.family == NUMBER
    nonzero_divisor = rf.known and rf.const is not None and rf.const != 0
    pure = pure_sides and numeric and (op != "/" or nonzero_divisor)
    const: Any = NO_CONST
    if pure and lf.known and rf.known:
        const = _fold_arith_values(op, lf.const, rf.const)
        if isinstance(const, _NoConst):
            pure = False
    if lf.nullability == NEVER and rf.nullability == NEVER:
        nullability = NEVER
    else:
        nullability = MAYBE
    return Fact(family=NUMBER, nullability=nullability, const=const, pure=pure)


def _fold_arith_values(op: str, left: Any, right: Any) -> Any:
    """Apply one arithmetic op exactly as the executor would, or
    :data:`NO_CONST` when the executor would raise."""
    if left is None or right is None:
        return None
    if isinstance(left, bool) or isinstance(right, bool):
        return NO_CONST
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        return NO_CONST
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                return NO_CONST
            return left / right
    except OverflowError:
        return NO_CONST
    return NO_CONST


def fact(expr: Expr, resolver: Resolver) -> Fact:
    """Compute the :class:`Fact` for ``expr`` bottom-up."""
    if isinstance(expr, Literal):
        return _literal_fact(expr.value)
    if isinstance(expr, ColumnRef):
        res = resolver.resolve(expr)
        if res is None:
            return Fact()
        return Fact(
            family=FAMILY_BY_DTYPE.get(res.column.dtype),
            nullability=MAYBE if res.column.nullable else NEVER,
            pure=True,
        )
    if isinstance(expr, UnaryOp):
        if expr.op.upper() == "NOT":
            return _bool_fact(truth(expr, resolver))
        f = fact(expr.operand, resolver)
        pure = f.pure and (f.family == NUMBER or f.nullability == ALWAYS)
        const: Any = NO_CONST
        if pure and f.known:
            if f.const is None:
                const = None
            elif isinstance(f.const, (int, float)) and not isinstance(f.const, bool):
                const = -f.const
        return Fact(family=NUMBER, nullability=f.nullability, const=const, pure=pure)
    if isinstance(expr, BinaryOp):
        if expr.op in ("+", "-", "*", "/"):
            return _arith_fact(expr.op, fact(expr.left, resolver), fact(expr.right, resolver))
        return _bool_fact(truth(expr, resolver))
    if isinstance(expr, (IsNull, Between, InList)):
        return _bool_fact(truth(expr, resolver))
    if isinstance(expr, CaseExpr):
        return _case_fact(expr, resolver)
    # Star, FuncCall, SubqueryExpr, WindowFunction: value and effects unknown.
    return Fact()


def _case_fact(expr: CaseExpr, resolver: Resolver) -> Fact:
    """Facts through CASE: the family is the join of the branch results,
    purity requires every operand, condition, and result to be pure, and
    a missing ELSE keeps NULL reachable via fall-through."""
    pure = True
    if expr.operand is not None:
        pure = pure and fact(expr.operand, resolver).pure
    results: List[Fact] = []
    for when, then in expr.whens:
        if expr.operand is None:
            # Searched form: WHEN sits in a boolean position.
            pure = pure and truth(when, resolver).pure
        else:
            # Simple form: values_equal never raises, so only the
            # operand/WHEN evaluations themselves matter.
            pure = pure and fact(when, resolver).pure
        results.append(fact(then, resolver))
    if expr.default is not None:
        results.append(fact(expr.default, resolver))
    pure = pure and all(f.pure for f in results)
    families = {f.family for f in results}
    family = families.pop() if len(families) == 1 else None
    if all(f.nullability == ALWAYS for f in results):
        # Every branch yields NULL — and so does fall-through.
        nullability = ALWAYS
    elif expr.default is not None and all(f.nullability == NEVER for f in results):
        nullability = NEVER
    else:
        nullability = MAYBE
    return Fact(family=family, nullability=nullability, pure=pure)


# ---------------------------------------------------------------------------
# Truth: three-valued outcome possibilities for boolean positions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Issue:
    """One SQL5xx finding, ready for the analyzer to emit."""

    code: str
    message: str
    node: Optional[SqlNode] = None


@dataclass(frozen=True)
class Truth:
    """Which three-valued outcomes a boolean expression can produce.

    An outcome flag of ``False`` is a proof that outcome is impossible;
    ``True`` makes no claim.  ``covered`` marks verdicts an existing
    SQL3xx diagnostic already explains (the analyzer then skips the
    SQL501/502 duplicate).  ``pure`` asserts evaluation never raises.
    """

    can_true: bool = True
    can_false: bool = True
    can_unknown: bool = True
    pure: bool = False
    covered: bool = False
    reason: str = ""
    issues: Tuple[Issue, ...] = ()

    @property
    def always_true(self) -> bool:
        """Provably definite-true on every row (and never raising)."""
        return self.pure and self.can_true and not self.can_false and not self.can_unknown

    @property
    def never_true(self) -> bool:
        """Provably never definite-true on any row (and never raising)."""
        return self.pure and not self.can_true

    def negate(self) -> "Truth":
        """The Kleene NOT of this truth (swaps true/false outcomes)."""
        return Truth(
            can_true=self.can_false,
            can_false=self.can_true,
            can_unknown=self.can_unknown,
            pure=self.pure,
            covered=self.covered,
            reason=self.reason,
            issues=self.issues,
        )


def _and_truth(left: Truth, right: Truth) -> Truth:
    return Truth(
        can_true=left.can_true and right.can_true,
        can_false=left.can_false or right.can_false,
        can_unknown=(left.can_unknown and (right.can_true or right.can_unknown))
        or (right.can_unknown and (left.can_true or left.can_unknown)),
        pure=left.pure and right.pure,
        covered=left.covered or right.covered,
        reason=left.reason or right.reason,
        issues=left.issues + right.issues,
    )


def _or_truth(left: Truth, right: Truth) -> Truth:
    return Truth(
        can_true=left.can_true or right.can_true,
        can_false=left.can_false and right.can_false,
        can_unknown=(left.can_unknown and (right.can_false or right.can_unknown))
        or (right.can_unknown and (left.can_false or left.can_unknown)),
        pure=left.pure and right.pure,
        covered=left.covered or right.covered,
        reason=left.reason or right.reason,
        issues=left.issues + right.issues,
    )


def _value_truth(f: Fact) -> Truth:
    """Truthiness of a non-boolean expression in a boolean position
    (``_bool3``: NULL stays unknown, otherwise Python truthiness)."""
    if f.pure and f.known:
        if f.const is None:
            return Truth(False, False, True, pure=True, reason="constant NULL")
        if bool(f.const):
            return Truth(True, False, False, pure=True, reason="non-zero constant")
        return Truth(False, True, False, pure=True, reason="zero constant")
    can_unknown = True if not f.pure else f.nullability != NEVER
    return Truth(True, True, can_unknown, pure=f.pure)


def _compare_consts(op: str, left: Any, right: Any) -> bool:
    """Definite comparison of two non-NULL constants, mirroring
    ``values_equal``/``values_compare`` (incomparable → false)."""
    from .types import values_equal

    if op == "=":
        return values_equal(left, right)
    if op == "!=":
        return not values_equal(left, right)
    c = values_compare(left, right)
    if c is None:
        return False
    if op == "<":
        return c < 0
    if op == "<=":
        return c <= 0
    if op == ">":
        return c > 0
    return c >= 0


def _column_const_pair(
    expr: BinaryOp, resolver: Resolver
) -> Optional[Tuple[Resolved, ColumnRef, Any, str]]:
    """Orient ``col OP literal-const`` (either side); op is mirrored so
    the column is always on the left."""
    if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
        res = resolver.resolve(expr.left)
        if res is not None:
            return res, expr.left, expr.right.value, expr.op
    if isinstance(expr.right, ColumnRef) and isinstance(expr.left, Literal):
        res = resolver.resolve(expr.right)
        if res is not None and expr.op in _MIRRORED:
            return res, expr.right, expr.left.value, _MIRRORED[expr.op]
    return None


def _compare_truth(expr: BinaryOp, resolver: Resolver) -> Truth:
    lf = fact(expr.left, resolver)
    rf = fact(expr.right, resolver)
    pure = lf.pure and rf.pure
    op = expr.op
    can_unknown = lf.nullability != NEVER or rf.nullability != NEVER

    # A NULL side makes the comparison unknown on every row.
    if (lf.known and lf.const is None) or (rf.known and rf.const is None):
        return Truth(
            False, False, True, pure=pure, reason="comparison with NULL is always unknown"
        )

    if pure and lf.known and rf.known:
        result = _compare_consts(op, lf.const, rf.const)
        return Truth(
            result, not result, False, pure=True,
            reason=f"constant comparison is {'true' if result else 'false'}",
        )

    # Incompatible families never compare equal or ordered (SQL301 turf).
    if (
        lf.family is not None
        and rf.family is not None
        and not families_compatible(lf.family, rf.family)
    ):
        if op == "!=":
            return Truth(True, False, can_unknown, pure=pure, covered=True,
                         reason="type families never compare equal")
        return Truth(False, True, can_unknown, pure=pure, covered=True,
                     reason="type families never compare")

    # Column against an out-of-domain constant (SQL503).
    pair = _column_const_pair(expr, resolver)
    if pair is not None:
        res, ref, const, oriented = pair
        verdict = _domain_truth(res, ref, const, oriented, pure, can_unknown)
        if verdict is not None:
            return verdict

    # A column compared with itself.
    if isinstance(expr.left, ColumnRef) and isinstance(expr.right, ColumnRef):
        rl = resolver.resolve(expr.left)
        rr = resolver.resolve(expr.right)
        if rl is not None and rr is not None and rl.key == rr.key:
            label = f"{expr.left.to_sql()} compared with itself"
            nan_free = rl.column.dtype is not DataType.FLOAT
            if op in ("<", ">"):
                return Truth(False, True, can_unknown, pure=pure, reason=label)
            if nan_free and op in ("=", "<=", ">="):
                return Truth(True, False, can_unknown, pure=pure, reason=label)
            if nan_free and op == "!=":
                return Truth(False, True, can_unknown, pure=pure, reason=label)

    return Truth(True, True, can_unknown, pure=pure)


def _domain_truth(
    res: Resolved,
    ref: ColumnRef,
    const: Any,
    op: str,
    pure: bool,
    can_unknown: bool,
) -> Optional[Truth]:
    """Never/always verdicts for a constant outside the column's domain."""
    dtype = res.column.dtype
    if (
        dtype is DataType.INTEGER
        and isinstance(const, float)
        and not isinstance(const, bool)
        and not math.isnan(const)
        and not const.is_integer()
        and op in ("=", "!=")
    ):
        issue = Issue(
            "SQL503",
            f"constant {format_value(const)} is outside the INTEGER domain of "
            f"column {ref.to_sql()!r}: equality can never hold",
            ref,
        )
        if op == "=":
            return Truth(False, True, can_unknown, pure=pure,
                         reason="fractional constant never equals an INTEGER column",
                         issues=(issue,))
        return Truth(True, False, can_unknown, pure=pure,
                     reason="fractional constant never equals an INTEGER column",
                     issues=(issue,))
    if dtype is DataType.DATE and isinstance(const, str) and iso_date_or_none(const) is None:
        issue = Issue(
            "SQL503",
            f"constant {const!r} is not an ISO date and can never compare "
            f"with DATE column {ref.to_sql()!r}",
            ref,
        )
        reason = "non-ISO text never compares with a DATE column"
        if op == "!=":
            return Truth(True, False, can_unknown, pure=pure, reason=reason, issues=(issue,))
        return Truth(False, True, can_unknown, pure=pure, reason=reason, issues=(issue,))
    return None


def _like_truth(expr: BinaryOp, resolver: Resolver) -> Truth:
    lf = fact(expr.left, resolver)
    rf = fact(expr.right, resolver)

    def text_safe(f: Fact) -> bool:
        return f.family == TEXT or f.nullability == ALWAYS

    pure = lf.pure and rf.pure and text_safe(lf) and text_safe(rf)
    can_unknown = lf.nullability != NEVER or rf.nullability != NEVER
    if (lf.known and lf.const is None) or (rf.known and rf.const is None):
        return Truth(False, False, True, pure=pure, reason="LIKE with NULL is always unknown")
    return Truth(True, True, can_unknown, pure=pure)


def _isnull_truth(expr: IsNull, resolver: Resolver) -> Truth:
    f = fact(expr.operand, resolver)
    is_null: Optional[bool] = None
    reason = ""
    if f.pure and f.known:
        is_null = f.const is None
        reason = "operand is constant"
    elif f.pure and f.nullability == NEVER:
        is_null = False
        reason = f"{expr.operand.to_sql()} can never be NULL"
    elif f.pure and f.nullability == ALWAYS:
        is_null = True
        reason = f"{expr.operand.to_sql()} is always NULL"
    if is_null is None:
        # IS [NOT] NULL always produces a definite boolean.
        return Truth(True, True, False, pure=f.pure)
    result = is_null != expr.negated
    return Truth(result, not result, False, pure=f.pure, reason=reason)


def _nan_free_operand(expr: Expr, f: Fact, resolver: Resolver) -> bool:
    """Whether the operand provably never evaluates to NaN."""
    if f.family in (TEXT, DATE, BOOL):
        return True
    if f.known:
        return not (isinstance(f.const, float) and math.isnan(f.const))
    if isinstance(expr, ColumnRef):
        res = resolver.resolve(expr)
        return res is not None and res.column.dtype is not DataType.FLOAT
    return False


def _between_truth(expr: Between, resolver: Resolver) -> Truth:
    of = fact(expr.operand, resolver)
    lo = fact(expr.low, resolver)
    hi = fact(expr.high, resolver)
    pure = of.pure and lo.pure and hi.pure
    can_unknown = (
        of.nullability != NEVER or lo.nullability != NEVER or hi.nullability != NEVER
    )

    def oriented(t: Truth) -> Truth:
        return t.negate() if expr.negated else t

    if not (
        families_compatible(of.family, lo.family) and families_compatible(of.family, hi.family)
    ):
        # SQL305 turf: mismatched bounds make the range test false.
        return oriented(Truth(False, True, can_unknown, pure=pure, covered=True,
                              reason="BETWEEN bounds type-incompatible"))
    if (lo.known and lo.const is None) or (hi.known and hi.const is None):
        return oriented(Truth(False, True, True, pure=pure, reason="BETWEEN bound is NULL"))
    if pure and lo.known and hi.known and _nan_free_operand(expr.operand, of, resolver):
        c = values_compare(lo.const, hi.const)
        if c is not None and c > 0:
            return oriented(Truth(False, True, can_unknown, pure=True,
                                  reason="BETWEEN bounds are inverted"))
    return Truth(True, True, can_unknown, pure=pure)


def _inlist_truth(expr: InList, resolver: Resolver) -> Truth:
    of = fact(expr.operand, resolver)
    item_facts = [fact(item, resolver) for item in expr.items]
    pure = of.pure and all(f.pure for f in item_facts)
    can_unknown = (
        of.nullability != NEVER
        or any(f.nullability != NEVER for f in item_facts)
    )
    if item_facts and all(f.known and f.const is None for f in item_facts):
        # IN (NULL, ...): never a hit, and the NULL makes misses unknown —
        # never definitely true whether negated or not (SQL306 turf).
        return Truth(False, False, True, pure=pure, covered=True,
                     reason="IN list contains only NULLs")
    return Truth(True, True, can_unknown, pure=pure)


def truth(expr: Expr, resolver: Resolver) -> Truth:
    """Possible three-valued outcomes of ``expr`` in a boolean position."""
    if isinstance(expr, Literal):
        return _value_truth(_literal_fact(expr.value))
    if isinstance(expr, ColumnRef):
        return _value_truth(fact(expr, resolver))
    if isinstance(expr, UnaryOp):
        if expr.op.upper() == "NOT":
            return truth(expr.operand, resolver).negate()
        return _value_truth(fact(expr, resolver))
    if isinstance(expr, BinaryOp):
        if expr.op == "AND":
            return _and_truth(truth(expr.left, resolver), truth(expr.right, resolver))
        if expr.op == "OR":
            return _or_truth(truth(expr.left, resolver), truth(expr.right, resolver))
        if expr.op in _COMPARISON_OPS:
            return _compare_truth(expr, resolver)
        if expr.op == "LIKE":
            return _like_truth(expr, resolver)
        return _value_truth(fact(expr, resolver))
    if isinstance(expr, IsNull):
        return _isnull_truth(expr, resolver)
    if isinstance(expr, Between):
        return _between_truth(expr, resolver)
    if isinstance(expr, InList):
        return _inlist_truth(expr, resolver)
    if isinstance(expr, CaseExpr):
        return _value_truth(fact(expr, resolver))
    # FuncCall, SubqueryExpr, Star, WindowFunction: no claims.
    return Truth()


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------


def _with_span(new: Expr, template: Expr) -> Expr:
    """Copy the source span of ``template`` onto a rebuilt node."""
    if template.span is not None:
        object.__setattr__(new, "span", template.span)
    return new


def fold_constants(expr: Expr) -> Expr:
    """Collapse literal-only arithmetic subtrees, mirroring the executor
    exactly; anything the executor would raise on is left untouched.

    Returns the original object when nothing folded, so identity-based
    caches and ``expr in group_keys`` checks keep working.  Does not
    descend into subquery statements.
    """
    if isinstance(expr, BinaryOp):
        left = fold_constants(expr.left)
        right = fold_constants(expr.right)
        if expr.op in ("+", "-", "*", "/") and isinstance(left, Literal) and isinstance(right, Literal):
            value = _fold_arith_values(expr.op, left.value, right.value)
            if not isinstance(value, _NoConst):
                return _with_span(Literal(value), expr)
        if left is expr.left and right is expr.right:
            return expr
        return _with_span(BinaryOp(expr.op, left, right), expr)
    if isinstance(expr, UnaryOp):
        operand = fold_constants(expr.operand)
        if expr.op == "-" and isinstance(operand, Literal):
            if operand.value is None:
                return _with_span(Literal(None), expr)
            if isinstance(operand.value, (int, float)) and not isinstance(operand.value, bool):
                return _with_span(Literal(-operand.value), expr)
        if operand is expr.operand:
            return expr
        return _with_span(UnaryOp(expr.op, operand), expr)
    if isinstance(expr, IsNull):
        operand = fold_constants(expr.operand)
        if operand is expr.operand:
            return expr
        return _with_span(IsNull(operand, expr.negated), expr)
    if isinstance(expr, Between):
        operand = fold_constants(expr.operand)
        low = fold_constants(expr.low)
        high = fold_constants(expr.high)
        if operand is expr.operand and low is expr.low and high is expr.high:
            return expr
        return _with_span(Between(operand, low, high, expr.negated), expr)
    if isinstance(expr, InList):
        operand = fold_constants(expr.operand)
        items = tuple(fold_constants(item) for item in expr.items)
        if operand is expr.operand and all(a is b for a, b in zip(items, expr.items)):
            return expr
        return _with_span(InList(operand, items, expr.negated), expr)
    if isinstance(expr, FuncCall):
        args = tuple(fold_constants(arg) for arg in expr.args)
        if all(a is b for a, b in zip(args, expr.args)):
            return expr
        return _with_span(FuncCall(expr.name, args, expr.distinct), expr)
    if isinstance(expr, CaseExpr):
        operand = fold_constants(expr.operand) if expr.operand is not None else None
        whens = tuple((fold_constants(w), fold_constants(t)) for w, t in expr.whens)
        default = fold_constants(expr.default) if expr.default is not None else None
        if (
            operand is expr.operand
            and default is expr.default
            and all(w is ow and t is ot for (w, t), (ow, ot) in zip(whens, expr.whens))
        ):
            return expr
        return _with_span(CaseExpr(operand, whens, default), expr)
    # Literal, ColumnRef, Star, SubqueryExpr, WindowFunction: leave as-is.
    return expr


# ---------------------------------------------------------------------------
# WHERE-clause analysis: bounds, intervals, and reports
# ---------------------------------------------------------------------------


#: Column domains whose canonical values form a NaN-free total order —
#: the only domains interval reasoning is sound over (see module doc).
_ORDERED_DTYPES = (DataType.INTEGER, DataType.DATE, DataType.TEXT)


@dataclass(frozen=True)
class Bound:
    """One conjunct's contribution to a column's value interval."""

    key: Tuple[str, str]
    label: str
    interval: Interval
    is_equality: bool


def _canon_bound_value(value: Any, dtype: DataType) -> Any:
    """Canonical comparison value for a literal against a column of
    ``dtype``, or ``None`` when it does not join that domain's order."""
    if value is None:
        return None
    if dtype is DataType.INTEGER:
        return _float_or_none(value)
    if dtype is DataType.DATE:
        if isinstance(value, datetime.date) and not isinstance(value, datetime.datetime):
            return value
        if isinstance(value, str):
            return iso_date_or_none(value)
        return None
    if dtype is DataType.TEXT:
        return value if isinstance(value, str) else None
    return None


def conjunct_bound(expr: Expr, resolver: Resolver) -> Optional[Bound]:
    """The interval a conjunct imposes on one column, when it has the
    shape ``col OP literal`` / ``literal OP col`` / non-negated
    ``col BETWEEN literal AND literal`` over an INTEGER/DATE/TEXT column.
    """
    if isinstance(expr, BinaryOp) and expr.op in ("=", "<", "<=", ">", ">="):
        pair = _column_const_pair(expr, resolver)
        if pair is None:
            return None
        res, ref, const, op = pair
        if res.column.dtype not in _ORDERED_DTYPES:
            return None
        canon = _canon_bound_value(const, res.column.dtype)
        if canon is None:
            return None
        if op == "=":
            interval = Interval(canon, canon)
        elif op == "<":
            interval = Interval(None, canon, high_open=True)
        elif op == "<=":
            interval = Interval(None, canon)
        elif op == ">":
            interval = Interval(canon, None, low_open=True)
        else:
            interval = Interval(canon, None)
        return Bound(res.key, ref.to_sql(), interval, op == "=")
    if (
        isinstance(expr, Between)
        and not expr.negated
        and isinstance(expr.operand, ColumnRef)
        and isinstance(expr.low, Literal)
        and isinstance(expr.high, Literal)
    ):
        res = resolver.resolve(expr.operand)
        if res is None or res.column.dtype not in _ORDERED_DTYPES:
            return None
        lo = _canon_bound_value(expr.low.value, res.column.dtype)
        hi = _canon_bound_value(expr.high.value, res.column.dtype)
        if lo is None or hi is None:
            return None
        return Bound(res.key, expr.operand.to_sql(), Interval(lo, hi), False)
    return None


@dataclass
class ConjunctInfo:
    """Everything inference knows about one top-level WHERE conjunct."""

    expr: Expr
    truth: Truth
    bound: Optional[Bound]


@dataclass
class RangeInfo:
    """Intersection of every bound contributed for one column."""

    label: str
    interval: Interval
    count: int
    node: Optional[SqlNode]


@dataclass
class WhereReport:
    """Inference results over a conjunct list (one WHERE clause)."""

    conjuncts: List[ConjunctInfo]
    ranges: Dict[Tuple[str, str], RangeInfo]
    contradicted: List[Tuple[str, str]]
    issues: List[Issue]

    @property
    def all_pure(self) -> bool:
        """Whether no conjunct can raise while being evaluated."""
        return all(c.truth.pure for c in self.conjuncts)

    @property
    def never_satisfiable(self) -> bool:
        """Whether the whole WHERE is provably never definite-true."""
        if self.contradicted:
            return True
        return any(c.truth.never_true for c in self.conjuncts)


def infer_where(conjuncts: Sequence[Expr], resolver: Resolver) -> WhereReport:
    """Analyze a WHERE clause's top-level conjuncts: per-conjunct truth,
    per-column interval intersections, and SQL5xx issues."""
    infos = [
        ConjunctInfo(c, truth(c, resolver), conjunct_bound(c, resolver)) for c in conjuncts
    ]
    ranges: Dict[Tuple[str, str], RangeInfo] = {}
    for info in infos:
        b = info.bound
        if b is None:
            continue
        cur = ranges.get(b.key)
        if cur is None:
            ranges[b.key] = RangeInfo(b.label, b.interval, 1, info.expr)
        else:
            ranges[b.key] = RangeInfo(
                cur.label, cur.interval.intersect(b.interval), cur.count + 1, info.expr
            )
    contradicted = [key for key, r in ranges.items() if r.interval.is_empty()]

    issues: List[Issue] = []
    for info in infos:
        t = info.truth
        issues.extend(t.issues)
        if t.covered:
            continue
        if t.never_true:
            detail = f": {t.reason}" if t.reason else ""
            issues.append(
                Issue(
                    "SQL501",
                    f"predicate {info.expr.to_sql()!r} can never be satisfied{detail}",
                    info.expr,
                )
            )
        elif t.always_true:
            detail = f": {t.reason}" if t.reason else ""
            issues.append(
                Issue(
                    "SQL502",
                    f"predicate {info.expr.to_sql()!r} is always true{detail}",
                    info.expr,
                )
            )
    for key in contradicted:
        r = ranges[key]
        if r.count >= 2:
            issues.append(
                Issue(
                    "SQL501",
                    f"range predicates on {r.label} are contradictory (empty range)",
                    r.node,
                )
            )
    return WhereReport(infos, ranges, contradicted, issues)


def implied_drops(infos: Sequence[ConjunctInfo]) -> List[int]:
    """Indices of range conjuncts implied by the other range conjuncts
    on the same column (``x > 5 AND x > 3`` → drop ``x > 3``).

    Equality conjuncts are never dropped — they drive index scans.  The
    caller must additionally check that every WHERE conjunct is pure
    before applying the drops (removing a conjunct exposes later
    conjuncts to rows they were previously short-circuited away from).
    """
    by_key: Dict[Tuple[str, str], List[int]] = {}
    for i, info in enumerate(infos):
        if info.bound is not None:
            by_key.setdefault(info.bound.key, []).append(i)
    drops: List[int] = []
    for idxs in by_key.values():
        if len(idxs) < 2:
            continue
        for i in idxs:
            bound = infos[i].bound
            assert bound is not None
            if bound.is_equality:
                continue
            rest: List[Interval] = []
            for j in idxs:
                if j == i or j in drops:
                    continue
                other = infos[j].bound
                assert other is not None
                rest.append(other.interval)
            if not rest:
                continue
            inter = rest[0]
            for iv in rest[1:]:
                inter = inter.intersect(iv)
            if inter.is_empty():
                continue  # contradiction handling owns this column
            if bound.interval.contains(inter):
                drops.append(i)
    return drops
