"""Value types and coercion rules for the in-memory SQL engine.

The engine supports five scalar types — ``INTEGER``, ``FLOAT``, ``TEXT``,
``BOOLEAN`` and ``DATE`` — plus SQL ``NULL``, represented as Python
``None``.  Dates are :class:`datetime.date` instances; literals in SQL
text use the ISO ``'YYYY-MM-DD'`` form.

NULL semantics: the engine implements SQL three-valued logic — a
comparison, ``LIKE``, ``BETWEEN`` or ``IN`` involving NULL evaluates to
*unknown* (``None``), ``NOT`` propagates unknown, ``AND``/``OR`` are
Kleene connectives, and WHERE/HAVING keep only rows whose predicate is
definitely true.  ``IS NULL`` / ``IS NOT NULL`` test for NULL
explicitly, and aggregates skip NULLs (``COUNT(*)`` counts rows
regardless).  :func:`values_equal` answers "definitely equal?" (NULL is
never definitely equal to anything) and :func:`values_compare` returns
``None`` for NULL or incomparable operands.

This module is the single definition of every per-value SQL rule the
engine applies: the Kleene helpers (:func:`bool3`, :func:`not3`,
:func:`and3`, :func:`or3`), three-valued comparison (:func:`compare3`),
arithmetic (:func:`arith`, :func:`negate`), ``LIKE``'s pattern
(:func:`like_to_regex`) and :func:`binary_value`, which dispatches a
binary operator to them.  The row executor, the columnar engine's
constant folding and the static inference pass all call these, so the
three stay byte-identical by construction.
"""

from __future__ import annotations

import datetime
import enum
import functools
import math
import re
from typing import Any, Callable, Dict, Optional

from .errors import (
    ArithmeticTypeError,
    DivisionByZeroError,
    ExecutionError,
    LikeTypeError,
    TypeMismatchError,
)


class DataType(enum.Enum):
    """Declared type of a table column."""

    INTEGER = "integer"
    FLOAT = "float"
    TEXT = "text"
    BOOLEAN = "boolean"
    DATE = "date"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value.upper()

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type participate in arithmetic."""
        return self in (DataType.INTEGER, DataType.FLOAT)


_DATE_FORMAT = "%Y-%m-%d"


def parse_date(text: str) -> datetime.date:
    """Parse an ISO ``YYYY-MM-DD`` string into a :class:`datetime.date`.

    Raises :class:`TypeMismatchError` on malformed input.
    """
    try:
        return datetime.datetime.strptime(text, _DATE_FORMAT).date()
    except ValueError as exc:
        raise TypeMismatchError(f"invalid date literal {text!r}: {exc}") from exc


def coerce(value: Any, dtype: DataType) -> Any:
    """Coerce ``value`` to ``dtype``, returning the converted value.

    ``None`` passes through unchanged (NULL is valid for any type unless
    the column forbids it).  Raises :class:`TypeMismatchError` when the
    value cannot represent the target type.
    """
    if value is None:
        return None
    if dtype is DataType.INTEGER:
        if isinstance(value, bool):
            raise TypeMismatchError(f"cannot store boolean {value!r} in INTEGER column")
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            if value.is_integer():
                return int(value)
            raise TypeMismatchError(f"cannot store non-integral {value!r} in INTEGER column")
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                raise TypeMismatchError(f"cannot parse {value!r} as INTEGER") from None
        raise TypeMismatchError(f"cannot store {type(value).__name__} in INTEGER column")
    if dtype is DataType.FLOAT:
        if isinstance(value, bool):
            raise TypeMismatchError(f"cannot store boolean {value!r} in FLOAT column")
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                raise TypeMismatchError(f"cannot parse {value!r} as FLOAT") from None
        raise TypeMismatchError(f"cannot store {type(value).__name__} in FLOAT column")
    if dtype is DataType.TEXT:
        if isinstance(value, str):
            return value
        raise TypeMismatchError(f"cannot store {type(value).__name__} in TEXT column")
    if dtype is DataType.BOOLEAN:
        if isinstance(value, bool):
            return value
        raise TypeMismatchError(f"cannot store {type(value).__name__} in BOOLEAN column")
    if dtype is DataType.DATE:
        if isinstance(value, datetime.date) and not isinstance(value, datetime.datetime):
            return value
        if isinstance(value, str):
            return parse_date(value)
        raise TypeMismatchError(f"cannot store {type(value).__name__} in DATE column")
    raise TypeMismatchError(f"unknown data type {dtype!r}")  # pragma: no cover


def infer_type(value: Any) -> Optional[DataType]:
    """Infer the :class:`DataType` of a Python value, or ``None`` for NULL."""
    if value is None:
        return None
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, datetime.date):
        return DataType.DATE
    if isinstance(value, str):
        return DataType.TEXT
    raise TypeMismatchError(f"unsupported Python type {type(value).__name__}")


_DATE_LITERAL_RE = None


def iso_date_or_none(text: Any) -> Optional[datetime.date]:
    """The date a string would implicitly coerce to next to a DATE value,
    or ``None`` when it would stay a plain string.

    This is the single definition of the implicit coercion applied by
    :func:`values_equal` / :func:`values_compare`; the columnar kernels
    call it once per literal at compile time instead of once per row.
    """
    global _DATE_LITERAL_RE
    if _DATE_LITERAL_RE is None:
        _DATE_LITERAL_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
    if not isinstance(text, str) or not _DATE_LITERAL_RE.match(text):
        return None
    try:
        return parse_date(text)
    except TypeMismatchError:
        return None


def _coerce_date_operands(left: Any, right: Any) -> tuple:
    """Implicitly parse an ISO-date string compared against a DATE value."""
    if isinstance(left, datetime.date) and isinstance(right, str):
        coerced = iso_date_or_none(right)
        if coerced is not None:
            return left, coerced
    if isinstance(right, datetime.date) and isinstance(left, str):
        coerced = iso_date_or_none(left)
        if coerced is not None:
            return coerced, right
    return left, right


def values_equal(left: Any, right: Any) -> bool:
    """Definite SQL equality: NULL is never *definitely* equal to
    anything (callers needing three-valued ``=`` must test for NULL
    first); numerics compare by value."""
    if left is None or right is None:
        return False
    left, right = _coerce_date_operands(left, right)
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        if isinstance(left, float) and math.isnan(left):
            return False
        if isinstance(right, float) and math.isnan(right):
            return False
        return float(left) == float(right)
    if type(left) is not type(right):
        return False
    return left == right


def values_compare(left: Any, right: Any) -> Optional[int]:
    """Three-way comparison used by ``<``, ``>`` etc. and by ORDER BY.

    Returns ``-1``, ``0`` or ``1``, or ``None`` when either side is NULL
    or the types are incomparable (the caller treats ``None`` as
    "comparison is false").
    """
    if left is None or right is None:
        return None
    left, right = _coerce_date_operands(left, right)
    if isinstance(left, bool) or isinstance(right, bool):
        if isinstance(left, bool) and isinstance(right, bool):
            return (left > right) - (left < right)
        return None
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        lf, rf = float(left), float(right)
        return (lf > rf) - (lf < rf)
    if isinstance(left, datetime.date) and isinstance(right, datetime.date):
        return (left > right) - (left < right)
    if isinstance(left, str) and isinstance(right, str):
        return (left > right) - (left < right)
    return None


def bool3(value: Any) -> Optional[bool]:
    """Coerce a SQL value to three-valued boolean: NULL stays unknown
    (``None``), anything else falls back to Python truthiness."""
    if value is None:
        return None
    return bool(value)


def not3(value: Optional[bool]) -> Optional[bool]:
    """Kleene NOT: unknown stays unknown."""
    if value is None:
        return None
    return not value


def and3(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    """Kleene AND: false dominates, then unknown."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def or3(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    """Kleene OR: true dominates, then unknown."""
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


_ORDER_TESTS: Dict[str, Callable[[int], bool]] = {
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}


def compare3(op: str, left: Any, right: Any) -> Optional[bool]:
    """Three-valued ``left OP right`` for ``=``, ``!=``, ``<``, ``<=``,
    ``>`` and ``>=``: unknown when either side is NULL, false when the
    non-NULL sides are incomparable."""
    if left is None or right is None:
        return None
    if op == "=":
        return values_equal(left, right)
    if op == "!=":
        return not values_equal(left, right)
    cmp = values_compare(left, right)
    if cmp is None:
        return False
    return _ORDER_TESTS[op](cmp)


def arith(op: str, left: Any, right: Any) -> Any:
    """``left OP right`` for ``+``, ``-``, ``*`` and ``/``.  NULL on
    either side yields NULL before any check; a non-number operand raises
    :class:`ArithmeticTypeError` and a zero divisor
    :class:`DivisionByZeroError`.  Python's own ``OverflowError``
    (an integer too large for a float) propagates."""
    if left is None or right is None:
        return None
    for side in (left, right):
        if isinstance(side, bool) or not isinstance(side, (int, float)):
            raise ArithmeticTypeError(f"arithmetic on non-number {side!r}")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op != "/":
        raise ExecutionError(f"unknown operator {op!r}")
    if right == 0:
        raise DivisionByZeroError("division by zero")
    return left / right


def negate(value: Any) -> Any:
    """Unary minus: NULL stays NULL, a non-number raises
    :class:`ArithmeticTypeError`."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ArithmeticTypeError(f"unary '-' needs a number, got {value!r}")
    return -value


@functools.lru_cache(maxsize=512)
def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """The compiled regex of a ``LIKE`` pattern, as in SQLite: only ASCII
    letters fold case, and ``_``/``%`` match newlines too.  Memoized:
    LIKE re-evaluates per row, and workloads reuse a small set of
    patterns across thousands of rows."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile(
        r"\A" + "".join(out) + r"\Z", re.IGNORECASE | re.ASCII | re.DOTALL
    )


_ARITH_OPS = ("+", "-", "*", "/")


def binary_value(op: str, left: Any, right: Any) -> Any:
    """The value of ``left OP right`` for every binary operator but the
    short-circuiting ``AND``/``OR``: comparisons, arithmetic and
    ``LIKE``.  An unknown operator raises :class:`ExecutionError`."""
    if op == "=" or op == "!=" or op in _ORDER_TESTS:
        return compare3(op, left, right)
    if op in _ARITH_OPS:
        return arith(op, left, right)
    if op == "LIKE":
        if left is None or right is None:
            return None
        if not isinstance(left, str) or not isinstance(right, str):
            raise LikeTypeError("LIKE requires text operands")
        return bool(like_to_regex(right).match(left))
    raise ExecutionError(f"unknown operator {op!r}")


_ISO_DATE_KEY_RE = None


def hash_key(value: Any) -> Any:
    """Hashable canonical form of a value, consistent with :func:`values_equal`.

    Two non-NULL values are mapped to equal keys **iff** ``values_equal``
    would call them equal, which lets hash joins, secondary indexes and
    IN-probes use dict lookups without changing the engine's comparison
    semantics:

    - numerics collapse to ``float`` (``1`` == ``1.0``), but booleans stay
      a separate family (``TRUE`` != ``1``),
    - a DATE and an ISO ``'YYYY-MM-DD'`` string compare equal (the same
      implicit coercion :func:`values_equal` applies),
    - NaN never equals anything, including itself — it gets a per-call
      unique key so even identical NaN objects miss.

    ``None`` must be handled by the caller (NULL matches nothing).
    """
    global _ISO_DATE_KEY_RE
    if _ISO_DATE_KEY_RE is None:
        _ISO_DATE_KEY_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, float) and math.isnan(value):
        return ("nan", object())
    if isinstance(value, (int, float)):
        try:
            return ("n", float(value))
        except OverflowError:  # pragma: no cover - int beyond float range
            return ("n!", value)
    if isinstance(value, datetime.date):
        return ("d", value.isoformat())
    if isinstance(value, str):
        if _ISO_DATE_KEY_RE.match(value):
            try:
                return ("d", parse_date(value).isoformat())
            except TypeMismatchError:
                pass
        return ("t", value)
    return ("o", type(value).__name__, value)


def sort_key(value: Any) -> tuple:
    """Total-order key for ORDER BY: NULLs first, then by type group."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, float(value))
    if isinstance(value, datetime.date):
        return (3, value.toordinal())
    return (4, str(value))


def format_value(value: Any) -> str:
    """Render a value as a SQL literal (used by the AST pretty printer)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, datetime.date):
        return f"'{value.isoformat()}'"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float):
        return repr(value)
    return str(value)
