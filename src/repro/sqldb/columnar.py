"""Vectorized columnar execution path for the in-memory SQL engine.

The row executor (:mod:`~repro.sqldb.executor`) interprets expressions
one row at a time over Python tuples; at survey scale (§6's latency
discussion) that costs microseconds per row and makes million-row
analytics queries take seconds.  This module adds a columnar mirror of
each table — one NumPy array per column plus a validity (NULL) bitmap —
and compiles eligible WHERE clauses into **three-valued mask kernels**
evaluated array-at-a-time.

Design rules, in priority order:

1. **Byte-identity with the row path.**  Every result the columnar path
   produces must be indistinguishable — values, value *types*, row
   order, and raised exceptions — from ``Executor(db, use_planner=True,
   use_columnar=False)``.  The differential corpora in
   ``tests/test_sqldb_columnar.py`` enforce this.  Four techniques make
   it tractable:

   - predicates are vectorized only when the kernel provably mirrors
     :func:`~repro.sqldb.types.values_equal` /
     :func:`~repro.sqldb.types.values_compare` (numeric comparisons run
     in the same float64 domain the row path converts to; implicit
     ISO-date coercion is resolved once per literal at compile time),
     or run the row path's own rule once per distinct value of a
     dictionary-encoded text column and gather the verdicts by code;
   - all *output* values (projections, MIN/MAX results, list-path
     aggregate inputs, GROUP BY dict keys) are taken from the original
     row tuples, never round-tripped through NumPy, so object identity
     and bit patterns are preserved;
   - anything outside the supported envelope raises :class:`_Unsupported`
     at compile time and the query **falls back** to the row path, which
     then produces the canonical behaviour (including errors);
   - grouped blocks are not mirrored: the engine partitions the surviving
     rows and hands :class:`_GroupCtx` views, each a scope, to the
     executor's one expression evaluator, so HAVING, CASE, ORDER BY keys
     and every per-value rule (:mod:`repro.sqldb.types`) run the row
     path's code.  Only an aggregate over a local column is computed on
     the arrays.

2. **Three-valued logic as a pair of bool masks.**  Every kernel returns
   disjoint ``(true, unknown)`` arrays (FALSE is neither), and
   ``unknown`` is ``None`` when none of the columns it reads holds a NULL
   in the current store — so NOT NULL and NULL-free predicates cost
   plain bool ops.  The WHERE keep-mask is ``true`` itself — exactly the
   executor's ``_truthy``.

3. **Fixed serial steps.**  Masks are computed over consecutive
   ``_CHUNK_ROWS``-row spans, so no kernel temporary spans more than one
   step.

Known fallback triggers (documented in ``docs/architecture.md``): joins,
subqueries, index-eligible scans, NaN-containing float columns under
ordering comparisons, DATE↔TEXT column comparisons, arithmetic or scalar
functions inside WHERE, and non-literal IN items.
"""

from __future__ import annotations

import datetime
import math
from itertools import chain, repeat
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

try:  # pragma: no cover - the toolchain bakes numpy in
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

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
    Star,
    UnaryOp,
    WindowFunction,
)
from .executor import _Group, _Scope
from .types import DataType, compare3, iso_date_or_none, like_to_regex, values_equal

from ..perf.cache import LRUCache
from ..perf.profiler import profile_span

#: Rows per predicate-evaluation step.  On the million-row telemetry
#: table (2-vCPU VM, medians of 5 alternating processes per setting),
#: these steps vs one whole-table pass: ``range_count`` 3.06 vs 3.50 ms,
#: ``scan_agg`` 9.01 vs 9.86, ``ts_window`` 9.83 vs 10.29,
#: ``group_region`` 133.7 vs 132.5.
_CHUNK_ROWS = 131_072

_INT_SUM_LIMIT = 2**62


class _Unsupported(Exception):
    """Raised during compilation when a statement (or one operator in
    it) is outside the vectorized envelope; the engine falls back to the
    row path, which defines the canonical behaviour."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# Column storage
# ---------------------------------------------------------------------------


class ColumnData:
    """One column's typed array image.

    ``kind`` is one of ``int`` / ``float`` / ``bool`` / ``date`` /
    ``text`` (vectorizable) or ``other`` (only the NULL bitmap and the
    original Python values are available — IS NULL, COUNT and list-path
    aggregates still work).  A ``text`` column's ``values`` are int32
    codes into ``dictionary`` (its distinct values, the first-seen
    objects in first-seen order), -1 at NULL rows; ``_code_of`` maps a
    value to its code, for extension only.  Other ``values`` use a
    neutral fill (0 / 0.0 / False) at NULL positions; ``null`` is the
    validity complement.  ``pylist`` holds the *original* Python objects
    in row order — every value the engine outputs comes from here, never
    from the array.  Arrays are read-only and dictionaries never
    mutated: stores are shared by concurrent scans and kernels hand out
    views of them.

    Every fact derived from the data — the kind itself, the dictionary's
    order, ``has_null``, ``has_nan``, and ``int_sum_safe`` through
    ``abs_max`` — is monotone in the rows, which is what lets
    :func:`_concat` merge the images of two consecutive row ranges.
    """

    __slots__ = (
        "kind", "values", "null", "pylist", "has_null", "has_nan", "abs_max", "int_sum_safe",
        "dictionary", "_code_of", "_float_view", "_ranks",
    )

    def __init__(self, kind: str, values: Any, null: Any, pylist: List[Any], has_null: bool):
        if values is not None:
            values.flags.writeable = False
        null.flags.writeable = False
        self.kind = kind
        self.values = values
        self.null = null
        self.pylist = pylist
        self.has_null = has_null
        self.has_nan = False
        #: largest ``|value|`` of an ``int`` column (NULL fills count as 0)
        self.abs_max = 0
        self.int_sum_safe = False
        self.dictionary: List[str] = []
        self._code_of: Dict[str, int] = {}
        self._float_view: Any = None
        self._ranks: Any = None

    def nulls(self, lo: int, hi: int) -> Any:
        """The NULL bitmap over ``[lo, hi)``, or ``None`` when the column
        holds no NULL at all."""
        return self.null[lo:hi] if self.has_null else None

    def as_float(self) -> Any:
        """The value array in the float64 domain the row path compares
        numerics in (cached; float columns return themselves)."""
        if self.kind == "float":
            return self.values
        if self._float_view is None:
            view = self.values.astype(np.float64)
            view.flags.writeable = False
            self._float_view = view
        return self._float_view


def _rank_codes(*dictionaries: List[str]) -> List[Any]:
    """Per dictionary, each code's rank in the sorted union of all of
    them (comparing ranks compares the strings, as ``values_compare``
    does), then a 0 slot for NULL's -1 code."""
    union = sorted(set().union(*dictionaries))
    rank = dict(zip(union, range(len(union))))
    return [np.fromiter(chain(map(rank.__getitem__, d), [0]), np.int64) for d in dictionaries]


def _text_column(
    codes: Any, pylist: List[Any], dictionary: List[str], code_of: Dict[str, int]
) -> ColumnData:
    null = codes < 0
    col = ColumnData("text", codes, null, pylist, bool(null.any()))
    col.dictionary, col._code_of = dictionary, code_of
    return col


def _build_column(values: List[Any], dtype: DataType) -> ColumnData:
    """Convert one column's values (row order, NULL as ``None``)."""
    n = len(values)
    if dtype is DataType.TEXT:
        dictionary = [v for v in dict.fromkeys(values) if v is not None]
        code_of = dict(zip(dictionary, range(len(dictionary))))
        codes = np.fromiter(map(code_of.get, values, repeat(-1)), np.int32, n)
        return _text_column(codes, values, dictionary, code_of)
    null = np.fromiter((v is None for v in values), dtype=np.bool_, count=n)
    has_null = bool(null.any())
    if dtype is DataType.INTEGER:
        try:
            arr = np.fromiter(
                (0 if v is None else v for v in values), dtype=np.int64, count=n
            )
        except (OverflowError, TypeError):
            return ColumnData("other", None, null, values, has_null)
        col = ColumnData("int", arr, null, values, has_null)
        if n:
            col.abs_max = max(abs(int(arr.max())), abs(int(arr.min())))
        col.int_sum_safe = col.abs_max * n <= _INT_SUM_LIMIT
        return col
    if dtype is DataType.FLOAT:
        arr = np.fromiter(
            (0.0 if v is None else v for v in values), dtype=np.float64, count=n
        )
        col = ColumnData("float", arr, null, values, has_null)
        col.has_nan = bool(np.isnan(arr).any())
        return col
    if dtype is DataType.BOOLEAN:
        arr = np.fromiter(
            (False if v is None else v for v in values), dtype=np.bool_, count=n
        )
        return ColumnData("bool", arr, null, values, has_null)
    if dtype is DataType.DATE:
        arr = np.fromiter(
            (0 if v is None else v.toordinal() for v in values), dtype=np.int64, count=n
        )
        return ColumnData("date", arr, null, values, has_null)
    return ColumnData("other", None, null, values, has_null)  # pragma: no cover


def _concat(head: ColumnData, tail: ColumnData) -> ColumnData:
    """The image of ``head``'s rows followed by ``tail``'s — exactly what
    :func:`_build_column` returns for both value lists at once.

    The merge rule never revisits ``head``'s values: a part demoted to
    ``other`` demotes the whole column, NULL and NaN presence are ORs and
    the integer bound a max.  The tail's text codes are remapped
    through ``head``'s map and its fresh values appended to a copy of the
    dictionary (copied only when there are any, else the rank cache
    carries over), so codes, dictionary and the entries' identity equal a
    one-shot build.  Only ``int_sum_safe``, which also depends on the
    total row count, is recomputed.
    """
    pylist = head.pylist + tail.pylist
    if head.kind == "text":
        dictionary, code_of = head.dictionary, head._code_of
        fresh = [v for v in tail.dictionary if v not in code_of]
        if fresh:
            code_of = dict(code_of)
            code_of.update(zip(fresh, range(len(dictionary), len(dictionary) + len(fresh))))
            dictionary = dictionary + fresh
        remap = np.fromiter(chain(map(code_of.__getitem__, tail.dictionary), [-1]), np.int32)
        codes = np.concatenate((head.values, remap[tail.values]))
        col = _text_column(codes, pylist, dictionary, code_of)
        col._ranks = None if fresh else head._ranks
        return col
    null = np.concatenate((head.null, tail.null))
    has_null = head.has_null or tail.has_null
    if "other" in (head.kind, tail.kind):
        return ColumnData("other", None, null, pylist, has_null)
    n = len(pylist)
    col = ColumnData(head.kind, np.concatenate((head.values, tail.values)), null, pylist, has_null)
    col.has_nan = head.has_nan or tail.has_nan
    if col.kind == "int":
        col.abs_max = max(head.abs_max, tail.abs_max)
        col.int_sum_safe = col.abs_max * n <= _INT_SUM_LIMIT
    return col


class ColumnStore:
    """Columnar image of one table's row prefix ``rows[:n_rows]``.

    Immutable once built: :meth:`extended` returns a new store covering
    a longer prefix and leaves this one — and any scan still reading it —
    untouched.  :meth:`repro.sqldb.table.Table.column_store` publishes
    the current one.
    """

    __slots__ = ("n_rows", "cols", "column_names")

    def __init__(self, n_rows: int, cols: List[ColumnData], names: List[str]):
        self.n_rows = n_rows
        self.cols = cols
        self.column_names = names

    @classmethod
    def empty(cls, schema: Any) -> "ColumnStore":
        """The image of no rows, which every store is extended from."""
        if np is None:  # pragma: no cover - numpy is baked into the image
            raise RuntimeError("numpy is required for the columnar store")
        cols = [_build_column([], column.dtype) for column in schema.columns]
        return cls(0, cols, list(schema.column_names))

    def extended(self, schema: Any, tail: Sequence[Tuple[Any, ...]]) -> "ColumnStore":
        """The image of this store's rows followed by the ``tail`` rows;
        only the tail is converted."""
        cols = [
            _concat(col, _build_column([row[j] for row in tail], column.dtype))
            for j, (col, column) in enumerate(zip(self.cols, schema.columns))
        ]
        return ColumnStore(self.n_rows + len(tail), cols, self.column_names)


# ---------------------------------------------------------------------------
# Compiled predicate kernels
# ---------------------------------------------------------------------------

#: A kernel's verdict over ``[lo, hi)``: two disjoint bool arrays
#: ``(true, unknown)``; FALSE is neither.  ``unknown`` is ``None`` when no
#: row can be UNKNOWN, so NULL-free predicates cost plain bool ops.
Mask = Tuple[Any, Optional[Any]]


class _Kernel:
    """A compiled WHERE (sub)expression.  Kernels never write into the
    arrays they are given or return: outputs may be views of the store."""

    __slots__ = ()

    def eval(self, store: ColumnStore, lo: int, hi: int) -> Mask:  # pragma: no cover
        raise NotImplementedError


def _nulls(store: ColumnStore, js: Sequence[int], lo: int, hi: int) -> Any:
    """Rows of ``[lo, hi)`` where any column of ``js`` is NULL, or ``None``
    when none of them holds a NULL anywhere in the store."""
    out = None
    for j in js:
        null = store.cols[j].nulls(lo, hi)
        if null is not None:
            out = null if out is None else out | null
    return out


def _masked(truth: Any, unknown: Any) -> Mask:
    """The verdict of a value test whose ``truth`` array is meaningless at
    the ``unknown`` rows (NULL slots hold fill values)."""
    if unknown is None:
        return truth, None
    return truth & ~unknown, unknown


class _Const(_Kernel):
    """A literal in boolean position: the row path's ``_bool3(value)``,
    with ``None`` for UNKNOWN."""

    __slots__ = ("value",)

    def __init__(self, value: Optional[bool]):
        self.value = value

    def eval(self, store: ColumnStore, lo: int, hi: int) -> Mask:
        if self.value is None:
            return np.zeros(hi - lo, dtype=np.bool_), np.ones(hi - lo, dtype=np.bool_)
        return np.full(hi - lo, self.value, dtype=np.bool_), None


class _FixedNonNull(_Kernel):
    """Comparison whose verdict is constant for every non-NULL row
    (cross-family comparisons: ``values_equal`` says False, ordering says
    incomparable) but UNKNOWN where any referenced column is NULL."""

    __slots__ = ("js", "verdict")

    def __init__(self, js: Sequence[int], verdict: bool):
        self.js = tuple(js)
        self.verdict = verdict

    def eval(self, store: ColumnStore, lo: int, hi: int) -> Mask:
        truth = np.full(hi - lo, self.verdict, dtype=np.bool_)
        return _masked(truth, _nulls(store, self.js, lo, hi))


class _Truthy(_Kernel):
    """A bare non-text column in boolean position — ``_bool3`` of the
    value."""

    __slots__ = ("j",)

    def __init__(self, j: int):
        self.j = j

    def eval(self, store: ColumnStore, lo: int, hi: int) -> Mask:
        col = store.cols[self.j]
        if col.kind == "date":
            truth = np.ones(hi - lo, dtype=np.bool_)  # dates are always truthy
        elif col.kind == "bool":
            truth = col.values[lo:hi]
        else:
            truth = col.values[lo:hi] != 0  # NaN != 0 is True, matching bool(nan)
        return _masked(truth, col.nulls(lo, hi))


class _IsNullPred(_Kernel):
    """``IS [NOT] NULL`` — the one NULL test that yields a plain bool."""

    __slots__ = ("j", "negated")

    def __init__(self, j: int, negated: bool):
        self.j = j
        self.negated = negated

    def eval(self, store: ColumnStore, lo: int, hi: int) -> Mask:
        null = store.cols[self.j].null[lo:hi]
        return (~null if self.negated else null), None


_CMP_FUNCS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class _CmpColLit(_Kernel):
    """``col OP literal`` within one comparable domain.

    ``domain`` selects the array view: ``num`` compares in float64 (the
    row path converts both sides with ``float()``), ``date`` compares
    proleptic ordinals, ``bool`` compares natively.
    """

    __slots__ = ("j", "op", "rhs", "domain")

    def __init__(self, j: int, op: str, rhs: Any, domain: str):
        self.j = j
        self.op = op
        self.rhs = rhs
        self.domain = domain

    def eval(self, store: ColumnStore, lo: int, hi: int) -> Mask:
        col = store.cols[self.j]
        if self.domain == "num":
            lhs = col.as_float()[lo:hi]
        else:
            lhs = col.values[lo:hi]
        return _masked(_CMP_FUNCS[self.op](lhs, self.rhs), col.nulls(lo, hi))


class _CmpColCol(_Kernel):
    """``col OP col`` within one comparable domain; NULL on either side
    makes the comparison UNKNOWN.  Text columns compare ranks in the
    sorted union of both dictionaries, computed once per pair of them."""

    __slots__ = ("jl", "jr", "op", "domain", "_ranks")

    def __init__(self, jl: int, jr: int, op: str, domain: str):
        self.jl = jl
        self.jr = jr
        self.op = op
        self.domain = domain
        self._ranks: Any = None

    def eval(self, store: ColumnStore, lo: int, hi: int) -> Mask:
        cl, cr = store.cols[self.jl], store.cols[self.jr]
        if self.domain == "num":
            lhs, rhs = cl.as_float()[lo:hi], cr.as_float()[lo:hi]
        elif self.domain == "text":
            key = (cl.dictionary, cr.dictionary)
            if self._ranks is None or self._ranks[0] != key:
                self._ranks = (key, _rank_codes(*key))
            ranks = self._ranks[1]
            lhs, rhs = ranks[0][cl.values[lo:hi]], ranks[1][cr.values[lo:hi]]
        else:
            lhs, rhs = cl.values[lo:hi], cr.values[lo:hi]
        truth = _CMP_FUNCS[self.op](lhs, rhs)
        return _masked(truth, _nulls(store, (self.jl, self.jr), lo, hi))


class _ValuePred(_Kernel):
    """A text-column predicate: ``test``, the row path's own rule for a
    non-NULL value, runs once per dictionary entry and scan, and the
    verdicts are gathered by code.  NULL's -1 code gathers the trailing
    ``False``; NULL rows are UNKNOWN."""

    __slots__ = ("j", "test", "_verdicts")

    def __init__(self, j: int, test: Callable[[str], bool]):
        self.j = j
        self.test = test
        self._verdicts: Any = None

    def eval(self, store: ColumnStore, lo: int, hi: int) -> Mask:
        col = store.cols[self.j]
        verdicts = self._verdicts
        # A scan's first step computes the verdicts and its later steps
        # reuse them, so no verdict outlives the scan that computed it.
        if lo == 0 or verdicts is None or verdicts[0] is not col.dictionary:
            truth = np.fromiter(chain(map(self.test, col.dictionary), [False]), np.bool_)
            verdicts = self._verdicts = (col.dictionary, truth)
        return verdicts[1][col.values[lo:hi]], col.nulls(lo, hi)


class _NotPred(_Kernel):
    __slots__ = ("child",)

    def __init__(self, child: _Kernel):
        self.child = child

    def eval(self, store: ColumnStore, lo: int, hi: int) -> Mask:
        truth, unknown = self.child.eval(store, lo, hi)
        if unknown is None:
            return ~truth, None
        return ~(truth | unknown), unknown


class _AndPred(_Kernel):
    __slots__ = ("left", "right")

    def __init__(self, left: _Kernel, right: _Kernel):
        self.left = left
        self.right = right

    def eval(self, store: ColumnStore, lo: int, hi: int) -> Mask:
        lt, lu = self.left.eval(store, lo, hi)
        rt, ru = self.right.eval(store, lo, hi)
        truth = lt & rt
        # UNKNOWN where neither side is FALSE and not both are TRUE.
        if lu is None:
            return truth, None if ru is None else lt & ru
        if ru is None:
            return truth, lu & rt
        return truth, (lt | lu) & (rt | ru) & ~truth


class _OrPred(_Kernel):
    __slots__ = ("left", "right")

    def __init__(self, left: _Kernel, right: _Kernel):
        self.left = left
        self.right = right

    def eval(self, store: ColumnStore, lo: int, hi: int) -> Mask:
        lt, lu = self.left.eval(store, lo, hi)
        rt, ru = self.right.eval(store, lo, hi)
        truth = lt | rt
        # UNKNOWN where either side is UNKNOWN and neither is TRUE.
        if lu is None:
            return truth, None if ru is None else ru & ~lt
        if ru is None:
            return truth, lu & ~rt
        return truth, (lu | ru) & ~truth


# ---------------------------------------------------------------------------
# WHERE compiler
# ---------------------------------------------------------------------------

_MIRRORED_OP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_ORDER_OPS = ("<", "<=", ">", ">=")
_VALUE_KINDS = ("int", "float", "bool", "date", "text")


def _local_col(ref: ColumnRef, schema: Any, binding: str) -> int:
    """Position of ``ref`` in the scanned table, or :class:`_Unsupported`:
    a reference to another binding, or one that may be a correlated outer
    reference (or an error), is resolved by the row path's walk."""
    if ref.table is not None and ref.table.lower() != binding:
        raise _Unsupported(f"column {ref.to_sql()!r} is outside the scanned table")
    if ref.column not in schema:
        raise _Unsupported(f"column {ref.to_sql()!r} does not resolve locally")
    return schema.column_index(ref.column)


def _stmt_exprs(stmt: SelectStatement):
    """Every expression root of a single-block statement, in clause order."""
    for item in stmt.select_items:
        yield item.expr
    if stmt.where is not None:
        yield stmt.where
    for expr in stmt.group_by:
        yield expr
    if stmt.having is not None:
        yield stmt.having
    for order in stmt.order_by:
        yield order.expr


class _WhereCompiler:
    """Compiles a WHERE expression into a mask-kernel tree, or raises
    :class:`_Unsupported` naming the first operator outside the envelope."""

    def __init__(self, store: ColumnStore, schema: Any, binding: str):
        self.store = store
        self.schema = schema
        self.binding = binding

    def compile(self, expr: Expr) -> _Kernel:
        return self._expr(expr)

    # -- resolution ---------------------------------------------------------

    def _value_col(self, ref: ColumnRef) -> int:
        j = _local_col(ref, self.schema, self.binding)
        if self.store.cols[j].kind not in _VALUE_KINDS:
            raise _Unsupported(f"column {ref.column!r} has no vectorizable storage")
        return j

    # -- expression dispatch ------------------------------------------------

    def _expr(self, expr: Expr) -> _Kernel:
        if isinstance(expr, Literal):
            return _Const(None if expr.value is None else bool(expr.value))
        if isinstance(expr, ColumnRef):
            j = self._value_col(expr)
            if self.store.cols[j].kind == "text":
                return _ValuePred(j, bool)
            return _Truthy(j)
        if isinstance(expr, UnaryOp):
            if expr.op.upper() == "NOT":
                return _NotPred(self._expr(expr.operand))
            raise _Unsupported("arithmetic in WHERE")
        if isinstance(expr, BinaryOp):
            op = expr.op
            if op == "AND":
                return _AndPred(self._expr(expr.left), self._expr(expr.right))
            if op == "OR":
                return _OrPred(self._expr(expr.left), self._expr(expr.right))
            if op in _CMP_FUNCS:
                return self._cmp(op, expr.left, expr.right)
            if op == "LIKE":
                return self._like(expr.left, expr.right)
            raise _Unsupported(f"operator {op!r} in WHERE")
        if isinstance(expr, IsNull):
            if isinstance(expr.operand, ColumnRef):
                j = _local_col(expr.operand, self.schema, self.binding)
                return _IsNullPred(j, expr.negated)
            if isinstance(expr.operand, Literal):
                is_null = expr.operand.value is None
                return _Const((not is_null) if expr.negated else is_null)
            raise _Unsupported("IS NULL over a computed expression")
        if isinstance(expr, Between):
            low = self._cmp(">=", expr.operand, expr.low)
            high = self._cmp("<=", expr.operand, expr.high)
            node: _Kernel = _AndPred(low, high)
            return _NotPred(node) if expr.negated else node
        if isinstance(expr, InList):
            return self._in_list(expr)
        if isinstance(expr, CaseExpr):
            raise _Unsupported("CASE expression in WHERE")
        raise _Unsupported(f"{type(expr).__name__} in WHERE")

    def _cmp(self, op: str, left: Expr, right: Expr) -> _Kernel:
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            return self._col_lit(op, left, right.value)
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            return self._col_lit(_MIRRORED_OP[op], right, left.value)
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            return self._col_col(op, left, right)
        if isinstance(left, Literal) and isinstance(right, Literal):
            return _Const(compare3(op, left.value, right.value))
        raise _Unsupported("comparison over computed expressions")

    def _col_lit(self, op: str, ref: ColumnRef, lit: Any) -> _Kernel:
        j = self._value_col(ref)
        col = self.store.cols[j]
        kind = col.kind
        if lit is None:
            return _Const(None)
        if kind == "text":
            return _ValuePred(j, lambda v: compare3(op, v, lit) is True)
        mismatch = op == "!="
        if isinstance(lit, bool):
            if kind == "bool":
                return _CmpColLit(j, op, lit, "bool")
            return _FixedNonNull((j,), mismatch)
        if isinstance(lit, (int, float)):
            if isinstance(lit, float) and math.isnan(lit):
                raise _Unsupported("NaN literal")
            if kind in ("int", "float"):
                if op in _ORDER_OPS and kind == "float" and col.has_nan:
                    # values_compare treats NaN as equal-to-everything
                    # (compares false both ways); NumPy says false. Only
                    # the row path reproduces the former.
                    raise _Unsupported(
                        f"ordering comparison on NaN-containing column {ref.column!r}"
                    )
                try:
                    rhs = float(lit)
                except OverflowError:
                    raise _Unsupported("integer literal beyond float range") from None
                return _CmpColLit(j, op, rhs, "num")
            return _FixedNonNull((j,), mismatch)
        if isinstance(lit, str):
            lit = iso_date_or_none(lit) or lit  # ISO-date text meets a DATE as a date
        if isinstance(lit, datetime.date) and kind == "date":
            return _CmpColLit(j, op, lit.toordinal(), "date")
        if isinstance(lit, (str, datetime.date)):
            return _FixedNonNull((j,), mismatch)
        raise _Unsupported(f"literal {lit!r} in comparison")

    def _col_col(self, op: str, left: ColumnRef, right: ColumnRef) -> _Kernel:
        jl, jr = self._value_col(left), self._value_col(right)
        cl, cr = self.store.cols[jl], self.store.cols[jr]
        kl, kr = cl.kind, cr.kind
        numeric = ("int", "float")
        if kl in numeric and kr in numeric:
            if op in _ORDER_OPS and (cl.has_nan or cr.has_nan):
                raise _Unsupported("ordering comparison on NaN-containing column")
            return _CmpColCol(jl, jr, op, "num")
        if kl == kr and kl in ("bool", "text", "date"):
            return _CmpColCol(jl, jr, op, kl)
        if (kl, kr) in (("date", "text"), ("text", "date")):
            raise _Unsupported("DATE/TEXT column comparison needs per-row coercion")
        return _FixedNonNull((jl, jr), op == "!=")

    def _like(self, left: Expr, right: Expr) -> _Kernel:
        if (
            isinstance(left, ColumnRef)
            and isinstance(right, Literal)
            and isinstance(right.value, str)
        ):
            j = _local_col(left, self.schema, self.binding)
            if self.store.cols[j].kind == "text":
                match = like_to_regex(right.value).match
                return _ValuePred(j, lambda v: match(v) is not None)
            # Non-text columns raise LikeTypeError per row (but only for
            # rows actually reached) — row-path territory.
        raise _Unsupported("LIKE outside text-column-vs-pattern form")

    def _in_list(self, expr: InList) -> _Kernel:
        if not isinstance(expr.operand, ColumnRef):
            raise _Unsupported("IN over a computed operand")
        for item in expr.items:
            if not isinstance(item, Literal):
                raise _Unsupported("non-literal IN list item")
        j = self._value_col(expr.operand)
        saw_null = any(item.value is None for item in expr.items)
        values = [item.value for item in expr.items if item.value is not None]
        node: Optional[_Kernel] = None
        if self.store.cols[j].kind == "text":
            node = _ValuePred(j, lambda v: any(values_equal(v, item) for item in values))
        else:
            for value in values:
                eq = self._col_lit("=", expr.operand, value)
                node = eq if node is None else _OrPred(node, eq)
            if node is None:
                # No non-NULL items: never a hit, so the verdict is UNKNOWN
                # for a NULL probe (or when the list held a NULL), else FALSE.
                node = _FixedNonNull((j,), False)
        if saw_null:
            node = _OrPred(node, _Const(None))
        return _NotPred(node) if expr.negated else node


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


_NO_FAST = object()  # sentinel: no exact vectorized aggregate, use the list path


class _CompiledQuery:
    """One statement's vectorized execution recipe.

    ``group_js`` is ``None`` for a whole-table aggregate (one group) and
    a list of column positions for GROUP BY keys.  ``fast_items`` /
    ``fast_order`` hold gather instructions — ``("col", j)``,
    ``("lit", value)``, ``("star",)``, ``("star_skip",)`` — when every
    projection and ORDER BY expression is a plain column/literal;
    otherwise they are ``None`` and surviving rows are projected through
    the row path's evaluator (identical results, including errors).
    """

    __slots__ = (
        "table", "binding", "pred", "grouped", "group_js", "fast_items", "fast_order",
    )

    def __init__(
        self,
        table: Any,
        binding: str,
        pred: Optional[_Kernel],
        grouped: bool,
        group_js: Any,
        fast_items: Any,
        fast_order: Any,
    ):
        self.table = table
        self.binding = binding
        self.pred = pred
        self.grouped = grouped
        self.group_js = group_js
        self.fast_items = fast_items
        self.fast_order = fast_order


class _GroupCtx(_Group):
    """One group of the vectorized path: its ascending row indices into
    the store.  An aggregate over a local column runs on the arrays,
    gathered once per column; any other aggregate argument is evaluated
    over member scopes, built on first use.  The representative scope is
    the first member's row, or the all-NULL row for the one empty group."""

    __slots__ = ("binding", "store", "schema", "rows_list", "gidx", "parent", "_present")

    def __init__(
        self,
        binding: str,
        store: ColumnStore,
        schema: Any,
        rows_list: List[tuple],
        gidx: Any,
        parent: Optional[_Scope],
    ):
        super().__init__([])
        self.size = int(gidx.size)
        self.binding = binding
        self.store = store
        self.schema = schema
        self.rows_list = rows_list
        self.gidx = gidx
        self.parent = parent
        self._present: Dict[int, Tuple[Any, Any]] = {}

    def _scope(self, row: tuple) -> _Scope:
        return _Scope([(self.binding, self.schema, row)], self.parent)

    def rep(self) -> _Scope:
        if self._rep is None:
            if self.size:
                self._rep = self._scope(self.rows_list[int(self.gidx[0])])
            else:
                self._rep = self._scope((None,) * len(self.schema))
        return self._rep

    def aggregate(self, executor: Any, call: FuncCall, func: Callable[..., Any]) -> Any:
        arg = call.args[0]
        j: Optional[int] = None
        if isinstance(arg, ColumnRef):
            try:
                j = _local_col(arg, self.schema, self.binding)
            except _Unsupported:
                pass  # an outer column: the member scopes resolve it
        if j is not None:
            result = self._fast_aggregate(call.name.lower(), call.distinct, j)
            if result is not _NO_FAST:
                return result
            pylist = self.store.cols[j].pylist
            return func([pylist[i] for i in self.gidx.tolist()], distinct=call.distinct)
        if not self.members:
            self.members = [self._scope(self.rows_list[i]) for i in self.gidx.tolist()]
        return super().aggregate(executor, call, func)

    def _present_values(self, j: int) -> Tuple[Any, Any]:
        """Column ``j``'s non-NULL member rows and its array values there,
        gathered on first use."""
        if j not in self._present:
            col, gidx = self.store.cols[j], self.gidx
            nn_idx = gidx[~col.null[gidx]] if col.has_null else gidx
            self._present[j] = (nn_idx, None if col.values is None else col.values[nn_idx])
        return self._present[j]

    def _fast_aggregate(self, name: str, distinct: bool, j: int) -> Any:
        """Vectorized aggregate when provably exact, else ``_NO_FAST``.

        Float SUM/AVG always take the list path: ``np.sum`` uses pairwise
        summation whose rounding differs from the row path's sequential
        ``sum()`` in the last bits.
        """
        col = self.store.cols[j]
        if name == "count" and not distinct:
            return int(self._present_values(j)[0].size)
        if distinct:
            return _NO_FAST
        if name in ("sum", "avg"):
            if col.kind != "int" or not col.int_sum_safe:
                return _NO_FAST
            nn_idx, values = self._present_values(j)
            if nn_idx.size == 0:
                return None
            # int_sum_safe bounds |subset sum| within int64.
            total = int(values.sum())
            if name == "sum":
                return total
            return total / int(nn_idx.size)
        if name in ("min", "max"):
            if col.kind == "other" or (col.kind == "float" and col.has_nan):
                return _NO_FAST
            nn_idx, values = self._present_values(j)
            if nn_idx.size == 0:
                return None
            if col.kind == "text":
                if col._ranks is None:
                    col._ranks = _rank_codes(col.dictionary)[0]
                values = col._ranks[values]
            pos = int(np.argmin(values) if name == "min" else np.argmax(values))
            # argmin/argmax return the first extreme position, same as
            # Python's min/max; the original object is returned.
            return col.pylist[int(nn_idx[pos])]
        return _NO_FAST


class ColumnarEngine:
    """Vectorized single-table execution behind the planning executor.

    Created lazily by :class:`~repro.sqldb.executor.Executor` when
    ``use_columnar`` is on; :meth:`try_execute` either claims a statement
    (returning projected rows byte-identical to the row path) or returns
    ``None``, in which case the executor proceeds down the row path.
    """

    def __init__(self, executor: Any):
        if np is None:
            raise RuntimeError("numpy is required for the columnar engine")
        self._ex = executor
        #: why the last statement fell back (``None`` when it was claimed)
        self.last_fallback: Optional[str] = None
        self._cache = LRUCache(256)
        self._cache_version = executor.database.data_version

    # -- public surface -----------------------------------------------------

    def try_execute(
        self, stmt: SelectStatement, plan: Any, parent: Any
    ) -> Optional[Tuple[List[tuple], List[tuple], List[str]]]:
        """Vectorized ``(rows, order_rows, columns)`` for ``stmt``, or
        ``None`` when the statement is outside the supported envelope."""
        compiled = self._compiled(stmt, plan)
        if isinstance(compiled, str):
            self.last_fallback = compiled
            return None
        self.last_fallback = None
        ex = self._ex
        table = ex.database.table(compiled.table)
        store = table.column_store()
        n = store.n_rows
        with profile_span("columnar-scan"):
            if compiled.pred is None:
                idx = np.arange(n, dtype=np.int64)
            else:
                idx = self._filter(store, compiled.pred, n)
        stats = ex._stats
        stats.full_scans += 1
        stats.rows_scanned += n
        stats.vectorized += 1
        rows_list = table.rows
        if compiled.grouped:
            with profile_span("columnar-group"):
                groups = [
                    _GroupCtx(compiled.binding, store, table.schema, rows_list, gidx, parent)
                    for gidx in self._group_indices(compiled, store, idx)
                ]
            with profile_span("columnar-aggregate"):
                rows, order_rows = ex._project_groups(stmt, groups)
        elif compiled.fast_items is not None:
            with profile_span("columnar-project"):
                rows, order_rows = self._fast_gather(compiled, rows_list, idx)
        else:
            with profile_span("columnar-project"):
                scopes = [
                    _Scope([(compiled.binding, table.schema, rows_list[i])], parent)
                    for i in idx.tolist()
                ]
                rows, order_rows = ex._project_rows(stmt, scopes)
        columns = ex._output_columns(stmt, [])
        return rows, order_rows, columns

    def describe(self, stmt: SelectStatement, plan: Any) -> str:
        """One EXPLAIN line: the vectorized shape, or the fallback reason."""
        compiled = self._compiled(stmt, plan)
        if isinstance(compiled, str):
            return f"columnar: row path ({compiled})"
        bits = ["scan"]
        if compiled.pred is not None:
            bits.append("filter")
        if compiled.grouped:
            bits.append("group" if compiled.group_js else "aggregate")
        elif compiled.fast_items is not None:
            bits.append("project")
        else:
            bits.append("project(row-eval)")
        return f"columnar: vectorized {'+'.join(bits)}"

    # -- compilation --------------------------------------------------------

    def _compiled(self, stmt: SelectStatement, plan: Any) -> Any:
        """Cached compile result: a :class:`_CompiledQuery`, or the
        fallback reason as a string."""
        db = self._ex.database
        if db.data_version != self._cache_version:
            # Data changes can flip data-dependent eligibility (NaN
            # presence, integer sum bounds, an INTEGER past int64).
            self._cache.clear()
            self._cache_version = db.data_version
        entry = self._cache.get(id(stmt))
        if entry is not None and entry[0] is stmt:
            return entry[1]
        try:
            result: Any = self._compile(stmt, plan)
        except _Unsupported as unsupported:
            result = unsupported.reason
        except Exception as exc:  # any surprise → canonical row path
            result = f"compile abandoned ({type(exc).__name__})"
        self._cache.put(id(stmt), (stmt, result))
        return result

    def _compile(self, stmt: SelectStatement, plan: Any) -> _CompiledQuery:
        if stmt.from_table is None:
            raise _Unsupported("no FROM clause")
        if stmt.joins:
            raise _Unsupported("join")
        if stmt.subqueries():
            raise _Unsupported("subquery")
        if plan.base is None:
            raise _Unsupported("no base scan")
        if plan.base.index_column is not None:
            # The planner found an index-answerable equality/IN; the
            # index lookup reads fewer rows than any full scan.
            raise _Unsupported("index scan preferred")
        for root in _stmt_exprs(stmt):
            for node in root.walk():
                if isinstance(node, WindowFunction):
                    # Windows need the full post-filter row set in order;
                    # the row path owns partition/frame evaluation.
                    raise _Unsupported("window function")
        ex = self._ex
        table = ex.database.table(stmt.from_table.table)
        store = table.column_store()
        schema = table.schema
        binding = stmt.from_table.binding.lower()
        pred = None
        if stmt.where is not None:
            pred = _WhereCompiler(store, schema, binding).compile(stmt.where)
        grouped = stmt.is_grouped()
        group_js = None
        fast_items = fast_order = None
        if grouped:
            if stmt.group_by:
                group_js = []
                for expr in stmt.group_by:
                    if not isinstance(expr, ColumnRef):
                        raise _Unsupported("computed GROUP BY key")
                    group_js.append(_local_col(expr, schema, binding))
        else:
            fast_items, fast_order = self._fast_projection(stmt, schema, binding)
        return _CompiledQuery(
            table.name, binding, pred, grouped, group_js, fast_items, fast_order
        )

    def _fast_projection(
        self, stmt: SelectStatement, schema: Any, binding: str
    ) -> Tuple[Optional[List[tuple]], Optional[List[tuple]]]:
        """Gather instructions when every output is a column/literal;
        ``(None, None)`` sends survivors through ``_project_rows``."""
        items: List[tuple] = []
        for item in stmt.select_items:
            expr = item.expr
            if isinstance(expr, Star):
                if expr.table is not None and expr.table.lower() != binding:
                    # Contributes no values; _output_columns later raises
                    # UnknownTableError exactly as the row path does.
                    items.append(("star_skip",))
                else:
                    items.append(("star",))
            elif isinstance(expr, ColumnRef):
                if (expr.table is not None and expr.table.lower() != binding) or (
                    expr.column not in schema
                ):
                    return None, None  # correlated or erroneous: row path
                items.append(("col", schema.column_index(expr.column)))
            elif isinstance(expr, Literal):
                items.append(("lit", expr.value))
            else:
                return None, None
        order_items: List[tuple] = []
        alias_map = self._ex._alias_exprs(stmt)
        for order in stmt.order_by:
            expr = self._ex._substitute_alias(order.expr, alias_map)
            if isinstance(expr, ColumnRef):
                if (expr.table is not None and expr.table.lower() != binding) or (
                    expr.column not in schema
                ):
                    return None, None
                order_items.append(("col", schema.column_index(expr.column)))
            elif isinstance(expr, Literal):
                order_items.append(("lit", expr.value))
            else:
                return None, None
        return items, order_items

    # -- scanning -----------------------------------------------------------

    def _filter(self, store: ColumnStore, pred: _Kernel, n: int) -> Any:
        """Ascending indices of the rows where ``pred`` is TRUE, evaluated
        in ``_CHUNK_ROWS`` steps (an empty table is one empty step)."""
        keeps = [
            pred.eval(store, lo, min(lo + _CHUNK_ROWS, n))[0]
            for lo in range(0, max(n, 1), _CHUNK_ROWS)
        ]
        return np.flatnonzero(keeps[0] if len(keeps) == 1 else np.concatenate(keeps))

    # -- projection ---------------------------------------------------------

    def _fast_gather(
        self, compiled: _CompiledQuery, rows_list: List[tuple], idx: Any
    ) -> Tuple[List[tuple], List[tuple]]:
        items = compiled.fast_items
        order_items = compiled.fast_order
        idx_list = idx.tolist()
        if not order_items:
            # The hot shapes: SELECT * and SELECT col, ...
            if len(items) == 1 and items[0][0] == "star":
                rows = [rows_list[i] for i in idx_list]
                return rows, [()] * len(rows)
            if items and all(tag[0] == "col" for tag in items):
                if len(items) == 1:
                    j = items[0][1]
                    rows = [(rows_list[i][j],) for i in idx_list]
                else:
                    js = [tag[1] for tag in items]
                    rows = [tuple(rows_list[i][j] for j in js) for i in idx_list]
                return rows, [()] * len(rows)
        rows = []
        order_rows = []
        for i in idx_list:
            row = rows_list[i]
            out: List[Any] = []
            for tag in items:
                kind = tag[0]
                if kind == "col":
                    out.append(row[tag[1]])
                elif kind == "star":
                    out.extend(row)
                elif kind == "lit":
                    out.append(tag[1])
                # "star_skip" contributes nothing
            rows.append(tuple(out))
            order_rows.append(
                tuple(
                    row[tag[1]] if tag[0] == "col" else tag[1] for tag in order_items
                )
            )
        return rows, order_rows

    # -- grouped execution --------------------------------------------------

    def _group_indices(
        self, compiled: _CompiledQuery, store: ColumnStore, idx: Any
    ) -> List[Any]:
        """Partition surviving row indices into groups, each an ascending
        int64 array, in first-occurrence order — exactly the insertion
        order of the row path's group dict."""
        js = compiled.group_js
        if js is None:
            return [idx]
        if len(js) == 1:
            col = store.cols[js[0]]
            if col.kind in ("int", "bool", "date", "text") or (
                col.kind == "float" and not col.has_nan
            ):
                return self._group_single_fast(col, idx)
        # Dict path over the original Python values: key equality/hashing
        # is then *identical* to the row path (including NaN's
        # never-equal-to-itself identity buckets).
        pylists = [store.cols[j].pylist for j in js]
        groups: Dict[tuple, List[int]] = {}
        for i in idx.tolist():
            groups.setdefault(tuple(values[i] for values in pylists), []).append(i)
        return [np.array(members, dtype=np.int64) for members in groups.values()]

    def _group_single_fast(self, col: ColumnData, idx: Any) -> List[Any]:
        """Single-key grouping: one stable argsort of the key array, cut
        where the key changes.  NULLs form their own group: a text
        column's NULL code -1 is a key of its own, other kinds hold a fill
        value there, so their NULL rows are split off first.  Groups come
        back ordered by first member and members stay in ascending row
        order, matching the dict path bit for bit."""
        keys = col.values[idx]
        null_idx = idx[:0]
        if col.kind == "text":
            if len(col.dictionary) < 2**15:
                keys = keys.astype(np.int16)  # NumPy radix-sorts 16-bit keys
        elif col.has_null:
            null_sel = col.null[idx]
            null_idx = idx[null_sel]
            idx, keys = idx[~null_sel], keys[~null_sel]
        order = np.argsort(keys, kind="stable")
        members = idx[order]
        keys = keys[order]
        cuts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
        groups = np.split(members, cuts) if members.size else []
        firsts = members[np.concatenate(([0], cuts))] if members.size else members
        if null_idx.size:
            groups.append(null_idx)
            firsts = np.append(firsts, null_idx[0])
        return [groups[g] for g in np.argsort(firsts).tolist()]
