"""Exception hierarchy for the in-memory SQL engine.

Every error raised by :mod:`repro.sqldb` derives from :class:`SqlError`,
so callers (e.g. the NLIDB evaluation harness, which must not crash when a
system emits malformed SQL) can catch a single base class.  ``SqlError``
itself derives from :class:`repro.errors.ReproError`, which contributes
the stable ``code`` attribute shared with the static analyzer
(:mod:`repro.sqldb.analyzer`): each analyzer diagnostic code is the
``code`` of exactly one exception class here, so a statement rejected
statically with code ``SQL211`` is the same failure the executor would
report by raising :class:`UnknownColumnError`.

Code ranges:

- ``SQL1xx`` — lexing/parsing,
- ``SQL2xx`` — catalog and name resolution,
- ``SQL3xx`` — typing,
- ``SQL4xx`` — execution (including aggregate and subquery misuse),
- ``SQL5xx`` — static inference (always warning-grade: contradictory,
  tautological, or out-of-domain predicates).
"""

from __future__ import annotations

from repro.errors import ReproError


class SqlError(ReproError):
    """Base class for all errors raised by the SQL engine."""

    code = "SQL000"


class ParseError(SqlError):
    """Raised when SQL text cannot be tokenized or parsed.

    Carries the approximate character ``position`` in the input when
    known, plus 1-based ``line``/``column`` when the source text was
    available to compute them.
    """

    code = "SQL101"

    def __init__(self, message: str, position: int = -1, line: int = -1, column: int = -1):
        super().__init__(message)
        self.position = position
        self.line = line
        self.column = column


class CatalogError(SqlError):
    """Raised for schema-level problems: unknown tables or columns,
    duplicate definitions, or invalid foreign keys."""

    code = "SQL200"


class SchemaError(CatalogError):
    """Raised when a schema definition itself is inconsistent
    (e.g. duplicate column names, foreign key to a missing column)."""

    code = "SQL201"


class UnknownTableError(CatalogError):
    """Raised when a table name is not present in the database."""

    code = "SQL210"


class UnknownColumnError(CatalogError):
    """Raised when a column reference cannot be resolved in scope."""

    code = "SQL211"


class AmbiguousColumnError(CatalogError):
    """Raised when an unqualified column name matches more than one table
    in scope."""

    code = "SQL212"


class DuplicateAliasError(CatalogError):
    """Two FROM/JOIN entries bound under the same name.  The executor
    tolerates this (the first binding shadows), so the analyzer reports
    it as a warning rather than the engine raising it."""

    code = "SQL213"


class UnknownFunctionError(SqlError):
    """Raised when a query calls a function the engine does not define."""

    code = "SQL214"


class TypeMismatchError(SqlError):
    """Raised when a value cannot be coerced to a column's declared type,
    or when an expression combines incompatible types."""

    code = "SQL300"


class ComparisonTypeError(TypeMismatchError):
    """Comparison between values of incomparable type families.  At
    runtime such comparisons are simply false (NULL-style semantics), so
    this is warning-grade: the predicate can never be satisfied."""

    code = "SQL301"


class ExecutionError(SqlError):
    """Raised when a structurally valid query fails during evaluation
    (e.g. a scalar subquery returning multiple rows)."""

    code = "SQL400"


class ArithmeticTypeError(TypeMismatchError, ExecutionError):
    """Arithmetic (or unary minus) over a non-numeric operand.  A type
    error detected statically, but the engine reports it lazily as an
    :class:`ExecutionError` on the first non-NULL row that reaches it —
    hence the dual parentage."""

    code = "SQL302"


class LikeTypeError(TypeMismatchError, ExecutionError):
    """``LIKE`` applied to a non-text operand; like
    :class:`ArithmeticTypeError`, statically a type error, at runtime an
    :class:`ExecutionError` on the first non-NULL row."""

    code = "SQL303"


class InListTypeError(TypeMismatchError):
    """``IN`` list whose items cannot all match the probed expression's
    type family (warning-grade: mismatched items never match)."""

    code = "SQL304"


class BetweenTypeError(TypeMismatchError):
    """``BETWEEN`` bounds incomparable with the tested expression
    (warning-grade: the range test is always false)."""

    code = "SQL305"


class NullInListError(TypeMismatchError):
    """Literal NULL inside an ``IN`` list (warning-grade: under
    three-valued logic a non-matching probe against a list containing
    NULL is *unknown*, so ``NOT IN (…, NULL)`` can never be satisfied)."""

    code = "SQL306"


class FunctionTypeError(TypeMismatchError):
    """A scalar function or numeric aggregate applied to an argument of a
    type it rejects at runtime (e.g. ``LOWER(42)``, ``SUM(name)``)."""

    code = "SQL307"


class SetOperationArityError(TypeMismatchError):
    """Compound (``UNION``/``EXCEPT``/``INTERSECT``) branches producing
    different numbers of output columns.  The executor raises this before
    evaluating either branch."""

    code = "SQL310"


class SetOperationTypeError(TypeMismatchError):
    """Compound branches pairing columns of incompatible type families
    (warning-grade: values still combine positionally, but comparisons
    between mismatched families never match during dedup)."""

    code = "SQL311"


class MisplacedWindowError(ExecutionError):
    """Window function in a context evaluated per-row before windows
    exist (WHERE, JOIN ... ON, GROUP BY keys, HAVING) or over a grouped
    query — contexts where the engine has no window scope."""

    code = "SQL312"


class WindowFunctionError(ExecutionError):
    """A window call the engine cannot evaluate: an unsupported function
    name after ``OVER``, wrong argument count, or a ranking function
    without the ``ORDER BY`` that defines its ranks."""

    code = "SQL313"


class CaseTypeError(TypeMismatchError):
    """``CASE`` whose branch results (or simple-form WHEN operands) mix
    incompatible type families (warning-grade: mismatched simple-form
    arms never match; mixed results still evaluate sqlite-style)."""

    code = "SQL314"


class CompoundOrderError(ExecutionError):
    """A compound query's ``ORDER BY`` term that is neither an output
    column name of the leftmost block nor a 1-based column position."""

    code = "SQL316"


class DivisionByZeroError(ExecutionError):
    """Division by a literal zero; the executor raises when the division
    is evaluated."""

    code = "SQL401"


class AggregateError(ExecutionError):
    """Base class for aggregate/GROUP BY misuse."""

    code = "SQL410"


class MisplacedAggregateError(AggregateError):
    """Aggregate call in a context that is evaluated per-row (WHERE,
    JOIN ... ON, GROUP BY keys, or ORDER BY of an ungrouped query)."""

    code = "SQL411"


class NestedAggregateError(AggregateError):
    """Aggregate call nested inside another aggregate's argument."""

    code = "SQL412"


class UngroupedColumnError(AggregateError):
    """A bare column in a grouped query that is not a grouping key.  The
    engine follows SQLite and reads it from the group's first row (NULL
    in the empty whole-table group), so the analyzer reports this as a
    warning."""

    code = "SQL413"


class GroupedStarError(AggregateError):
    """``SELECT *`` in a grouped query (no meaningful expansion)."""

    code = "SQL414"


class AggregateArityError(AggregateError):
    """An aggregate called with the wrong number (or shape) of
    arguments, e.g. ``SUM()`` or ``SUM(a, b)`` or ``AVG(*)``."""

    code = "SQL415"


class HavingScopeError(AggregateError):
    """``HAVING`` on an ungrouped, unaggregated query.  The engine
    silently ignores the clause, so this is warning-grade."""

    code = "SQL416"


class FunctionArityError(ExecutionError):
    """A scalar function called with the wrong number of arguments."""

    code = "SQL417"


class SubqueryError(ExecutionError):
    """Base class for structural subquery misuse."""

    code = "SQL420"


class SubqueryColumnsError(SubqueryError):
    """A scalar or ``IN`` subquery whose SELECT list does not produce
    exactly one output column."""

    code = "SQL421"


class StaticInferenceError(SqlError):
    """Base class for static-inference findings (``SQL5xx``).  All are
    warning-grade: the executor tolerates the construct, but inference
    proved the predicate cannot mean what it says."""

    code = "SQL500"


class ContradictoryPredicateError(StaticInferenceError):
    """A predicate (or a set of range predicates on one column) that can
    never be definitely true — the query returns no rows through it."""

    code = "SQL501"


class TautologicalPredicateError(StaticInferenceError):
    """A predicate that is definitely true on every row (e.g. ``x IS NOT
    NULL`` on a NOT NULL column) — it filters nothing."""

    code = "SQL502"


class OutOfDomainConstantError(StaticInferenceError):
    """A comparison constant outside the column's value domain (a
    fractional constant against an INTEGER column, a non-ISO string
    against a DATE column) — the comparison can never be satisfied."""

    code = "SQL503"


#: Every exception class keyed by its stable code — the analyzer uses
#: this to map diagnostic codes back onto error classes 1:1.
ERROR_CLASS_BY_CODE = {
    cls.code: cls
    for cls in (
        SqlError,
        ParseError,
        CatalogError,
        SchemaError,
        UnknownTableError,
        UnknownColumnError,
        AmbiguousColumnError,
        DuplicateAliasError,
        UnknownFunctionError,
        TypeMismatchError,
        ComparisonTypeError,
        ArithmeticTypeError,
        LikeTypeError,
        InListTypeError,
        BetweenTypeError,
        NullInListError,
        FunctionTypeError,
        SetOperationArityError,
        SetOperationTypeError,
        MisplacedWindowError,
        WindowFunctionError,
        CaseTypeError,
        CompoundOrderError,
        ExecutionError,
        DivisionByZeroError,
        AggregateError,
        MisplacedAggregateError,
        NestedAggregateError,
        UngroupedColumnError,
        GroupedStarError,
        AggregateArityError,
        HavingScopeError,
        FunctionArityError,
        SubqueryError,
        SubqueryColumnsError,
        StaticInferenceError,
        ContradictoryPredicateError,
        TautologicalPredicateError,
        OutOfDomainConstantError,
    )
}
