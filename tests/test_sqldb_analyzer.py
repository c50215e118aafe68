"""Tests for the static semantic analyzer.

The heart of the suite is the *differential contract* with the executor:

- analyzer-accept ⇒ executing the statement (analysis disabled) never
  raises a static error — name resolution, aggregate placement, or an
  operand-type failure.  Value-dependent errors (division by a data
  zero, multi-row scalar subquery) are still allowed.
- analyzer-reject ⇒ executing the statement raises exactly the exception
  class mapped to the first error diagnostic (``ERROR_CLASS_BY_CODE``),
  on both the planner and the naive interpreter paths.

The contract is enforced over the planner suite's SQL corpus plus
generated gold workloads for every benchmark domain.
"""

from __future__ import annotations

import pytest

from repro.bench import WorkloadGenerator, build_domain, domain_names
from repro.cli import main as cli_main
from repro.sqldb import (
    ERROR_CLASS_BY_CODE,
    AggregateError,
    CatalogError,
    Column,
    Database,
    DataType,
    Executor,
    SqlError,
    TableSchema,
    UnknownFunctionError,
    parse_select,
)
from repro.sqldb.analyzer import Diagnostic
from repro.sqldb.errors import (
    AmbiguousColumnError,
    ArithmeticTypeError,
    DivisionByZeroError,
    LikeTypeError,
    UnknownColumnError,
)
from tests.test_sqldb_dialect import ROWS_T, ROWS_U
from tests.test_sqldb_null_semantics import GROUPED_PREDICATES
from tests.test_sqldb_null_semantics import ROWS as NULL_ROWS
from tests.test_sqldb_planner import EMP_CORPUS, ERROR_CORPUS, SHOP_CORPUS

# Exception families the executor can only raise for statically decidable
# reasons on a typed catalog: accepted statements must never hit these.
# (DivisionByZeroError / SubqueryError / MIN-MAX-mixed remain possible at
# runtime because they depend on row *values* the analyzer cannot see.)
STATIC_FAILURES = (
    CatalogError,
    AggregateError,
    UnknownFunctionError,
    ArithmeticTypeError,
    LikeTypeError,
)


def assert_contract(db, sql: str) -> None:
    """Enforce the accept/reject contract for one statement on ``db``."""
    result = db.analyze_sql(sql)
    naive = Executor(db, use_planner=False, analyze=False)
    planned = Executor(db, use_planner=True, analyze=False)
    if result.ok:
        for executor in (naive, planned):
            try:
                executor.execute_sql(sql)
            except STATIC_FAILURES as exc:
                pytest.fail(f"accepted but raised {type(exc).__name__}: {sql}")
            except SqlError:
                pass  # value-dependent failure: allowed under the contract
    else:
        expected = result.errors[0].error_class
        for executor in (naive, planned):
            with pytest.raises(expected):
                executor.execute_sql(sql)


class TestDifferentialContract:
    @pytest.mark.parametrize("sql", EMP_CORPUS + ERROR_CORPUS)
    def test_emp_corpus(self, emp_db, sql):
        assert_contract(emp_db, sql)

    @pytest.mark.parametrize("sql", SHOP_CORPUS)
    def test_shop_corpus(self, shop_db, sql):
        assert_contract(shop_db, sql)

    @pytest.mark.parametrize("domain", domain_names())
    def test_generated_gold_is_accepted(self, domain):
        db = build_domain(domain)
        for example in WorkloadGenerator(db, seed=11).generate_mixed(15):
            result = db.analyze_sql(example.sql)
            assert result.ok, (
                example.sql,
                [d.format() for d in result.diagnostics],
            )
            assert_contract(db, example.sql)


# Statements the analyzer must reject, with the expected leading code.
REJECTS = [
    ("SELECT name FROM nope", "SQL210"),
    ("SELECT bogus FROM emp", "SQL211"),
    ("SELECT emp.bogus FROM emp", "SQL211"),
    ("SELECT id FROM emp JOIN dept ON emp.dept_id = dept.id", "SQL212"),
    ("SELECT FOO(1) FROM emp", "SQL214"),
    ("SELECT name + 1 FROM emp", "SQL302"),
    ("SELECT -name FROM emp", "SQL302"),
    ("SELECT name FROM emp WHERE salary LIKE 'x%'", "SQL303"),
    ("SELECT ABS(name) FROM emp", "SQL307"),
    ("SELECT SUM(name) FROM emp", "SQL307"),
    ("SELECT 1 / 0", "SQL401"),
    ("SELECT name FROM emp WHERE SUM(salary) > 10", "SQL411"),
    ("SELECT SUM(SUM(salary)) FROM emp", "SQL412"),
    ("SELECT * FROM emp GROUP BY dept_id", "SQL414"),
    ("SELECT SUM(salary, id) FROM emp", "SQL415"),
    ("SELECT SUM(*) FROM emp", "SQL415"),
    ("SELECT UPPER(*) FROM emp", "SQL417"),
    ("SELECT LOWER(name, name) FROM emp", "SQL417"),
    ("SELECT name FROM emp WHERE salary > (SELECT id, salary FROM emp)", "SQL421"),
]

# Statements that execute fine but deserve a warning, with expected code.
WARNINGS = [
    ("SELECT name FROM emp WHERE name = 3", "SQL301"),
    ("SELECT name FROM emp WHERE salary IN (1, 'x')", "SQL304"),
    ("SELECT name FROM emp WHERE salary BETWEEN 1 AND 'x'", "SQL305"),
    ("SELECT name FROM emp WHERE salary IN (1, NULL)", "SQL306"),
    ("SELECT name FROM emp WHERE salary NOT IN (1, NULL)", "SQL306"),
    ("SELECT dept_id, name FROM emp GROUP BY dept_id", "SQL413"),
    ("SELECT name FROM emp HAVING salary > 1", "SQL416"),
    ("SELECT a.name FROM emp a JOIN dept a ON a.dept_id = a.id", "SQL213"),
]


class TestDiagnostics:
    @pytest.mark.parametrize("sql,code", REJECTS)
    def test_rejects_with_code(self, emp_db, sql, code):
        result = emp_db.analyze_sql(sql)
        assert not result.ok, sql
        assert result.errors[0].code == code, [d.format() for d in result.diagnostics]
        # 1:1 code ↔ exception class mapping, and contract holds
        assert result.errors[0].error_class is ERROR_CLASS_BY_CODE[code]
        assert_contract(emp_db, sql)

    @pytest.mark.parametrize("sql,code", WARNINGS)
    def test_warns_but_executes(self, emp_db, sql, code):
        result = emp_db.analyze_sql(sql)
        assert result.ok, [d.format() for d in result.diagnostics]
        assert code in [d.code for d in result.warnings], sql
        # warnings never reject: the default (analyzing) executor runs it
        Executor(emp_db).execute_sql(sql)

    def test_at_least_ten_distinct_codes(self, emp_db):
        codes = set()
        for sql, _ in REJECTS + WARNINGS:
            codes.update(emp_db.analyze_sql(sql).codes())
        assert len(codes) >= 10, sorted(codes)

    def test_diagnostics_carry_spans(self, emp_db):
        for sql, _ in REJECTS + WARNINGS:
            for diag in emp_db.analyze_sql(sql).diagnostics:
                assert diag.span is not None, (sql, diag.format())
                assert diag.span.line >= 1 and diag.span.col >= 1
                assert 0 <= diag.span.start <= diag.span.end <= len(sql)

    def test_span_excerpt_locates_offender(self, emp_db):
        sql = "SELECT name FROM emp WHERE salary LIKE 'x%'"
        diag = emp_db.analyze_sql(sql).errors[0]
        assert "salary LIKE 'x%'" in diag.span.excerpt(sql)

    def test_parse_error_becomes_sql101(self, emp_db):
        result = emp_db.analyze_sql("SELECT FROM WHERE")
        assert not result.ok
        assert result.errors[0].code == "SQL101"
        assert "line 1" in result.errors[0].message

    def test_format_shows_position_severity_code(self, emp_db):
        line = emp_db.analyze_sql("SELECT bogus FROM emp").errors[0].format()
        assert line.startswith("1:8 [error SQL211]")


def _corpus_db(corpus: str) -> Database:
    """The NULL corpus's t(id, a, b, s), or the dialect corpus's t(a, b, c)
    and u(a, b, c), with their rows."""
    db = Database(corpus)
    if corpus == "nulls":
        tables = [
            (
                "t",
                [
                    Column("id", DataType.INTEGER, primary_key=True, nullable=False),
                    Column("a", DataType.INTEGER),
                    Column("b", DataType.INTEGER),
                    Column("s", DataType.TEXT),
                ],
                NULL_ROWS,
            )
        ]
    else:
        tables = [
            (
                name,
                [
                    Column("a", DataType.INTEGER),
                    Column("b", DataType.FLOAT),
                    Column("c", DataType.TEXT),
                ],
                rows,
            )
            for name, rows in (("t", ROWS_T), ("u", ROWS_U))
        ]
    for name, columns, rows in tables:
        db.create_table(TableSchema(name, columns))
        db.insert_many(name, [list(row) for row in rows])
    return db


#: predicates over an aggregate and expressions over the empty whole-table
#: group, each with the corpus table it was written for
GROUPED = [(sql, "nulls") for sql in GROUPED_PREDICATES] + [
    ("SELECT c, COUNT(*) FROM t GROUP BY c ORDER BY SUM(a) IS NULL, c", "dialect"),
]


class TestGroupedPredicates:
    @pytest.mark.parametrize("sql,corpus", GROUPED)
    def test_accepted_and_contract_holds(self, sql, corpus):
        db = _corpus_db(corpus)
        result = db.analyze_sql(sql)
        assert result.ok, [d.format() for d in result.diagnostics]
        assert "SQL411" not in result.codes()
        # only a bare non-grouped column is worth SQL413
        bare = sql == "SELECT COUNT(*), a IS NULL FROM t WHERE b > 100"
        assert ("SQL413" in result.codes()) == bare, result.codes()
        assert_contract(db, sql)

    @pytest.mark.parametrize(
        "sql,code",
        [
            ("SELECT COUNT(*), UPPER(*) FROM t", "SQL417"),
            ("SELECT COUNT(*), UPPER(*) FROM t WHERE b > 100", "SQL417"),
            ("SELECT COUNT(*), nosuch FROM t WHERE b > 100", "SQL211"),
        ],
    )
    def test_errors_over_a_group_raise_the_analyzer_class(self, sql, code):
        """Over a group, empty or not, a star argument or an unknown name
        raises the class of the analyzer's first error: the empty group's
        all-NULL row still resolves names by schema."""
        db = _corpus_db("nulls")
        assert db.analyze_sql(sql).errors[0].code == code
        assert_contract(db, sql)

    def test_window_over_groups_is_only_misplaced(self):
        """A grouped block has no window scope (SQL312); the window's own
        arguments read groups, so the aggregate inside is not SQL411."""
        db = _corpus_db("dialect")
        sql = "SELECT c, RANK() OVER (ORDER BY SUM(a)) FROM t GROUP BY c"
        assert db.analyze_sql(sql).codes() == ["SQL312"]
        assert_contract(db, sql)


class TestExecutorPreflight:
    def test_rejection_raises_mapped_class_before_any_row(self, emp_db):
        executor = Executor(emp_db)
        with pytest.raises(UnknownColumnError):
            executor.execute_sql("SELECT bogus FROM emp")
        assert executor.total_stats.static_rejections == 1

    def test_escape_hatch_defers_to_runtime(self, emp_db):
        executor = Executor(emp_db, analyze=False)
        with pytest.raises(UnknownColumnError):
            executor.execute_sql("SELECT bogus FROM emp")
        assert executor.total_stats.static_rejections == 0
        assert executor.total_stats.preflight_checks == 0

    def test_preflight_cache_hits_on_repeated_statements(self, emp_db):
        executor = Executor(emp_db)
        executor.execute_sql("SELECT name FROM emp")
        executor.execute_sql("SELECT name FROM emp")
        assert executor.total_stats.preflight_checks == 2
        assert executor.total_stats.preflight_cache_hits >= 1

    def test_ambiguous_join_column_rejected(self, emp_db):
        with pytest.raises(AmbiguousColumnError):
            Executor(emp_db).execute_sql(
                "SELECT id FROM emp JOIN dept ON emp.dept_id = dept.id"
            )

    def test_literal_division_by_zero_rejected_statically(self, emp_db):
        with pytest.raises(DivisionByZeroError):
            Executor(emp_db).execute_sql("SELECT 1 / 0")


class TestSpans:
    def test_statement_and_expression_nodes_have_spans(self):
        stmt = parse_select("SELECT name, salary\nFROM emp\nWHERE salary > 1")
        assert stmt.span is not None and stmt.span.line == 1
        assert stmt.where.span.line == 3
        assert stmt.where.span.excerpt(
            "SELECT name, salary\nFROM emp\nWHERE salary > 1"
        ) == "salary > 1"

    def test_spans_do_not_affect_ast_equality(self):
        a = parse_select("SELECT name FROM emp WHERE salary > 1")
        b = parse_select("select  name\nfrom emp  where salary > 1")
        assert a == b  # exact-match metrics stay format-insensitive

    def test_parse_error_reports_line_and_column(self):
        from repro.sqldb.errors import ParseError

        with pytest.raises(ParseError) as err:
            parse_select("SELECT name\nFROM emp\nWHERE salary >")
        assert "line 3" in str(err.value)
        assert err.value.line == 3


class TestRankingIntegration:
    class _Fake:
        def __init__(self, confidence):
            self.confidence = confidence

    def test_apply_static_analysis_prunes_and_penalizes(self):
        from repro.core.ranking import apply_static_analysis
        from repro.sqldb.analyzer import AnalysisResult

        bad = self._Fake(0.9)
        warned = self._Fake(0.8)
        clean = self._Fake(0.75)
        uncompiled = self._Fake(0.1)
        verdicts = {
            id(bad): AnalysisResult((Diagnostic("SQL211", "error", "x"),)),
            id(warned): AnalysisResult((Diagnostic("SQL301", "warning", "x"),)),
            id(clean): AnalysisResult(()),
            id(uncompiled): None,
        }
        ranked = apply_static_analysis(
            [bad, warned, clean, uncompiled], lambda i: verdicts[id(i)]
        )
        assert bad not in ranked
        assert ranked[0] is clean  # warned sank below clean despite higher prior
        assert warned.confidence == pytest.approx(0.8 * 0.9)
        assert ranked[-1] is uncompiled  # kept: nothing to analyze

    def test_summary_counts_static_rejections(self):
        from repro.bench.metrics import ExampleOutcome, summarize

        outcomes = [
            ExampleOutcome("q1", "g", "p", True, False, False, static_rejected=True),
            ExampleOutcome("q2", "g", "p", True, True, True),
        ]
        assert summarize(outcomes).static_rejections == 1


class TestCliLint:
    def test_lint_reports_error_with_span(self, capsys):
        code = cli_main(["sql", "SELECT name FROM nowhere", "--domain", "retail", "--lint"])
        out = capsys.readouterr().out
        assert code == 1
        assert "SQL210" in out and "[error" in out
        assert "1 error(s)" in out

    def test_lint_clean_statement(self, capsys):
        code = cli_main(["sql", "SELECT 1", "--domain", "retail", "--lint"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no diagnostics" in out
