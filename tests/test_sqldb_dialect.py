"""Hard-tier dialect tests: set operations, CASE, and window functions.

Differential contract, same shape as the NULL-semantics and columnar
suites: every statement of the corpus runs on the naive interpreter, the
planned row path, and the planned columnar path, and each result must
match the stdlib sqlite3 oracle as a type-tagged multiset (ordered when
the statement carries a top-level ORDER BY).  On top of that:

- parser rejections for forms outside the dialect (``EXCEPT ALL``,
  tails before the last compound block, ``DISTINCT`` under ``OVER``),
- analyzer diagnostics SQL310-SQL316 with the executor contract
  (ERROR diagnostics raise the mapped class, WARNINGs tolerate),
- the ``EXCEPT``-vs-``NOT IN`` NULL distinction (set-op dedup treats
  NULLs as equal, ``WHERE`` three-valued logic never does),
- columnar fallback reasons for the new constructs,
- complexity/hardness classification of the new shapes,
- the ontology-layer regressions this dialect work exposed (NULL-laden
  candidate lists, NULLs in OQL ``in``/``not_in`` value lists).
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.complexity import ComplexityTier, classify, spider_hardness
from repro.core.intermediate import OQLCondition, OQLUnionQuery, PropertyRef
from repro.ontology.relaxation import QueryRelaxer
from repro.sqldb import Column, Database, DataType, SqlError, TableSchema
from repro.sqldb import columnar
from repro.sqldb.ast import SetOperation
from repro.sqldb.errors import (
    MisplacedWindowError,
    NestedAggregateError,
    ParseError,
    SetOperationArityError,
    WindowFunctionError,
)
from repro.sqldb.executor import Executor
from repro.sqldb.parser import parse_select

# ---------------------------------------------------------------------------
# Fixture: two NULL-laden tables, mirrored into sqlite3
# ---------------------------------------------------------------------------

ROWS_T = [
    (1, 10.0, "x"),
    (2, None, "y"),
    (3, 10.0, None),
    (None, 5.0, "x"),
    (2, 7.5, "y"),
    (None, None, "z"),
]
ROWS_U = [
    (2, 7.5, "y"),
    (None, 5.0, "x"),
    (4, 1.0, "w"),
    (None, None, "z"),
]


@pytest.fixture
def engines(monkeypatch):
    """t(a,b,c) and u(a,b,c) in repro.sqldb and in sqlite3."""
    # Two-row evaluation steps, so the columnar path crosses step
    # boundaries even on these few-row tables.
    monkeypatch.setattr(columnar, "_CHUNK_ROWS", 2)
    db = Database("dialect")
    for name, rows in (("t", ROWS_T), ("u", ROWS_U)):
        db.create_table(
            TableSchema(
                name,
                [
                    Column("a", DataType.INTEGER),
                    Column("b", DataType.FLOAT),
                    Column("c", DataType.TEXT),
                ],
            )
        )
        db.insert_many(name, [list(r) for r in rows])
    oracle = sqlite3.connect(":memory:")
    for name, rows in (("t", ROWS_T), ("u", ROWS_U)):
        oracle.execute(f"CREATE TABLE {name} (a INTEGER, b REAL, c TEXT)")
        oracle.executemany(f"INSERT INTO {name} VALUES (?, ?, ?)", rows)
    yield db, oracle
    oracle.close()


def _tag(row):
    """Type-tagged comparison key: 1 and 1.0 equal, bools separate."""
    out = []
    for v in row:
        if v is None:
            out.append((0, ""))
        elif isinstance(v, bool):
            out.append((1, float(v)))
        elif isinstance(v, (int, float)):
            out.append((2, float(v)))
        else:
            out.append((3, str(v)))
    return tuple(out)


def _paths(db):
    return (
        Executor(db, use_planner=False),
        Executor(db, use_planner=True, use_columnar=False),
        Executor(db, use_planner=True, use_columnar=True),
    )


def assert_matches_oracle(engines, sql, ordered=False):
    """All three engine paths must match sqlite3 on ``sql``."""
    db, oracle = engines
    expected = [_tag(r) for r in oracle.execute(sql).fetchall()]
    if not ordered:
        expected = sorted(expected)
    for executor in _paths(db):
        got = [_tag(r) for r in executor.execute_sql(sql).rows]
        if not ordered:
            got = sorted(got)
        assert got == expected, sql


# ---------------------------------------------------------------------------
# The differential corpus (>= 40 statements)
# ---------------------------------------------------------------------------

#: Unordered statements: compared as multisets against sqlite3.
DIALECT_CORPUS = [
    # -- set operations and NULL dedup ---------------------------------------
    "SELECT a FROM t UNION SELECT a FROM u",
    "SELECT a FROM t UNION ALL SELECT a FROM u",
    "SELECT a FROM t EXCEPT SELECT a FROM u",
    "SELECT a FROM t INTERSECT SELECT a FROM u",
    "SELECT a, b FROM t UNION SELECT a, b FROM u",
    "SELECT a, b FROM t UNION ALL SELECT a, b FROM u",
    "SELECT a, b FROM t EXCEPT SELECT a, b FROM u",
    "SELECT a, b FROM t INTERSECT SELECT a, b FROM u",
    "SELECT c FROM t UNION SELECT c FROM u",
    "SELECT c FROM t EXCEPT SELECT c FROM u",
    "SELECT c FROM t INTERSECT SELECT c FROM u",
    "SELECT b FROM t UNION SELECT b FROM t",
    "SELECT a FROM t WHERE a > 1 UNION SELECT a FROM u WHERE a > 1",
    "SELECT a FROM t UNION SELECT a FROM u UNION ALL SELECT a FROM t",
    "SELECT a FROM t UNION ALL SELECT a FROM u EXCEPT SELECT a FROM u",
    "SELECT a FROM t EXCEPT SELECT a FROM t WHERE a IS NOT NULL",
    "SELECT DISTINCT a FROM t UNION ALL SELECT DISTINCT a FROM u",
    # mixed numeric affinity across branches (1 vs 1.0 dedup)
    "SELECT a FROM t UNION SELECT b FROM u",
    # -- CASE expressions -----------------------------------------------------
    "SELECT a, CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t",
    "SELECT a, CASE WHEN a > 1 THEN 'big' END FROM t",
    "SELECT CASE a WHEN 2 THEN 'two' WHEN 3 THEN 'three' ELSE 'other' END FROM t",
    "SELECT CASE b WHEN NULL THEN 'null' ELSE 'other' END FROM t",
    "SELECT CASE WHEN b IS NULL THEN 0 ELSE b END FROM t",
    "SELECT CASE WHEN a > 1 AND b > 5 THEN 1 WHEN a > 1 THEN 2 ELSE 3 END FROM t",
    "SELECT a FROM t WHERE CASE WHEN a > 1 THEN 1 ELSE 0 END = 1",
    "SELECT a FROM t WHERE CASE WHEN b IS NULL THEN a ELSE b END > 5",
    "SELECT CASE WHEN a > 1 THEN SUM(b) ELSE 0 END FROM t GROUP BY a",
    "SELECT c, CASE WHEN COUNT(*) > 1 THEN 'many' ELSE 'one' END FROM t GROUP BY c",
    "SELECT a, CASE c WHEN 'x' THEN b ELSE a END FROM t",
    "SELECT SUM(CASE WHEN a > 1 THEN 1 ELSE 0 END) FROM t",
    # -- window functions -----------------------------------------------------
    "SELECT a, ROW_NUMBER() OVER (ORDER BY b, c, a) FROM t",
    "SELECT c, RANK() OVER (PARTITION BY c ORDER BY b) FROM t",
    "SELECT c, DENSE_RANK() OVER (ORDER BY c) FROM t",
    "SELECT b, RANK() OVER (ORDER BY b) FROM t",
    "SELECT b, DENSE_RANK() OVER (ORDER BY b DESC) FROM t",
    "SELECT a, SUM(b) OVER (PARTITION BY c) FROM t",
    "SELECT a, SUM(b) OVER (PARTITION BY c ORDER BY a) FROM t",
    "SELECT a, COUNT(*) OVER (ORDER BY a) FROM t",
    "SELECT a, COUNT(b) OVER (PARTITION BY a) FROM t",
    "SELECT a, AVG(b) OVER (ORDER BY a) FROM t",
    "SELECT a, MIN(b) OVER (PARTITION BY c) FROM t",
    "SELECT a, MAX(b) OVER (ORDER BY a) FROM t",
    "SELECT a, SUM(a) OVER () FROM t",
    "SELECT a, COUNT(*) OVER () FROM t",
    "SELECT a, ROW_NUMBER() OVER (PARTITION BY c ORDER BY a, b) FROM t WHERE a IS NOT NULL",
    # -- 3VL cross-checks (set-op dedup vs WHERE comparison) -----------------
    "SELECT a FROM t WHERE a NOT IN (SELECT a FROM u)",
    "SELECT a FROM t WHERE a IN (SELECT a FROM u)",
    "SELECT a FROM t WHERE a NOT IN (SELECT a FROM u WHERE a IS NOT NULL)",
]

#: Statements with a top-level ORDER BY: compared in order.
ORDERED_CORPUS = [
    "SELECT a FROM t UNION SELECT a FROM u ORDER BY a",
    "SELECT a, c FROM t UNION SELECT a, c FROM u ORDER BY 2 DESC, 1 LIMIT 3",
    "SELECT a FROM t EXCEPT SELECT a FROM u ORDER BY 1 DESC",
    "SELECT a, b FROM t INTERSECT SELECT a, b FROM u ORDER BY a, b LIMIT 2",
    "SELECT c FROM t UNION SELECT c FROM u ORDER BY c LIMIT 3 OFFSET 1",
    "SELECT c, COUNT(*) FROM t GROUP BY c ORDER BY SUM(a) IS NULL, c",
]


class TestDifferentialCorpus:
    @pytest.mark.parametrize("sql", DIALECT_CORPUS)
    def test_unordered(self, engines, sql):
        assert_matches_oracle(engines, sql)

    @pytest.mark.parametrize("sql", ORDERED_CORPUS)
    def test_ordered(self, engines, sql):
        assert_matches_oracle(engines, sql, ordered=True)

    def test_corpus_is_large_enough(self):
        assert len(DIALECT_CORPUS) + len(ORDERED_CORPUS) >= 40


class TestExceptVsNotIn:
    """The executor must distinguish set-op dedup (NULLs equal) from
    three-valued ``NOT IN`` (NULL in the probe set poisons everything)."""

    def test_except_and_not_in_differ(self, engines):
        db, oracle = engines
        except_sql = "SELECT a FROM t EXCEPT SELECT a FROM u"
        not_in_sql = "SELECT DISTINCT a FROM t WHERE a NOT IN (SELECT a FROM u)"
        for executor in _paths(db):
            except_rows = sorted(_tag(r) for r in executor.execute_sql(except_sql).rows)
            not_in_rows = sorted(_tag(r) for r in executor.execute_sql(not_in_sql).rows)
            # u.a contains a NULL, so NOT IN returns nothing at all,
            # while EXCEPT still returns t's values absent from u.
            assert not_in_rows == []
            assert except_rows != not_in_rows
            assert (_tag((1,))[0],) not in not_in_rows
        # and both readings agree with the oracle
        assert_matches_oracle(engines, except_sql)
        assert_matches_oracle(engines, not_in_sql)

    def test_union_dedups_nulls_as_equal(self, engines):
        db, _ = engines
        for executor in _paths(db):
            rows = executor.execute_sql("SELECT a FROM t UNION SELECT a FROM u").rows
            nulls = [r for r in rows if r[0] is None]
            assert len(nulls) == 1


# ---------------------------------------------------------------------------
# Parser rejections
# ---------------------------------------------------------------------------

PARSE_ERRORS = [
    "SELECT a FROM t EXCEPT ALL SELECT a FROM u",
    "SELECT a FROM t INTERSECT ALL SELECT a FROM u",
    "SELECT a FROM t ORDER BY a UNION SELECT a FROM u",
    "SELECT a FROM t LIMIT 1 UNION SELECT a FROM u",
    "SELECT COUNT(DISTINCT a) OVER (ORDER BY a) FROM t",
    "SELECT CASE WHEN a > 1 THEN 1 FROM t",
    "SELECT CASE END FROM t",
    "SELECT ROW_NUMBER() OVER FROM t",
]


class TestParserRejections:
    @pytest.mark.parametrize("sql", PARSE_ERRORS)
    def test_parse_error(self, sql):
        with pytest.raises(ParseError):
            parse_select(sql)

    def test_compound_round_trips(self):
        for sql in DIALECT_CORPUS + ORDERED_CORPUS:
            stmt = parse_select(sql)
            again = parse_select(stmt.to_sql())
            assert again.to_sql() == stmt.to_sql(), sql

    def test_compound_is_left_associative(self):
        stmt = parse_select(
            "SELECT a FROM t UNION SELECT a FROM u EXCEPT SELECT a FROM t"
        )
        assert isinstance(stmt, SetOperation) and stmt.op == "except"
        assert isinstance(stmt.left, SetOperation) and stmt.left.op == "union"


# ---------------------------------------------------------------------------
# Analyzer diagnostics and the executor contract
# ---------------------------------------------------------------------------


class TestAnalyzerDiagnostics:
    def _analysis(self, engines, sql):
        db, _ = engines
        return db.analyze_sql(sql)

    def test_arity_mismatch_is_error(self, engines):
        db, _ = engines
        sql = "SELECT a, b FROM t UNION SELECT a FROM u"
        result = db.analyze_sql(sql)
        assert "SQL310" in result.codes() and not result.ok
        with pytest.raises(SetOperationArityError):
            Executor(db, analyze=False).execute_sql(sql)
        with pytest.raises(SetOperationArityError):
            db.execute_sql(sql)

    def test_family_mismatch_is_warning(self, engines):
        db, _ = engines
        sql = "SELECT a FROM t UNION SELECT c FROM u"
        result = db.analyze_sql(sql)
        assert "SQL311" in result.codes() and result.ok
        db.execute_sql(sql)  # tolerated at runtime

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a FROM t WHERE ROW_NUMBER() OVER (ORDER BY a) = 1",
            "SELECT a FROM t GROUP BY ROW_NUMBER() OVER (ORDER BY a)",
            "SELECT COUNT(*) FROM t GROUP BY c HAVING SUM(b) OVER () > 1",
            "SELECT c, SUM(b) OVER (ORDER BY c) FROM t GROUP BY c",
        ],
    )
    def test_misplaced_window_is_error(self, engines, sql):
        db, _ = engines
        result = db.analyze_sql(sql)
        assert "SQL312" in result.codes() and not result.ok, sql
        with pytest.raises(MisplacedWindowError):
            Executor(db, analyze=False).execute_sql(sql)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT NTILE(4) OVER (ORDER BY a) FROM t",
            "SELECT RANK(a) OVER (ORDER BY a) FROM t",
            "SELECT RANK() OVER (PARTITION BY c) FROM t",
            "SELECT SUM(*) OVER (ORDER BY a) FROM t",
            "SELECT SUM(a, b) OVER (ORDER BY a) FROM t",
        ],
    )
    def test_window_shape_is_error(self, engines, sql):
        db, _ = engines
        result = db.analyze_sql(sql)
        assert "SQL313" in result.codes() and not result.ok, sql
        with pytest.raises(WindowFunctionError):
            Executor(db, analyze=False).execute_sql(sql)

    def test_case_type_mix_is_warning(self, engines):
        db, _ = engines
        sql = "SELECT CASE WHEN a > 1 THEN 'text' ELSE b END FROM t"
        result = db.analyze_sql(sql)
        assert "SQL314" in result.codes() and result.ok
        db.execute_sql(sql)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a FROM t UNION SELECT a FROM u ORDER BY nosuch",
            "SELECT a FROM t UNION SELECT a FROM u ORDER BY 2",
            "SELECT a FROM t UNION SELECT a FROM u ORDER BY 0",
        ],
    )
    def test_compound_order_is_error(self, engines, sql):
        db, _ = engines
        result = db.analyze_sql(sql)
        assert "SQL316" in result.codes() and not result.ok, sql
        with pytest.raises(SqlError):
            Executor(db, analyze=False).execute_sql(sql)

    def test_aggregate_of_aggregate_is_error(self, engines):
        db, _ = engines
        sql = "SELECT SUM(COUNT(a)) FROM t"
        result = db.analyze_sql(sql)
        assert "SQL412" in result.codes() and not result.ok
        with pytest.raises(NestedAggregateError):
            Executor(db, analyze=False).execute_sql(sql)

    def test_aggregate_inside_window_argument_is_error(self, engines):
        db, _ = engines
        sql = "SELECT SUM(SUM(a)) OVER (ORDER BY a) FROM t"
        result = db.analyze_sql(sql)
        assert not result.ok

    def test_corpus_is_analyzer_clean_of_errors(self, engines):
        db, _ = engines
        for sql in DIALECT_CORPUS + ORDERED_CORPUS:
            result = db.analyze_sql(sql)
            assert result.ok, (sql, result.codes())


# ---------------------------------------------------------------------------
# Columnar fallback surface
# ---------------------------------------------------------------------------


class TestColumnarFallback:
    def test_window_reason_named(self, engines):
        db, _ = engines
        ex = Executor(db, use_columnar=True)
        text = ex.explain(parse_select("SELECT a, ROW_NUMBER() OVER (ORDER BY a) FROM t"))
        assert "columnar: row path (window function)" in text

    def test_grouped_case_vectorizes(self, engines):
        db, _ = engines
        ex = Executor(db, use_columnar=True)
        sql = "SELECT CASE WHEN a > 1 THEN SUM(b) ELSE 0 END FROM t GROUP BY a"
        stmt = parse_select(sql)
        assert "columnar: vectorized scan+group" in ex.explain(stmt)
        rows = ex.execute(stmt).rows
        assert ex.last_stats.vectorized == 1
        assert rows == Executor(db, use_columnar=False).execute(stmt).rows

    def test_compound_branches_still_vectorize(self, engines):
        db, _ = engines
        ex = Executor(db, use_columnar=True)
        stmt = parse_select("SELECT a FROM t UNION SELECT a FROM u")
        ex.execute(stmt)
        text = ex.explain(stmt)
        assert "compound: UNION (hash dedup, NULLs compare equal)" in text
        assert text.count("columnar: vectorized") == 2


# ---------------------------------------------------------------------------
# Classification of the new shapes
# ---------------------------------------------------------------------------


class TestClassification:
    def test_compound_is_nested_tier(self):
        sql = "SELECT a FROM t UNION SELECT a FROM u"
        assert classify(sql) is ComplexityTier.NESTED
        assert spider_hardness(sql) == "extra"

    def test_window_is_nested_tier(self):
        sql = "SELECT a, RANK() OVER (ORDER BY a) FROM t"
        assert classify(sql) is ComplexityTier.NESTED
        assert spider_hardness(sql) == "extra"

    def test_case_alone_does_not_escalate(self):
        sql = "SELECT CASE WHEN a > 1 THEN 1 ELSE 0 END FROM t"
        assert classify(sql) is ComplexityTier.SELECTION


# ---------------------------------------------------------------------------
# Ontology-layer regressions (two-valued assumptions vs Kleene executor)
# ---------------------------------------------------------------------------


class TestOntologyRegressions:
    def test_best_match_tolerates_nulls_and_non_text(self):
        relaxer = QueryRelaxer()
        # Candidate lists drawn straight from column values can hold
        # NULLs and numbers; they must be skipped, not crash .lower().
        found = relaxer.best_match("x", [None, 7, "x", "y"])
        assert found is not None and found.term == "x"
        assert relaxer.best_match("zz", [None, 3.5]) is None

    def test_oql_in_list_strips_nulls(self, engines):
        db, _ = engines
        from repro.core.intermediate import OQLCompiler
        from repro.ontology.builder import build_ontology

        ontology, mapping = build_ontology(db)
        # Build the condition directly: the compiler must drop the NULL
        # so the negated form stays satisfiable under 3VL.
        compiler = OQLCompiler(ontology, mapping)
        cond = OQLCondition(PropertyRef("t", "a"), "not_in", [1, None, 4])
        expr = compiler._condition_expr(cond)
        rendered = expr.to_sql()
        assert "NULL" not in rendered.upper()
        assert "1" in rendered and "4" in rendered

    def test_has_no_keeps_null_guard(self, emp_db):
        """The NOT IN lowering must keep NULL FKs out of the probe set —
        pin the IS NOT NULL guard the Kleene rewrite depends on."""
        from repro.core.intermediate import OQLCompiler, OQLHasCondition
        from repro.ontology.builder import build_ontology, humanize

        ontology, mapping = build_ontology(emp_db)
        compiler = OQLCompiler(ontology, mapping)
        emp_concept = humanize("emp")
        dept_concept = humanize("dept")
        cond = OQLHasCondition(emp_concept, negated=True)
        expr = compiler._has_condition_expr(cond, dept_concept)
        assert "IS NOT NULL" in expr.to_sql()


# ---------------------------------------------------------------------------
# OQL union queries
# ---------------------------------------------------------------------------


class TestOQLUnion:
    def test_needs_two_branches(self):
        from repro.core.intermediate import OQLItem, OQLQuery

        q = OQLQuery(select=(OQLItem(ref=PropertyRef("t", "a")),))
        with pytest.raises(ValueError):
            OQLUnionQuery(branches=(q,))

    def test_compiles_to_union(self, engines):
        db, _ = engines
        from repro.core.intermediate import OQLCompiler, OQLItem, OQLQuery
        from repro.ontology.builder import build_ontology

        ontology, mapping = build_ontology(db)
        branch = OQLQuery(
            select=(OQLItem(ref=PropertyRef("t", "a")),),
            conditions=(OQLCondition(PropertyRef("t", "c"), "=", "x"),),
        )
        other = OQLQuery(
            select=(OQLItem(ref=PropertyRef("t", "a")),),
            conditions=(OQLCondition(PropertyRef("t", "c"), "=", "y"),),
        )
        compiled = OQLCompiler(ontology, mapping).compile_union(
            OQLUnionQuery(branches=(branch, other))
        )
        assert isinstance(compiled, SetOperation) and compiled.op == "union"
        rows = db.executor.execute(compiled).rows
        oracle_rows = db.execute_sql(
            "SELECT a FROM t WHERE c = 'x' UNION SELECT a FROM t WHERE c = 'y'"
        ).rows
        assert sorted(map(_tag, rows)) == sorted(map(_tag, oracle_rows))

    def test_union_question_answered_end_to_end(self):
        from repro.bench import WorkloadGenerator, build_domain, evaluate_system
        from repro.core import NLIDBContext
        from repro.systems import AthenaNoBISystem, AthenaSystem

        database = build_domain("hr")
        context = NLIDBContext(database)
        examples = [
            e
            for e in WorkloadGenerator(database, seed=2).generate(
                ComplexityTier.NESTED, 16
            )
            if e.template == "union-or"
        ]
        assert examples, "workload generator should emit union-or examples"
        outcomes = evaluate_system(AthenaSystem(), context, examples[:3])
        assert all(o.answered and o.correct for o in outcomes)
        # Without compound interpretation none of them is answered right.
        outcomes = evaluate_system(AthenaNoBISystem(), context, examples[:3])
        assert not any(o.answered and o.correct for o in outcomes)
