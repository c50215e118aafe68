"""Subquery evaluation: uncorrelated subqueries run once per statement
execution, ``IN`` probes a hash set, and both match sqlite3.

Every corpus statement runs on the naive interpreter, the planned row
path and the planned columnar path (which hands subqueries to the row
path), and must match the stdlib sqlite3 oracle as a type-tagged
multiset (ordered when it carries a top-level ORDER BY).  The run-count
tests pin when a subquery's query runs: once per execution when it reads
nothing from enclosing rows, once per outer row when it does — including
a name that only a *sibling* subquery binds, which resolves outward.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.sqldb import Column, Database, DataType, SqlError, TableSchema
from repro.sqldb import columnar
from repro.sqldb.executor import Executor
from repro.sqldb.parser import parse_select

TABLES = {
    "t": (("a", DataType.INTEGER), ("g", DataType.INTEGER)),
    "u": (("b", DataType.INTEGER),),
    "v": (("g", DataType.INTEGER),),
    "w": (("f", DataType.INTEGER),),
    "n": (("x", DataType.INTEGER),),
    "fl": (("y", DataType.FLOAT),),
    "p": (("k", DataType.INTEGER),),
    "zeros": (("z", DataType.INTEGER),),
    "empty": (("e", DataType.INTEGER),),
}
ROWS = {
    "t": [(1, 10), (2, 20), (3, 30)],
    "u": [(1,), (2,), (3,)],
    "v": [(1,), (2,), (3,)],
    "w": [(20,)],
    "n": [(2,), (None,)],
    "fl": [(2.0,), (3.5,)],
    "p": [(1,), (None,)],
    "zeros": [(0,)],
    "empty": [],
}

SIBLING_SCOPE = (
    "SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE b IN (SELECT g FROM v) "
    "AND EXISTS (SELECT 1 FROM w WHERE w.f = g)) ORDER BY a"
)

#: statements every path must answer as sqlite3 does
CORPUS = [
    # -- uncorrelated IN, with and without a NULL in the set ------------------
    "SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE b > 1)",
    "SELECT a FROM t WHERE a IN (SELECT x FROM n)",
    "SELECT a, a IN (SELECT x FROM n) FROM t",
    "SELECT a, a IN (SELECT y FROM fl) FROM t",
    "SELECT a FROM t WHERE a IN (SELECT b AS m FROM u ORDER BY m DESC LIMIT 2)",
    # -- NOT IN with a NULL: a miss is unknown --------------------------------
    "SELECT a FROM t WHERE a NOT IN (SELECT x FROM n)",
    "SELECT a, a NOT IN (SELECT x FROM n) FROM t",
    "SELECT a FROM t WHERE a NOT IN (SELECT x FROM n WHERE x IS NOT NULL)",
    # -- a NULL operand: NULL IN (empty) is false, otherwise unknown ----------
    "SELECT k, k IN (SELECT e FROM empty), k NOT IN (SELECT e FROM empty) FROM p",
    "SELECT k, k IN (SELECT x FROM n), k IN (SELECT b FROM u) FROM p",
    # -- scalar subqueries compared per row, and EXISTS -----------------------
    "SELECT a FROM t WHERE g > (SELECT AVG(g) FROM t)",
    "SELECT a, (SELECT MAX(b) FROM u) FROM t",
    "SELECT a, g - (SELECT MIN(f) FROM w) FROM t",
    "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM w)",
    "SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM empty)",
    "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM empty)",
    # -- correlated subqueries still run per row ------------------------------
    "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM w WHERE w.f = t.g)",
    "SELECT a, (SELECT COUNT(*) FROM u WHERE u.b < t.a) FROM t",
    "SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE b <> t.a - 1)",
    # an uncorrelated subquery nested in a correlated one
    "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.b = t.a "
    "AND u.b IN (SELECT x FROM n))",
    # -- under an empty outer input the subquery never runs -------------------
    "SELECT e FROM empty WHERE e IN (SELECT 1 / z FROM zeros)",
    "SELECT e FROM empty WHERE e > (SELECT 1 / z FROM zeros)",
    "SELECT e, (SELECT 1 / z FROM zeros) FROM empty",
    # -- a name only a sibling subquery binds resolves outward ----------------
    SIBLING_SCOPE,
]


@pytest.fixture
def engines(monkeypatch):
    """The tables above in repro.sqldb and in sqlite3."""
    # Two-row evaluation steps, so the columnar path crosses step
    # boundaries even on these few-row tables.
    monkeypatch.setattr(columnar, "_CHUNK_ROWS", 2)
    db = Database("subqueries")
    oracle = sqlite3.connect(":memory:")
    for name, columns in TABLES.items():
        db.create_table(TableSchema(name, [Column(c, dtype) for c, dtype in columns]))
        db.insert_many(name, [list(row) for row in ROWS[name]])
        kinds = {DataType.INTEGER: "INTEGER", DataType.FLOAT: "REAL"}
        oracle.execute(
            f"CREATE TABLE {name} ({', '.join(f'{c} {kinds[d]}' for c, d in columns)})"
        )
        marks = ", ".join("?" for _ in columns)
        oracle.executemany(f"INSERT INTO {name} VALUES ({marks})", ROWS[name])
    yield db, oracle
    oracle.close()


def _tag(row):
    """Type-tagged comparison key: 1, 1.0 and TRUE equal (sqlite3 has no
    boolean type), NULL and text apart."""
    out = []
    for v in row:
        if v is None:
            out.append((0, ""))
        elif isinstance(v, (int, float)):
            out.append((1, float(v)))
        else:
            out.append((2, str(v)))
    return tuple(out)


def _paths(db):
    return (
        Executor(db, use_planner=False),
        Executor(db, use_planner=True, use_columnar=False),
        Executor(db, use_planner=True, use_columnar=True),
    )


@pytest.mark.parametrize("sql", CORPUS)
def test_matches_sqlite(engines, sql):
    db, oracle = engines
    ordered = "ORDER BY a" in sql
    expected = [_tag(r) for r in oracle.execute(sql).fetchall()]
    if not ordered:
        expected = sorted(expected)
    for executor in _paths(db):
        got = [_tag(r) for r in executor.execute_sql(sql).rows]
        if not ordered:
            got = sorted(got)
        assert got == expected, sql


def test_sibling_scope_answer(engines):
    db, _ = engines
    for executor in _paths(db):
        assert executor.execute_sql(SIBLING_SCOPE).rows == [(2,)]


def test_zero_division_subquery_raises_over_rows(engines):
    """The empty-outer corpus lines are meaningful: over a non-empty
    outer table the same subquery raises (sqlite3 would return NULL)."""
    db, _ = engines
    for executor in _paths(db):
        with pytest.raises(SqlError):
            executor.execute_sql("SELECT a FROM t WHERE a IN (SELECT 1 / z FROM zeros)")


@pytest.fixture
def runs(monkeypatch):
    """Texts of the subqueries whose query ran, one entry per run."""
    ran = []
    real = Executor._run_subquery

    def counting(self, expr, scope):
        ran.append(expr.query.to_sql())
        return real(self, expr, scope)

    monkeypatch.setattr(Executor, "_run_subquery", counting)
    return ran


@pytest.mark.parametrize(
    "sql, inner, expected_runs",
    [
        ("SELECT a FROM t WHERE a IN (SELECT x FROM n)", "SELECT x FROM n", 1),
        ("SELECT a FROM t WHERE a NOT IN (SELECT x FROM n)", "SELECT x FROM n", 1),
        ("SELECT a, (SELECT MAX(b) FROM u) FROM t", "SELECT MAX(b) FROM u", 1),
        ("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM w)", "SELECT 1 FROM w", 1),
        (
            "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM w WHERE w.f = t.g)",
            "SELECT 1 FROM w WHERE w.f = t.g",
            3,
        ),
        (
            "SELECT a, (SELECT COUNT(*) FROM u WHERE u.b < a) FROM t",
            "SELECT COUNT(*) FROM u WHERE u.b < a",
            3,
        ),
        # the sibling-scope subquery reads t.g, so it runs per row of t,
        # while its uncorrelated IN (SELECT g FROM v) runs once in all
        (SIBLING_SCOPE, "SELECT g FROM v", 1),
        (SIBLING_SCOPE, "SELECT 1 FROM w WHERE w.f = g", 9),
        ("SELECT e FROM empty WHERE e IN (SELECT 1 / z FROM zeros)", "SELECT 1 / z FROM zeros", 0),
    ],
)
def test_runs_per_execution(engines, runs, sql, inner, expected_runs):
    db, _ = engines
    inner = parse_select(inner).to_sql()
    for executor in _paths(db):
        runs.clear()
        executor.execute_sql(sql)
        assert runs.count(inner) == expected_runs, (sql, executor.use_planner)


def test_evaluations_still_counted(engines, runs):
    db, _ = engines
    executor = Executor(db)
    executor.execute_sql("SELECT a FROM t WHERE a IN (SELECT x FROM n)")
    assert len(runs) == 1
    assert executor.last_stats.subqueries == 3


def test_result_not_kept_across_statements(engines, runs):
    db, _ = engines
    executor = Executor(db)
    sql = "SELECT a FROM t WHERE g IN (SELECT f FROM w)"
    assert executor.execute_sql(sql).rows == [(2,)]
    db.insert("w", [30])
    assert executor.execute_sql(sql).rows == [(2,), (3,)]
    assert len(runs) == 2
