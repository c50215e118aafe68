"""Text semantics against sqlite3 on the naive, row and columnar paths.

1. **LIKE corpus** — values holding newlines, ASCII and non-ASCII case
   pairs (``É``/``é``, the Kelvin sign beside ``k``/``K``) under ten
   patterns.  sqlite3's ``LIKE`` folds ASCII letters only, and ``_`` and
   ``%`` match a newline like any other character.
2. **Generated text differential** — a seeded hypothesis property over a
   table with two TEXT columns: short words in several cases, the empty
   string, strings over 64 characters, strings holding NUL, newlines,
   ``É``/``é`` or the Kelvin sign, ISO-date-shaped strings, and about a
   quarter NULLs.  Random batches are appended between statements, so
   the column stores extend with fresh and repeated values.  Every
   statement must agree on the three paths and run on the vectorized
   kernels (unless the planner answers it from an index), and agree
   with sqlite3 except where a difference is deliberate:

   - a text column against a numeric literal is a comparison across
     type families, which is false here (sqlite3 converts the number to
     text);
   - sqlite3's ``LIKE`` stops at a NUL character (``'a' || char(0) ||
     'b' LIKE 'a'`` is true there), so a ``LIKE`` statement over a table
     holding NUL is checked on the three paths only.
"""

from __future__ import annotations

import sqlite3

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.sqldb import Column, Database, DataType, TableSchema
from repro.sqldb import columnar

from tests.test_sqldb_dialect import _paths


def _tagged(rows):
    """Rows with type tags, so 1 vs 1.0 vs TRUE differences are caught."""
    return [tuple((type(v).__name__, v) for v in row) for row in rows]


def _multiset(rows):
    return sorted(_tagged(rows), key=repr)


def _text_db(rows):
    """t(id, s, u) in repro.sqldb and in sqlite3, holding ``rows``."""
    db = Database("text")
    db.create_table(
        TableSchema(
            "t",
            [
                Column("id", DataType.INTEGER, nullable=False),
                Column("s", DataType.TEXT),
                Column("u", DataType.TEXT),
            ],
        )
    )
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (id INTEGER, s TEXT, u TEXT)")
    if rows:
        db.insert_many("t", [list(row) for row in rows])
        oracle.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
    return db, oracle


# ---------------------------------------------------------------------------
# LIKE corpus
# ---------------------------------------------------------------------------

KELVIN = "\u212a"

LIKE_ROWS = [
    (1, "a\nb", None),
    (2, "ab\n", None),
    (3, "A\nB", None),
    (4, "ab", None),
    (5, "É", None),
    (6, "é", None),
    (7, KELVIN, None),
    (8, "k", None),
    (9, "K", None),
    (10, None, None),
]

#: (pattern, ids sqlite3 3.40 returns for ``s LIKE pattern``)
LIKE_CORPUS = [
    ("a_b", [1, 3]),
    ("a%", [1, 2, 3, 4]),
    ("ab", [4]),
    ("ab_", [2]),
    ("%b", [1, 3, 4]),
    ("é", [6]),
    ("É", [5]),
    ("k", [8, 9]),
    ("K", [8, 9]),
    ("_", [5, 6, 7, 8, 9]),
]


@pytest.fixture
def like_engines(monkeypatch):
    # Two-row evaluation steps so the columnar path crosses steps.
    monkeypatch.setattr(columnar, "_CHUNK_ROWS", 2)
    db, oracle = _text_db(LIKE_ROWS)
    yield db, oracle
    oracle.close()


@pytest.mark.parametrize("pattern, ids", LIKE_CORPUS)
@pytest.mark.parametrize("negated", [False, True])
def test_like_matches_sqlite(like_engines, pattern, ids, negated):
    db, oracle = like_engines
    sql = f"SELECT id FROM t WHERE s {'NOT ' if negated else ''}LIKE '{pattern}' ORDER BY id"
    expected = oracle.execute(sql).fetchall()
    if not negated:
        assert [row[0] for row in expected] == ids
    for executor in _paths(db):
        assert executor.execute_sql(sql).rows == expected, sql


# ---------------------------------------------------------------------------
# Generated text differential
# ---------------------------------------------------------------------------

_WORDS = ["alpha", "Alpha", "ALPHA", "beta", "Beta", "b", "B", "ab", "aB", "k", ""]
_ODD = ["a\x00b", "tail\x00", "a\nb", "ab\n", "É", "é", KELVIN, "Ék"]
_DATES = ["2024-02-29", "2023-01-01", "2023-1-01", "2023-13-01", "2024-01-01x"]
_LONG = st.builds(lambda word, n: word + "x" * n, st.sampled_from(_WORDS), st.integers(65, 70))

_value = st.one_of(
    st.sampled_from(_WORDS),
    st.sampled_from(_ODD),
    st.sampled_from(_DATES),
    _LONG,
    st.text(alphabet="aAbBéÉ\n\x00-1", max_size=4),
)
#: about a quarter NULL
_cell = st.tuples(st.integers(0, 3), _value).map(lambda pair: None if pair[0] == 0 else pair[1])
_batch = st.lists(st.tuples(_cell, _cell), max_size=6)

#: literals a statement compares with: no NUL (sqlite3 would cut the SQL
#: text there) and no quote
_TEXT_LITS = ["alpha", "Alpha", "b", "B", "", "k", "é", "É", "2024-02-29", "2023-01-01",
              "a" * 66]
_PATTERNS = ["a%", "A%", "%a", "_", "%", "b_", "%B%", "_é", "k", "K", "2024-%", "%x"]
_CMP = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
_COL = st.sampled_from(["s", "u"])


def _quoted(text):
    return "'" + text + "'"


@st.composite
def _atom(draw):
    """One predicate and whether sqlite3 is an oracle for it."""
    col = draw(_COL)
    kind = draw(st.sampled_from(
        ["text", "number", "null", "like", "in", "between", "is_null", "col_col"]
    ))
    neg = "NOT " if draw(st.booleans()) else ""
    if kind == "text":
        return f"{col} {draw(_CMP)} {_quoted(draw(st.sampled_from(_TEXT_LITS)))}", True
    if kind == "number":
        return f"{col} {draw(_CMP)} {draw(st.sampled_from(['1', '0', '2024', '-1.5']))}", False
    if kind == "null":
        return f"{col} {draw(_CMP)} NULL", True
    if kind == "like":
        return f"{col} {neg}LIKE {_quoted(draw(st.sampled_from(_PATTERNS)))}", True
    if kind == "in":
        items = draw(st.lists(st.sampled_from(_TEXT_LITS), min_size=1, max_size=3))
        items = [_quoted(item) for item in items]
        if draw(st.booleans()):
            items.append("NULL")
        return f"{col} {neg}IN ({', '.join(items)})", True
    if kind == "between":
        lo, hi = sorted(draw(st.lists(st.sampled_from(_TEXT_LITS), min_size=2, max_size=2)))
        return f"{col} {neg}BETWEEN {_quoted(lo)} AND {_quoted(hi)}", True
    if kind == "is_null":
        return f"{col} IS {neg}NULL", True
    return f"s {draw(_CMP)} u", True


@st.composite
def _where(draw):
    expr, oracle = draw(_atom())
    for _ in range(draw(st.integers(0, 2))):
        rhs, rhs_oracle = draw(_atom())
        expr = f"({expr}) {draw(st.sampled_from(['AND', 'OR']))} ({rhs})"
        oracle = oracle and rhs_oracle
    if draw(st.booleans()):
        expr = f"NOT ({expr})"
    return expr, oracle


_SHAPES = [
    ("SELECT id, s, u FROM t WHERE {w}", False),
    ("SELECT COUNT(*) FROM t WHERE {w}", False),
    ("SELECT MIN(s), MAX(s), COUNT(s), MIN(u), MAX(u) FROM t WHERE {w}", False),
    ("SELECT s, COUNT(*), MIN(u), MAX(u) FROM t WHERE {w} GROUP BY s", False),
    ("SELECT u, COUNT(u), MIN(s), MAX(s) FROM t WHERE {w} GROUP BY u ORDER BY u", True),
]


@st.composite
def _statement(draw):
    """``(sql, ordered, sqlite3 is an oracle)``."""
    shape, ordered = draw(st.sampled_from(_SHAPES))
    where, oracle = draw(_where())
    return shape.format(w=where), ordered, oracle


_step = st.tuples(_batch, _statement())


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=st.lists(_step, min_size=1, max_size=6))
def test_generated_text_statements_match(steps):
    db, oracle = _text_db([])
    paths = _paths(db)
    next_id = 0
    try:
        with pytest.MonkeyPatch.context() as patch:
            # Three-row evaluation steps, so scans cross step boundaries.
            patch.setattr(columnar, "_CHUNK_ROWS", 3)
            for batch, (sql, ordered, oracle_ok) in steps:
                rows = [(next_id + k, s, u) for k, (s, u) in enumerate(batch)]
                next_id += len(rows)
                db.insert_many("t", [list(row) for row in rows])
                oracle.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
                _check(db, oracle, paths, sql, ordered, oracle_ok)
    finally:
        oracle.close()


def _check(db, oracle, paths, sql, ordered, oracle_ok):
    naive, row, col = paths
    expected = naive.execute_sql(sql)
    for planned in (row, col):
        got = planned.execute_sql(sql)
        assert got.columns == expected.columns, sql
        assert _tagged(got.rows) == _tagged(expected.rows), sql
    # Every statement runs on the vectorized kernels, unless the planner
    # answers it from a secondary index.
    reason = col._columnar_engine().last_fallback
    assert col.last_stats.vectorized == 1 or reason == "index scan preferred", (sql, reason)
    holds_nul = any(
        value is not None and "\x00" in value
        for record in db.table("t").rows
        for value in record[1:]
    )
    if not oracle_ok or (holds_nul and "LIKE" in sql):
        return
    theirs = oracle.execute(sql).fetchall()
    if ordered:
        assert _tagged(expected.rows) == _tagged(theirs), sql
    else:
        assert _multiset(expected.rows) == _multiset(theirs), sql
