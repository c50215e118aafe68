"""Tests for the vectorized columnar execution engine.

Three layers of assurance, mirroring how the row path earned trust:

1. **Differential corpora** — the planner test corpus (including its
   error cases) and the 40-statement NULL three-valued-logic corpus run
   with the columnar path enabled and must match the naive interpreter
   byte for byte (and sqlite3, for the NULL corpus).
2. **Seeded property tests** — hypothesis-generated WHERE clauses over a
   mixed-type table with NULLs, columnar vs naive.
3. **Unit tests** — filtered scans of an empty table, ColumnStore
   layout/invalidation and read-only arrays, scan
   statistics, EXPLAIN surface, fallback reasons, and bulk inserts.
4. **Prefix extension** — secondary indexes and column stores absorb
   appended rows instead of rebuilding: a differential property test
   against one-shot builds, a guard that the work is proportional to
   the append, and a concurrent reader/writer test.
"""

from __future__ import annotations

import datetime
import math
import random
import sqlite3
import sys
import threading
import time

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.bench.workload_gen import (
    SCAN_HEAVY_CLASSES,
    build_telemetry_db,
    generate_telemetry_queries,
)
from repro.sqldb import (
    Column,
    ColumnStore,
    Database,
    DataType,
    SqlError,
    TableSchema,
)
from repro.sqldb import columnar
from repro.sqldb import table as table_module
from repro.sqldb.executor import Executor
from repro.sqldb.types import hash_key

from tests.test_sqldb_null_semantics import CORPUS as NULL_CORPUS
from tests.test_sqldb_null_semantics import ROWS as NULL_ROWS
from tests.test_sqldb_null_semantics import _norm
from tests.test_sqldb_planner import (
    EMP_CORPUS,
    ERROR_CORPUS,
    SHOP_CORPUS,
    _strict_rows,
)

# ---------------------------------------------------------------------------
# Differential: columnar vs row path vs naive on the planner corpora
# ---------------------------------------------------------------------------


def assert_three_paths_agree(db, sql):
    """naive, planned row-path, and planned columnar must all agree."""
    naive = Executor(db, use_planner=False)
    row = Executor(db, use_planner=True, use_columnar=False)
    col = Executor(db, use_planner=True, use_columnar=True)
    try:
        expected = naive.execute_sql(sql)
    except SqlError as exc:
        for planned in (row, col):
            with pytest.raises(type(exc)):
                planned.execute_sql(sql)
        return
    for planned in (row, col):
        got = planned.execute_sql(sql)
        assert got.columns == expected.columns, sql
        assert _strict_rows(got) == _strict_rows(expected), sql


class TestDifferentialCorpora:
    @pytest.mark.parametrize("sql", EMP_CORPUS)
    def test_emp_corpus(self, emp_db, sql):
        assert_three_paths_agree(emp_db, sql)

    @pytest.mark.parametrize("sql", SHOP_CORPUS)
    def test_shop_corpus(self, shop_db, sql):
        assert_three_paths_agree(shop_db, sql)

    @pytest.mark.parametrize("sql", ERROR_CORPUS)
    def test_error_corpus(self, emp_db, sql):
        assert_three_paths_agree(emp_db, sql)

    def test_columnar_actually_claims_queries(self, emp_db):
        """The corpus must exercise the vectorized path, not fall back
        everywhere — otherwise the differential suite proves nothing."""
        ex = Executor(emp_db)
        for sql in EMP_CORPUS:
            try:
                ex.execute_sql(sql)
            except SqlError:
                pass
        assert ex.total_stats.vectorized >= 10

    def test_telemetry_workload(self):
        """The generated telemetry workload agrees on the naive, row and
        columnar paths, and every scan-heavy class runs on the
        vectorized kernels."""
        db = build_telemetry_db(2_000, seed=0)
        naive = Executor(db, use_planner=False)
        row = Executor(db, use_columnar=False)
        col = Executor(db)
        for query in generate_telemetry_queries(2_000, 3, seed=0):
            expected = _strict_rows(naive.execute_sql(query.sql))
            for executor in (row, col):
                assert _strict_rows(executor.execute_sql(query.sql)) == expected, query.sql
            if query.template in SCAN_HEAVY_CLASSES:
                assert col.last_stats.vectorized == 1, query.sql


# ---------------------------------------------------------------------------
# Differential: the NULL 3VL corpus vs the sqlite3 oracle, columnar on
# ---------------------------------------------------------------------------


def _null_db_and_oracle():
    """The NULL corpus's empty t(id, a, b, s) table in repro.sqldb and in
    sqlite3."""
    db = Database("nulls-columnar")
    db.create_table(
        TableSchema(
            "t",
            [
                Column("id", DataType.INTEGER, primary_key=True, nullable=False),
                Column("a", DataType.INTEGER),
                Column("b", DataType.INTEGER),
                Column("s", DataType.TEXT),
            ],
        )
    )
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (id INTEGER, a INTEGER, b INTEGER, s TEXT)")
    return db, oracle


def _normalized(rows):
    return sorted(tuple(_norm(v) for v in row) for row in rows)


@pytest.fixture
def null_engines(monkeypatch):
    db, oracle = _null_db_and_oracle()
    db.insert_many("t", [list(r) for r in NULL_ROWS])
    oracle.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", NULL_ROWS)
    # Two-row evaluation steps so even the 5-row table crosses step
    # boundaries.
    monkeypatch.setattr(columnar, "_CHUNK_ROWS", 2)
    yield Executor(db, use_columnar=True), oracle
    oracle.close()


@pytest.mark.parametrize("sql", NULL_CORPUS)
def test_null_corpus_columnar_vs_sqlite(null_engines, sql):
    executor, oracle = null_engines
    ours = _normalized(executor.execute_sql(sql).rows)
    theirs = _normalized(oracle.execute(sql).fetchall())
    assert ours == theirs, f"columnar divergence from sqlite3 on: {sql}"


# ---------------------------------------------------------------------------
# Property-based: seeded random predicates, columnar vs naive
# ---------------------------------------------------------------------------

_PROP_DB = None


def _prop_db() -> Database:
    """A 300-row mixed-type table with ~20% NULLs, fixed seed."""
    global _PROP_DB
    if _PROP_DB is None:
        rng = random.Random(20260807)
        db = Database("prop")
        db.create_table(
            TableSchema(
                "v",
                [
                    Column("id", DataType.INTEGER, primary_key=True, nullable=False),
                    Column("a", DataType.INTEGER),
                    Column("f", DataType.FLOAT),
                    Column("s", DataType.TEXT),
                    Column("d", DataType.DATE),
                ],
            )
        )
        base = datetime.date(2023, 1, 1)
        words = ["alpha", "beta", "gamma", "", "Ada", "bob"]

        def maybe(value):
            return None if rng.random() < 0.2 else value

        db.insert_many(
            "v",
            [
                [
                    i,
                    maybe(rng.randint(-50, 50)),
                    maybe(round(rng.uniform(-5.0, 5.0), 3)),
                    maybe(rng.choice(words)),
                    maybe(base + datetime.timedelta(days=rng.randint(0, 400))),
                ]
                for i in range(300)
            ],
        )
        _PROP_DB = db
    return _PROP_DB


_CMP = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


@st.composite
def _atom(draw):
    kind = draw(
        st.sampled_from(["int", "float", "text", "date", "null", "between", "in", "like"])
    )
    if kind == "int":
        return f"a {draw(_CMP)} {draw(st.integers(-60, 60))}"
    if kind == "float":
        return f"f {draw(_CMP)} {draw(st.integers(-6, 6))}.5"
    if kind == "text":
        return f"s {draw(_CMP)} '{draw(st.sampled_from(['alpha', 'Ada', 'zzz', '']))}'"
    if kind == "date":
        day = datetime.date(2023, 1, 1) + datetime.timedelta(days=draw(st.integers(0, 400)))
        return f"d {draw(_CMP)} '{day.isoformat()}'"
    if kind == "null":
        col = draw(st.sampled_from(["a", "f", "s", "d"]))
        return f"{col} IS {'NOT ' if draw(st.booleans()) else ''}NULL"
    if kind == "between":
        lo, hi = sorted(draw(st.tuples(st.integers(-60, 60), st.integers(-60, 60))))
        neg = "NOT " if draw(st.booleans()) else ""
        return f"a {neg}BETWEEN {lo} AND {hi}"
    if kind == "in":
        items = draw(st.lists(st.integers(-60, 60), min_size=1, max_size=4))
        if draw(st.booleans()):
            items = items + ["NULL"]
        neg = "NOT " if draw(st.booleans()) else ""
        return f"a {neg}IN ({', '.join(str(i) for i in items)})"
    return f"s LIKE '{draw(st.sampled_from(['a%', '%a', '_da', '%', 'alpha']))}'"


@st.composite
def _where(draw):
    expr = draw(_atom())
    for _ in range(draw(st.integers(0, 2))):
        conj = draw(st.sampled_from(["AND", "OR"]))
        rhs = draw(_atom())
        expr = f"({expr}) {conj} ({rhs})"
    if draw(st.booleans()):
        expr = f"NOT ({expr})"
    return expr


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(where=_where(), agg=st.sampled_from([
    "id",
    "COUNT(*)",
    "COUNT(a), SUM(a), MIN(a), MAX(a)",
    "AVG(a), MIN(s), MAX(d)",
    "COUNT(f), MIN(f), MAX(f)",
]))
def test_property_columnar_matches_naive(where, agg):
    db = _prop_db()
    assert_three_paths_agree(db, f"SELECT {agg} FROM v WHERE {where}")


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    where=_where(),
    key=st.sampled_from(["a", "s", "d"]),
    items=st.sampled_from([
        "COUNT(*), SUM(a)",
        "CASE WHEN COUNT(*) > 3 THEN 'many' ELSE 'few' END, MIN(f)",
    ]),
    having=st.sampled_from(["", " HAVING MAX(f) > 0 OR MIN(a) < 0"]),
)
def test_property_columnar_grouped_matches_naive(where, key, items, having):
    db = _prop_db()
    sql = (
        f"SELECT {key}, {items} FROM v WHERE {where} "
        f"GROUP BY {key}{having} ORDER BY {key}"
    )
    assert_three_paths_agree(db, sql)


# ---------------------------------------------------------------------------
# Evaluation steps: the empty table
# ---------------------------------------------------------------------------


class TestEmptyTable:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id, v FROM t WHERE v > 250 OR v IS NULL",
            "SELECT COUNT(v), SUM(v), MIN(v), MAX(v) FROM t WHERE NOT (v < 250)",
            "SELECT v, COUNT(*) FROM t WHERE v BETWEEN 100 AND 120 GROUP BY v",
            "SELECT COUNT(*) FROM t WHERE v > 250",
        ],
    )
    def test_filtered_scan_of_empty_table(self, sql):
        # An empty table is one empty evaluation step, not zero steps.
        db = Database("empty")
        db.create_table(
            TableSchema(
                "t",
                [
                    Column("id", DataType.INTEGER, primary_key=True),
                    Column("v", DataType.INTEGER),
                ],
            )
        )
        ex = Executor(db)
        got = ex.execute_sql(sql)
        assert ex.last_stats.vectorized == 1
        expected = Executor(db, use_planner=False).execute_sql(sql)
        assert _strict_rows(got) == _strict_rows(expected)


# ---------------------------------------------------------------------------
# ColumnStore layout and invalidation
# ---------------------------------------------------------------------------


class TestColumnStore:
    def _db(self):
        db = Database("cs")
        db.create_table(
            TableSchema(
                "t",
                [
                    Column("i", DataType.INTEGER, primary_key=True),
                    Column("f", DataType.FLOAT),
                    Column("s", DataType.TEXT),
                    Column("b", DataType.BOOLEAN),
                    Column("d", DataType.DATE),
                ],
            )
        )
        db.insert_many(
            "t",
            [
                [1, 1.5, "x", True, datetime.date(2023, 1, 1)],
                [2, None, None, None, None],
            ],
        )
        return db

    def test_kinds_and_null_bitmap(self):
        db = self._db()
        store = db.table("t").column_store()
        assert isinstance(store, ColumnStore)
        assert store.n_rows == 2
        by_name = dict(zip(store.column_names, store.cols))
        kinds = {name: col.kind for name, col in by_name.items()}
        assert kinds == {"i": "int", "f": "float", "s": "text", "b": "bool", "d": "date"}
        assert not by_name["i"].null.any()
        assert by_name["f"].null.tolist() == [False, True]

    def test_nul_byte_text_vectorizes(self):
        db = Database("nul")
        db.create_table(
            TableSchema("t", [Column("i", DataType.INTEGER, primary_key=True),
                              Column("s", DataType.TEXT)])
        )
        db.insert_many("t", [[1, "a\x00b"], [2, "plain"], [3, "tail\x00"], [4, None]])
        store = db.table("t").column_store()
        by_name = dict(zip(store.column_names, store.cols))
        assert by_name["s"].kind == "text"
        ex = Executor(db)
        assert ex.execute_sql("SELECT s FROM t").rows == [
            ("a\x00b",), ("plain",), ("tail\x00",), (None,)
        ]
        # (A lone ``s = ...`` would take the index scan.)
        for sql in (
            "SELECT i FROM t WHERE s = 'tail\x00' OR s = 'a\x00b'",
            "SELECT i FROM t WHERE s > 'a\x00b'",
            "SELECT i, s FROM t WHERE s LIKE 'a_b' OR s LIKE '%\x00'",
        ):
            ex.execute_sql(sql)
            assert ex.last_stats.vectorized == 1, sql
            assert_three_paths_agree(db, sql)

    def test_arrays_are_read_only(self):
        store = self._db().table("t").column_store()
        by_name = dict(zip(store.column_names, store.cols))
        for col in store.cols:
            assert not col.null.flags.writeable
            if col.values is not None:
                assert not col.values.flags.writeable
        assert not by_name["i"].as_float().flags.writeable
        # IS NULL hands out a view of the bitmap; writing through it must
        # raise instead of corrupting the shared store.
        j = store.column_names.index("f")
        truth, unknown = columnar._IsNullPred(j, False).eval(store, 0, store.n_rows)
        assert unknown is None
        assert np.shares_memory(truth, by_name["f"].null)
        with pytest.raises(ValueError):
            truth[0] = True
        assert by_name["f"].null.tolist() == [False, True]

    def test_store_invalidated_by_writes(self):
        db = self._db()
        ex = Executor(db)
        assert ex.execute_sql("SELECT COUNT(i) FROM t WHERE i > 0").rows == [(2,)]
        db.insert("t", [3, 2.5, "y", False, datetime.date(2024, 2, 2)])
        assert ex.execute_sql("SELECT COUNT(i) FROM t WHERE i > 0").rows == [(3,)]
        assert db.table("t").column_store().n_rows == 3


# ---------------------------------------------------------------------------
# Statistics and EXPLAIN surface
# ---------------------------------------------------------------------------


class TestObservability:
    def _db(self, n=700):
        db = Database("obs")
        db.create_table(
            TableSchema(
                "t",
                [
                    Column("id", DataType.INTEGER, primary_key=True),
                    Column("v", DataType.INTEGER),
                ],
            )
        )
        db.insert_many("t", [[i, i % 7] for i in range(n)])
        return db

    def test_columnar_scan_stats(self):
        ex = Executor(self._db())
        ex.execute_sql("SELECT COUNT(*) FROM t WHERE v > 3")
        stats = ex.last_stats
        assert stats.vectorized == 1
        assert stats.rows_scanned == 700
        assert stats.full_scans == 1

    def test_row_path_scan_stats(self):
        ex = Executor(self._db(), use_columnar=False)
        ex.execute_sql("SELECT COUNT(*) FROM t WHERE v > 3")
        stats = ex.last_stats
        assert stats.vectorized == 0
        assert stats.rows_scanned == 700

    def test_explain_reports_vectorized_shape(self):
        ex = Executor(self._db())
        text = ex.explain_sql("SELECT COUNT(*) FROM t WHERE v > 3")
        assert "columnar: vectorized scan+filter+aggregate" in text

    def test_explain_reports_fallback_reason(self):
        ex = Executor(self._db())
        text = ex.explain_sql("SELECT v FROM t WHERE id = 7")
        assert "columnar: row path (index scan preferred)" in text
        text = ex.explain_sql("SELECT v FROM t WHERE v + 1 > 5")
        assert "columnar: row path (comparison over computed expressions)" in text

    def test_fallback_reason_recorded_on_execute(self):
        ex = Executor(self._db())
        ex.execute_sql("SELECT COUNT(*) FROM t WHERE v + 1 > 5")
        engine = ex._columnar_engine()
        assert engine is not None
        assert engine.last_fallback == "comparison over computed expressions"
        assert ex.last_stats.vectorized == 0

    def test_joins_fall_back(self):
        db = self._db(50)
        db.create_table(
            TableSchema(
                "u",
                [Column("id", DataType.INTEGER, primary_key=True),
                 Column("w", DataType.INTEGER)],
            )
        )
        db.insert_many("u", [[i, i] for i in range(10)])
        ex = Executor(db)
        text = ex.explain_sql("SELECT t.v FROM t JOIN u ON t.v = u.id")
        assert "columnar: row path" in text


# ---------------------------------------------------------------------------
# Golden fallback reasons
# ---------------------------------------------------------------------------

#: (sql, verbatim reason) — one query per `_Unsupported` message the
#: compiler can emit for SQL text.  The remaining raise sites need
#: programmatic ASTs or non-SQL values (NaN literal, stores without
#: vectorizable storage) and are covered implicitly by the differential
#: corpora.
GOLDEN_FALLBACKS = [
    ("SELECT v FROM t WHERE u.w > 3", "column 'u.w' is outside the scanned table"),
    ("SELECT v FROM t WHERE nosuch > 1", "column 'nosuch' does not resolve locally"),
    ("SELECT v FROM t WHERE v + 1", "operator '+' in WHERE"),
    ("SELECT v FROM t WHERE v + 1 IS NULL", "IS NULL over a computed expression"),
    ("SELECT v FROM t WHERE v + 1 > 5", "comparison over computed expressions"),
    ("SELECT v FROM t WHERE v > " + "9" * 400, "integer literal beyond float range"),
    ("SELECT v FROM t WHERE f > 1", "ordering comparison on NaN-containing column 'f'"),
    ("SELECT v FROM t WHERE s > d", "DATE/TEXT column comparison needs per-row coercion"),
    ("SELECT v FROM t WHERE v LIKE 'a%'", "LIKE outside text-column-vs-pattern form"),
    ("SELECT v FROM t WHERE v + 1 IN (1, 2)", "IN over a computed operand"),
    ("SELECT v FROM t WHERE v IN (id)", "non-literal IN list item"),
    ("SELECT t.v FROM t JOIN u ON t.v = u.id", "join"),
    ("SELECT v FROM t WHERE EXISTS (SELECT id FROM u)", "subquery"),
    ("SELECT v FROM t WHERE id = 7", "index scan preferred"),
    ("SELECT COUNT(*) FROM t GROUP BY v + 1", "computed GROUP BY key"),
    ("SELECT 1", "no FROM clause"),
]


class TestGoldenFallbackReasons:
    """Every reachable `_Unsupported` reason must surface verbatim in
    EXPLAIN output as ``columnar: row path (<reason>)`` — the fallback
    boundary is a documented API, not an implementation detail."""

    @staticmethod
    def _db() -> Database:
        db = Database("golden")
        db.create_table(
            TableSchema(
                "t",
                [
                    Column("id", DataType.INTEGER, primary_key=True, nullable=False),
                    Column("v", DataType.INTEGER),
                    Column("f", DataType.FLOAT),
                    Column("s", DataType.TEXT),
                    Column("d", DataType.DATE),
                ],
            )
        )
        db.create_table(
            TableSchema(
                "u",
                [
                    Column("id", DataType.INTEGER, primary_key=True, nullable=False),
                    Column("w", DataType.INTEGER),
                ],
            )
        )
        base = datetime.date(2023, 1, 1)
        db.insert_many(
            "t",
            [
                [
                    i,
                    i % 50,
                    float("nan") if i == 3 else i / 7.0,
                    f"s{i % 9}",
                    base + datetime.timedelta(days=i % 200),
                ]
                for i in range(600)
            ],
        )
        db.insert_many("u", [[i, i] for i in range(10)])
        return db

    @pytest.mark.parametrize("sql, reason", GOLDEN_FALLBACKS)
    def test_reason_verbatim_in_explain(self, sql, reason):
        text = self._db().explain_sql(sql)
        assert f"columnar: row path ({reason})" in text, text

    @pytest.mark.parametrize(
        "sql, reason",
        [
            pair
            for pair in GOLDEN_FALLBACKS
            # The row path itself raises OverflowError (not a SqlError)
            # comparing an int beyond float range; parity is meaningless.
            if pair[1] != "integer literal beyond float range"
        ],
    )
    def test_fallback_query_still_matches_naive(self, sql, reason):
        db = self._db()
        assert_three_paths_agree(db, sql)

    def test_nul_byte_literal_vectorizes(self):
        """A text literal holding NUL, once a fallback, runs on the
        dictionary kernels."""
        db = self._db()
        sql = "SELECT v FROM t WHERE s > 'a\x00b'"
        assert "columnar: vectorized scan+filter+project" in db.explain_sql(sql)
        assert_three_paths_agree(db, sql)


# ---------------------------------------------------------------------------
# Bulk insert
# ---------------------------------------------------------------------------


class TestInsertMany:
    def _schema(self):
        return TableSchema(
            "t",
            [
                Column("id", DataType.INTEGER, primary_key=True),
                Column("v", DataType.INTEGER, nullable=True),
            ],
        )

    def test_bulk_matches_row_at_a_time(self):
        a, b = Database("a"), Database("b")
        a.create_table(self._schema())
        b.create_table(self._schema())
        rows = [[i, None if i % 5 == 0 else i * 2] for i in range(100)]
        for row in rows:
            a.insert("t", row)
        b.insert_many("t", rows)
        assert a.table("t").rows == b.table("t").rows

    def test_bulk_is_one_version_bump(self):
        db = Database("v")
        db.create_table(self._schema())
        before = db.table("t").version
        db.insert_many("t", [[i, i] for i in range(50)])
        assert db.table("t").version == before + 1

    def test_bulk_is_all_or_nothing(self):
        db = Database("atomic")
        db.create_table(self._schema())
        with pytest.raises(SqlError):
            db.insert_many("t", [[1, 1], [2, 2], ["bogus", 3]])  # type error in row 3
        assert db.table("t").rows == []


# ---------------------------------------------------------------------------
# Prefix extension: indexes and column stores absorb appended rows
# ---------------------------------------------------------------------------


def _one_shot_index(table, column):
    """Reference hash index over all current rows, built from scratch."""
    j = table.schema.column_index(column)
    mapping = {}
    for pos, row in enumerate(table.rows):
        if row[j] is not None:
            mapping.setdefault(hash_key(row[j]), []).append(pos)
    return mapping


def _comparable_index(mapping):
    """NaN keys are unique per ``hash_key`` call, so NaN entries compare
    by their position lists only."""
    plain = {key: positions for key, positions in mapping.items() if key[0] != "nan"}
    nans = sorted(positions for key, positions in mapping.items() if key[0] == "nan")
    return plain, nans


def assert_structures_match_one_shot(table):
    """The maintained column store equals a one-shot build of the same
    rows field by field, and every maintained index equals a fresh one."""
    store = table.column_store()
    assert store.n_rows == len(table.rows)
    assert store.column_names == list(table.schema.column_names)
    for got, column in zip(store.cols, table.schema.columns):
        want = columnar._build_column(table.column_values(column.name), column.dtype)
        assert got.kind == want.kind, column.name
        if want.values is None:
            assert got.values is None, column.name
        else:
            assert got.values.dtype == want.values.dtype, column.name
            assert got.values.tobytes() == want.values.tobytes(), column.name
        assert len(got.dictionary) == len(want.dictionary), column.name
        assert all(a is b for a, b in zip(got.dictionary, want.dictionary)), column.name
        assert got.null.dtype == want.null.dtype
        assert got.null.tolist() == want.null.tolist(), column.name
        assert len(got.pylist) == len(want.pylist)
        assert all(a is b for a, b in zip(got.pylist, want.pylist)), column.name
        assert (got.has_null, got.has_nan, got.abs_max, got.int_sum_safe) == (
            want.has_null,
            want.has_nan,
            want.abs_max,
            want.int_sum_safe,
        ), column.name
    for column in table.schema.column_names:
        assert _comparable_index(table.secondary_index(column)) == _comparable_index(
            _one_shot_index(table, column)
        ), column


_EXT_COLUMNS = [
    Column("id", DataType.INTEGER, nullable=False),
    Column("big", DataType.INTEGER),
    Column("f", DataType.FLOAT),
    Column("s", DataType.TEXT),
    Column("b", DataType.BOOLEAN),
    Column("d", DataType.DATE),
    Column("nothing", DataType.INTEGER),
    Column("blank", DataType.TEXT),
]


def _ext_table():
    db = Database("ext")
    return db.create_table(TableSchema("t", list(_EXT_COLUMNS)))


def _store_columns(table):
    """Column name → ColumnData of the table's current store."""
    store = table.column_store()
    return dict(zip(store.column_names, store.cols))


def _nullable(strategy):
    return st.one_of(st.none(), strategy)


#: magnitudes around the int64 edge and the 2**62 sum-safety bound
_EDGE_INTS = [2**61, -(2**61), 2**62, 2**63 - 1, -(2**63), 2**63, 2**70, -(2**70)]

_ext_row = st.tuples(
    st.integers(-5, 40),
    _nullable(st.one_of(st.integers(-1000, 1000), st.sampled_from(_EDGE_INTS))),
    _nullable(
        st.one_of(
            st.floats(-1e6, 1e6),
            st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
        )
    ),
    _nullable(
        st.one_of(
            st.text(max_size=8),
            st.text(min_size=65, max_size=70),
            st.sampled_from(["a\x00b", "tail\x00", "2024-02-29", ""]),
        )
    ),
    _nullable(st.booleans()),
    _nullable(st.dates()),
    st.none(),
    st.none(),
)

#: a row every all-or-nothing batch rejects (NULL in the NOT NULL id)
_BAD_ROW = (None, 1, 1.0, "x", True, datetime.date(2024, 1, 1), None, None)

_ext_write = st.one_of(
    st.tuples(st.just("insert"), _ext_row),
    st.tuples(st.just("insert_many"), st.lists(_ext_row, max_size=6)),
    st.tuples(
        st.just("reject"),
        st.tuples(st.lists(_ext_row, max_size=3), st.lists(_ext_row, max_size=3)),
    ),
)

#: one write, then which structures to bring up to date before the next
_ext_step = st.tuples(_ext_write, st.sampled_from(["none", "store", "index", "both"]))


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=st.lists(_ext_step, max_size=16))
def test_extension_matches_one_shot_build(steps):
    """Any sequence of inserts, bulk inserts, empty and rejected batches,
    with the structures extended at random points in between, leaves
    them equal to a one-shot build."""
    table = _ext_table()
    for (kind, arg), extend in steps:
        if kind == "insert":
            table.insert(arg)
        elif kind == "insert_many":
            assert table.insert_many(arg) == len(arg)
        else:
            before, version = list(table.rows), table.version
            with pytest.raises(SqlError):
                table.insert_many(arg[0] + [_BAD_ROW] + arg[1])
            assert table.rows == before and table.version == version
        if extend in ("store", "both"):
            table.column_store()
        if extend in ("index", "both"):
            for column in table.schema.column_names:
                table.secondary_index(column)
    assert_structures_match_one_shot(table)


def test_extension_covers_edge_values():
    """The property's edge cases, pinned: the empty table, all-NULL
    columns, INTEGER beyond int64 arriving late, text over 64 chars or
    holding NUL arriving late, a late NaN, and int_sum_safe flipping as
    the row count grows."""
    table = _ext_table()
    assert_structures_match_one_shot(table)
    cols = _store_columns(table)
    assert cols["nothing"].kind == "int" and cols["blank"].kind == "text"
    base = (1, 2**61, 1.5, "abc", True, datetime.date(2024, 1, 1), None, None)
    table.insert(base)
    table.insert(base)
    assert_structures_match_one_shot(table)
    assert _store_columns(table)["big"].int_sum_safe  # 2 rows * 2**61 fits 2**62
    table.insert(base)
    assert not _store_columns(table)["big"].int_sum_safe
    late = [
        (2, 2**70, math.nan, "w" * 65, None, None, None, None),
        (3, 5, 2.0, "a\x00b", False, datetime.date(1999, 12, 31), None, None),
    ]
    for row in late:
        table.insert(row)
        assert_structures_match_one_shot(table)
    cols = _store_columns(table)
    assert cols["big"].kind == "other" and cols["s"].kind == "text"
    assert cols["f"].has_nan
    assert cols["nothing"].null.all() and cols["blank"].null.all()


def test_dictionary_extends_in_first_seen_order():
    """Appends (an all-NULL batch, repeated and fresh values) extend the
    text dictionary in first-seen order, equal to a one-shot build, and
    leave an earlier store's dictionary untouched."""

    def row(i, s):
        return (i, None, None, s, None, None, None, None)

    table = _ext_table()
    table.insert_many([row(0, "b"), row(1, "a"), row(2, "b")])
    first = _store_columns(table)["s"]
    assert first.dictionary == ["b", "a"]
    assert first.values.tolist() == [0, 1, 0]
    table.insert_many([row(3, None), row(4, None)])
    same = _store_columns(table)["s"]
    assert same.dictionary is first.dictionary
    assert same.values.tolist() == [0, 1, 0, -1, -1]
    table.insert_many([row(5, "c"), row(6, "a"), row(7, None), row(8, "d" * 70)])
    cols = _store_columns(table)
    assert cols["s"].dictionary == ["b", "a", "c", "d" * 70]
    assert cols["s"].values.tolist() == [0, 1, 0, -1, -1, 2, 1, -1, 3]
    assert first.dictionary == ["b", "a"]
    assert first.values.tolist() == [0, 1, 0]
    assert cols["blank"].dictionary == [] and cols["blank"].null.all()
    assert_structures_match_one_shot(table)


@pytest.mark.parametrize("sql", NULL_CORPUS)
def test_null_corpus_after_interleaved_writes(sql, monkeypatch):
    """The NULL/3VL corpus against sqlite3 after every step of a write
    sequence, so each read runs on indexes and stores extended by the
    step's rows (single inserts, bulk batches, an empty batch)."""
    monkeypatch.setattr(columnar, "_CHUNK_ROWS", 2)
    db, oracle = _null_db_and_oracle()
    engines = [
        Executor(db, use_columnar=True),
        Executor(db, use_columnar=False),
    ]
    steps = [NULL_ROWS[:1], [], NULL_ROWS[1:3], NULL_ROWS[3:4], NULL_ROWS[4:]]
    try:
        for step in steps:
            if len(step) == 1:
                db.insert("t", list(step[0]))
            else:
                db.insert_many("t", [list(r) for r in step])
            oracle.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", step)
            theirs = _normalized(oracle.execute(sql).fetchall())
            for executor in engines:
                ours = _normalized(executor.execute_sql(sql).rows)
                assert ours == theirs, f"divergence from sqlite3 after {len(step)} rows: {sql}"
    finally:
        oracle.close()


def test_extension_work_is_proportional_to_append(monkeypatch):
    """After a k-row append to an n-row table, the next index lookup
    hashes exactly k values and the next column store converts exactly
    k rows per column; with nothing appended, neither does any work."""
    n, k = 400, 9
    table = _ext_table()
    rows = [
        (i, i * 3, i / 2, f"v{i}", i % 2 == 0, datetime.date(2024, 1, 1), None, None)
        for i in range(n + k)
    ]
    table.insert_many(rows[:n])
    table.secondary_index("id")
    table.column_store()

    hashed = []
    converted = []
    real_hash, real_build = table_module.hash_key, columnar._build_column

    def counting_hash(value):
        hashed.append(value)
        return real_hash(value)

    def counting_build(values, dtype):
        converted.append(len(values))
        return real_build(values, dtype)

    monkeypatch.setattr(table_module, "hash_key", counting_hash)
    monkeypatch.setattr(columnar, "_build_column", counting_build)
    table.insert_many(rows[n:])
    table.secondary_index("id")
    table.column_store()
    assert len(hashed) == k
    assert converted == [k] * len(_EXT_COLUMNS)
    table.secondary_index("id")
    table.column_store()
    assert len(hashed) == k
    assert converted == [k] * len(_EXT_COLUMNS)
    assert_structures_match_one_shot(table)


def test_concurrent_readers_see_consistent_extensions():
    """Eight readers extend the ``id`` index and the column store while
    a writer appends batches.  No reader may see a doubled or lost
    delta: every row that existed before the call is indexed exactly
    once, and every store's arrays match its own ``n_rows``.  The final
    structures (positions in range, none duplicated) equal a fresh
    build."""
    table = _ext_table()

    def row(i):
        return (i, i, float(i), f"r{i}", None, None, None, None)

    table.insert_many([row(i) for i in range(200)])
    stop = threading.Event()
    failures = []

    def reader():
        try:
            while not stop.is_set():
                before = len(table.rows)
                index = table.secondary_index("id")
                store = table.column_store()
                after = len(table.rows)
                # Other readers may be extending ``index`` in place, so
                # read it only through single dict operations; a row
                # appended since ``before`` may be indexed or not yet.
                for i in range(after):
                    positions = index.get(hash_key(i))
                    if i < before:
                        assert positions == [i], "duplicated or lost position"
                    else:
                        assert positions in (None, [], [i]), "duplicated position"
                assert before <= len(index) <= len(table.rows)
                assert before <= store.n_rows <= len(table.rows)
                for col in store.cols:
                    assert len(col.null) == len(col.pylist) == store.n_rows
                ids = store.cols[0].values
                assert ids.tolist() == list(range(store.n_rows)), "doubled or lost store delta"
        except Exception as exc:  # reported by the main thread
            failures.append(exc)
            stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=reader) for _ in range(8)]
    try:
        for thread in threads:
            thread.start()
        next_id = 200
        for batch in range(60):
            if batch % 3 == 0:
                table.insert(row(next_id))
                next_id += 1
            else:
                size = 1 + batch * 7 % 97
                table.insert_many([row(i) for i in range(next_id, next_id + size)])
                next_id += size
            time.sleep(0.0005)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
    assert len(table.rows) == next_id
    assert_structures_match_one_shot(table)
