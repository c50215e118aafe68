"""Tests for the static inference pass (nullability, constant facts,
predicate verdicts) and for the engine paths around it:

1. **Core** — :mod:`repro.sqldb.inference` unit tests: interval algebra,
   per-expression facts, three-valued truth verdicts, and WHERE-report
   issues.
2. **Analyzer** — SQL501/502/503 warnings with source spans.
3. **Columnar** — the ``(true, unknown)`` mask connectives against the
   Kleene helpers of :mod:`repro.sqldb.types` (the one definition the
   row path and the inference pass also use), and the two-valued
   representation of NULL-free predicates (``unknown is None``).

Plans are never rewritten from inference verdicts.  The differential
section runs the NULL corpus and generated predicates through
planned-row and columnar execution against the naive interpreter (the
planner corpora run in ``tests/test_sqldb_columnar.py``), and checks the
shapes a plan rewriter would target (tautologies, implied and
contradictory ranges, literal arithmetic, ``IS NOT NULL`` on a NOT NULL
column) against sqlite3.
"""

from __future__ import annotations

import datetime
import itertools
import sqlite3

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.sqldb import (
    Column,
    Database,
    DataType,
    TableSchema,
    parse_expression,
    parse_select,
)
from repro.bench.workload_gen import build_telemetry_db, telemetry_schema
from repro.sqldb import columnar, types
from repro.sqldb.executor import Executor
from repro.sqldb.inference import (
    ALWAYS,
    MAYBE,
    NEVER,
    Interval,
    Resolver,
    fact,
    infer_where,
    truth,
)
from repro.sqldb.ast import split_conjuncts

from tests.test_sqldb_columnar import _prop_db, _where, assert_three_paths_agree
from tests.test_sqldb_null_semantics import CORPUS as NULL_CORPUS
from tests.test_sqldb_null_semantics import ROWS as NULL_ROWS
from tests.test_sqldb_planner import _strict_rows

# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def _schema() -> TableSchema:
    return TableSchema(
        "t",
        [
            Column("id", DataType.INTEGER, primary_key=True, nullable=False),
            Column("a", DataType.INTEGER),
            Column("f", DataType.FLOAT),
            Column("s", DataType.TEXT),
            Column("d", DataType.DATE),
        ],
    )


def _resolver() -> Resolver:
    return Resolver([("t", _schema())])


def _db(n: int = 40) -> Database:
    db = Database("inference")
    db.create_table(_schema())
    base = datetime.date(2023, 1, 1)
    db.insert_many(
        "t",
        [
            [
                i,
                None if i % 7 == 0 else i % 10,
                i / 4.0,
                None if i % 11 == 0 else f"s{i % 5}",
                base + datetime.timedelta(days=i % 30),
            ]
            for i in range(n)
        ],
    )
    return db


def _conjuncts(where_sql: str):
    return split_conjuncts(parse_expression(where_sql))


# ---------------------------------------------------------------------------
# Interval algebra
# ---------------------------------------------------------------------------


class TestInterval:
    def test_empty_when_bounds_cross(self):
        assert Interval(5.0, 3.0).is_empty()
        assert not Interval(3.0, 5.0).is_empty()

    def test_point_interval_open_endpoints(self):
        assert not Interval(5.0, 5.0).is_empty()
        assert Interval(5.0, 5.0, low_open=True).is_empty()
        assert Interval(5.0, 5.0, high_open=True).is_empty()

    def test_intersect_tightens_both_sides(self):
        got = Interval(1.0, 10.0).intersect(Interval(3.0, 20.0, low_open=True))
        assert (got.low, got.high, got.low_open, got.high_open) == (3.0, 10.0, True, False)

    def test_intersect_unbounded_identity(self):
        iv = Interval(2.0, 4.0, high_open=True)
        got = Interval().intersect(iv)
        assert (got.low, got.high, got.high_open) == (2.0, 4.0, True)

    def test_str_renderings(self):
        assert str(Interval(5.0, 5.0)) == "{5}"
        assert str(Interval(5.0, None, low_open=True)) == "(5, inf)"
        assert str(Interval(None, 3.0, high_open=True)) == "(-inf, 3)"
        assert str(Interval(1.0, 2.0)) == "[1, 2]"


# ---------------------------------------------------------------------------
# Facts and truth verdicts
# ---------------------------------------------------------------------------


class TestFacts:
    def test_not_null_column_is_never_null(self):
        f = fact(parse_expression("id"), _resolver())
        assert f.nullability == NEVER
        assert f.pure

    def test_nullable_column_is_maybe_null(self):
        f = fact(parse_expression("a"), _resolver())
        assert f.nullability == MAYBE

    def test_literal_constants(self):
        f = fact(parse_expression("7"), _resolver())
        assert f.known and f.const == 7 and f.nullability == NEVER
        f = fact(parse_expression("NULL"), _resolver())
        assert f.known and f.const is None and f.nullability == ALWAYS

    def test_arithmetic_over_literals_is_constant(self):
        f = fact(parse_expression("2 + 3 * 4"), _resolver())
        assert f.known and f.const == 14

    def test_unresolved_column_yields_no_claims(self):
        f = fact(parse_expression("nosuch"), _resolver())
        assert f.nullability == MAYBE and not f.pure


class TestTruth:
    def test_constant_comparison_always_true(self):
        t = truth(parse_expression("1 = 1"), _resolver())
        assert t.always_true

    def test_constant_comparison_never_true(self):
        t = truth(parse_expression("1 = 2"), _resolver())
        assert t.never_true

    def test_null_comparison_never_true(self):
        t = truth(parse_expression("a = NULL"), _resolver())
        assert t.never_true

    def test_is_not_null_on_not_null_column(self):
        t = truth(parse_expression("id IS NOT NULL"), _resolver())
        assert t.always_true
        assert truth(parse_expression("id IS NULL"), _resolver()).never_true

    def test_is_null_on_nullable_column_undecided(self):
        t = truth(parse_expression("a IS NULL"), _resolver())
        assert not t.always_true and not t.never_true
        assert t.pure

    def test_negate_swaps_true_false(self):
        t = truth(parse_expression("1 = 2"), _resolver())
        assert t.negate().always_true

    def test_fractional_constant_against_integer_column(self):
        t = truth(parse_expression("a = 0.5"), _resolver())
        assert t.never_true
        assert any(issue.code == "SQL503" for issue in t.issues)

    def test_non_iso_text_against_date_column(self):
        t = truth(parse_expression("d = 'not-a-date'"), _resolver())
        assert t.never_true
        assert any(issue.code == "SQL503" for issue in t.issues)

    def test_unresolved_column_makes_no_claims(self):
        t = truth(parse_expression("nosuch = 3"), _resolver())
        assert not t.never_true and not t.always_true and not t.pure


class TestInferWhere:
    def test_range_contradiction_reported(self):
        report = infer_where(_conjuncts("a > 5 AND a < 3"), _resolver())
        assert any(i.code == "SQL501" for i in report.issues)

    def test_compatible_ranges_intersect(self):
        report = infer_where(_conjuncts("a > 2 AND a < 9"), _resolver())
        (info,) = [r for r in report.ranges.values()]
        assert str(info.interval) == "(2, 9)"
        assert info.count == 2

    def test_tautology_reported(self):
        report = infer_where(_conjuncts("1 = 1 AND a > 2"), _resolver())
        assert any(i.code == "SQL502" for i in report.issues)


# ---------------------------------------------------------------------------
# Analyzer: SQL5xx warnings
# ---------------------------------------------------------------------------


class TestAnalyzerWarnings:
    @pytest.mark.parametrize(
        "sql, code",
        [
            ("SELECT id FROM t WHERE a > 5 AND a < 3", "SQL501"),
            ("SELECT id FROM t WHERE a = NULL", "SQL501"),
            ("SELECT id FROM t WHERE 1 = 1", "SQL502"),
            ("SELECT id FROM t WHERE id IS NOT NULL", "SQL502"),
            ("SELECT id FROM t WHERE a = 0.5", "SQL503"),
            ("SELECT id FROM t WHERE d = 'not-a-date'", "SQL503"),
        ],
    )
    def test_warning_emitted_with_span(self, sql, code):
        db = _db()
        result = db.analyze_sql(sql)
        hits = [d for d in result.diagnostics if d.code == code]
        assert hits, f"no {code} for {sql}: {[d.format() for d in result.diagnostics]}"
        assert all(d.severity == "warning" for d in hits)
        assert any(d.span is not None for d in hits)
        # warnings never block execution
        assert result.ok
        db.execute_sql(sql)

    def test_clean_query_has_no_sql5xx(self):
        db = _db()
        result = db.analyze_sql("SELECT id FROM t WHERE a > 3 AND s = 'x'")
        assert not [d for d in result.diagnostics if d.code.startswith("SQL5")]


# ---------------------------------------------------------------------------
# Columnar masks: connectives and the two-valued representation
# ---------------------------------------------------------------------------


class _Leaf(columnar._Kernel):
    """A stub kernel returning a fixed ``(true, unknown)`` pair."""

    def __init__(self, mask):
        self.mask = mask

    def eval(self, store, lo, hi):
        return self.mask


def _encodings(value):
    """Every ``(true, unknown)`` pair for one truth value: a definite
    value both without an unknown mask and with an all-False one."""
    if value is None:
        return [(np.array([False]), np.array([True]))]
    return [(np.array([value]), None), (np.array([value]), np.array([False]))]


def _decode(mask):
    truth, unknown = mask
    assert truth.dtype == np.bool_ and truth.shape == (1,)
    if unknown is not None:
        assert unknown.dtype == np.bool_ and unknown.shape == (1,)
        assert not (truth & unknown).any(), "true and unknown overlap"
        if unknown[0]:
            return None
    return bool(truth[0])


class TestMaskConnectives:
    VALUES = (True, False, None)

    @pytest.mark.parametrize("kernel, oracle", [
        (columnar._AndPred, types.and3),
        (columnar._OrPred, types.or3),
    ])
    def test_binary_truth_table(self, kernel, oracle):
        for lv, rv in itertools.product(self.VALUES, repeat=2):
            for lm, rm in itertools.product(_encodings(lv), _encodings(rv)):
                got = kernel(_Leaf(lm), _Leaf(rm)).eval(None, 0, 1)
                assert _decode(got) == oracle(lv, rv), (lv, rv, lm, rm)
                if lm[1] is None and rm[1] is None:
                    assert got[1] is None, "two definite operands stay two-valued"

    def test_not_truth_table(self):
        for value in self.VALUES:
            for mask in _encodings(value):
                got = columnar._NotPred(_Leaf(mask)).eval(None, 0, 1)
                assert _decode(got) == types.not3(value), (value, mask)
                assert (got[1] is None) == (mask[1] is None)


def _telemetry(n: int = 200) -> Database:
    """A small telemetry table whose nullable ``duration_ms`` holds no
    NULL; ``ok`` keeps the generator's NULLs."""
    source = build_telemetry_db(n, seed=0).table("telemetry").rows
    db = Database("telemetry-small")
    db.create_table(telemetry_schema())
    db.insert_many("telemetry", [row[:6] + (row[0] * 7,) + row[7:] for row in source])
    return db


def _root_mask(ex: Executor, sql: str):
    """The compiled WHERE kernel's ``(true, unknown)`` over the whole table."""
    stmt = parse_select(sql)
    compiled = ex._columnar_engine()._compiled(stmt, ex._plan_for(stmt))
    assert not isinstance(compiled, str), compiled
    store = ex.database.table(compiled.table).column_store()
    return compiled.pred, compiled.pred.eval(store, 0, store.n_rows)


def _assert_matches_naive(ex: Executor, sql: str, vectorized: bool = True):
    got = ex.execute_sql(sql)
    assert ex.last_stats.vectorized == int(vectorized), sql
    naive = Executor(ex.database, use_planner=False)
    assert _strict_rows(got) == _strict_rows(naive.execute_sql(sql)), sql


class TestTwoValuedKernels:
    """A predicate over columns holding no NULL evaluates two-valued by
    representation: its root kernel returns ``unknown is None``."""

    def test_not_null_column_filter_goes_two_valued(self):
        ex = Executor(_telemetry())
        for where in (
            "device_id > 100 AND device_id < 4000",
            "event_day > '2023-02-01' AND event_day < '2023-06-01'",
            "session LIKE 'sess-1%'",
        ):
            sql = f"SELECT COUNT(*) FROM telemetry WHERE {where}"
            _, (truth, unknown) = _root_mask(ex, sql)
            assert unknown is None, where
            assert truth.any(), where
            _assert_matches_naive(ex, sql)

    def test_nullable_column_with_clean_data_goes_two_valued(self):
        ex = Executor(_telemetry())
        sql = "SELECT COUNT(*) FROM telemetry WHERE duration_ms > 10000"
        _, (_, unknown) = _root_mask(ex, sql)
        assert unknown is None
        _assert_matches_naive(ex, sql)

    def test_nullable_column_with_nulls_stays_kleene(self):
        ex = Executor(_telemetry())
        sql = "SELECT COUNT(*) FROM telemetry WHERE ok != FALSE"
        _, (truth, unknown) = _root_mask(ex, sql)
        assert unknown is not None and unknown.any()
        assert not (truth & unknown).any()
        _assert_matches_naive(ex, sql)

    def test_data_version_invalidates_conversion(self):
        # A NULL landing in the NULL-free column turns the next query's
        # evaluation three-valued; no compile cached before the write
        # may keep it two-valued.
        db = _telemetry()
        ex = Executor(db)
        sql = "SELECT COUNT(*), SUM(duration_ms) FROM telemetry WHERE duration_ms > 10000"
        _assert_matches_naive(ex, sql)
        assert _root_mask(ex, sql)[1][1] is None
        row = list(db.table("telemetry").rows[0])
        row[0], row[6] = 10_000, None
        db.insert("telemetry", row)
        _, (_, unknown) = _root_mask(ex, sql)
        assert unknown is not None and unknown.tolist()[-1] is True
        _assert_matches_naive(ex, sql)
        sql = "SELECT COUNT(*) FROM telemetry WHERE NOT (duration_ms > 10000)"
        _assert_matches_naive(ex, sql)

    def test_mixed_conjuncts_convert_partially(self):
        # The NOT NULL conjunct stays two-valued; only the nullable one
        # carries an unknown mask, and AND keeps it where the other is TRUE.
        db = _db(300)
        ex = Executor(db)
        sql = "SELECT COUNT(*) FROM t WHERE id > 10 AND a > 3"
        pred, (truth, unknown) = _root_mask(ex, sql)
        store = db.table("t").column_store()
        left_truth, left_unknown = pred.left.eval(store, 0, store.n_rows)
        assert left_unknown is None
        assert pred.right.eval(store, 0, store.n_rows)[1] is not None
        a_null = np.array([row[1] is None for row in db.table("t").rows])
        assert unknown.tolist() == (left_truth & a_null).tolist()
        _assert_matches_naive(ex, sql)

    def test_is_not_null_guard_leaves_no_unknown_rows(self):
        db = _db(300)
        ex = Executor(db)
        sql = "SELECT COUNT(*) FROM t WHERE a IS NOT NULL AND a > 3"
        _, (_, unknown) = _root_mask(ex, sql)
        assert not unknown.any()
        _assert_matches_naive(ex, sql)

    def test_mutual_rejection_is_not_exploited(self):
        # Each copy rejects the other's NULL rows, but neither may be
        # evaluated on fill values there: ``a != 1`` is TRUE on a 0 fill.
        db = _db(300)
        ex = Executor(db)
        sql = "SELECT COUNT(*) FROM t WHERE a = 0 AND a = 0"
        _assert_matches_naive(ex, sql, vectorized=False)  # an index scan
        for where in ("a != 1 AND a != 1", "NOT (a = 0 AND a = 0)"):
            _assert_matches_naive(ex, f"SELECT COUNT(*) FROM t WHERE {where}")

    def test_explain_line_ends_at_shape(self):
        ex = Executor(_db(300))
        text = ex.explain_sql("SELECT COUNT(*) FROM t WHERE id > 10 AND a > 3")
        assert text.splitlines()[-1] == "columnar: vectorized scan+filter+aggregate"


# ---------------------------------------------------------------------------
# Differential: planned-row and columnar vs naive, and vs sqlite3
# ---------------------------------------------------------------------------

#: one query per shape a static plan rewriter would target: a tautology,
#: literal arithmetic, an implied range, a contradictory range, a NULL
#: comparison, BETWEEN plus an implied bound, IS NOT NULL on a NOT NULL
#: key, and the negated contradiction
REWRITE_SHAPES = [
    "SELECT id FROM t WHERE 1 = 1 AND a > 3",
    "SELECT id FROM t WHERE a > 2 + 3",
    "SELECT id FROM t WHERE a > 5 AND a > 3",
    "SELECT id FROM t WHERE a > 5 AND a < 3",
    "SELECT COUNT(*), SUM(a) FROM t WHERE a = NULL",
    "SELECT id FROM t WHERE a BETWEEN 2 AND 8 AND a > 4",
    "SELECT s, COUNT(*) FROM t WHERE id IS NOT NULL GROUP BY s ORDER BY s",
    "SELECT id FROM t WHERE NOT (a > 5 AND a < 3)",
]


class TestDifferentialInference:
    @pytest.mark.parametrize("sql", NULL_CORPUS)
    def test_null_corpus(self, sql):
        db = Database("nulls-inference")
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
        db.insert_many("t", [list(r) for r in NULL_ROWS])
        assert_three_paths_agree(db, sql)

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(where=_where(), agg=st.sampled_from(["id", "COUNT(*), SUM(a), MIN(s)"]))
    def test_property_predicates(self, where, agg):
        assert_three_paths_agree(_prop_db(), f"SELECT {agg} FROM v WHERE {where}")

    def test_rewriting_queries_specifically(self):
        db = _db(200)
        for sql in REWRITE_SHAPES:
            assert_three_paths_agree(db, sql)


def _sqlite_mirror(db: Database) -> sqlite3.Connection:
    """An in-memory sqlite3 copy of every table in ``db`` (dates as ISO
    text, booleans as 0/1)."""
    oracle = sqlite3.connect(":memory:")
    for table in db.tables:
        names = [c.name for c in table.schema]
        oracle.execute(f"CREATE TABLE {table.name} ({', '.join(names)})")
        oracle.executemany(
            f"INSERT INTO {table.name} VALUES ({', '.join('?' for _ in names)})",
            [tuple(_sqlite_value(v) for v in row) for row in table.rows],
        )
    return oracle


def _sqlite_value(value):
    if isinstance(value, datetime.date):
        return value.isoformat()
    if isinstance(value, bool):
        return int(value)
    return value


def _tagged(rows, ordered: bool):
    """Rows as ``(type name, value)`` tuples in sqlite3's value domain."""
    out = [tuple((type(v).__name__, v) for v in map(_sqlite_value, row)) for row in rows]
    return out if ordered else sorted(out, key=repr)


class TestRewriteShapesVsSqlite:
    """The shapes static plan rewrites used to absorb run as written on
    every engine path and match sqlite3 value for value, type for type."""

    def _check(self, db: Database, sql: str) -> Executor:
        """Assert every path matches sqlite3; return the columnar executor."""
        ordered = "ORDER BY" in sql
        oracle = _sqlite_mirror(db)
        try:
            expected = _tagged(oracle.execute(sql).fetchall(), ordered)
        finally:
            oracle.close()
        paths = (
            Executor(db, use_planner=False),
            Executor(db, use_columnar=False),
            Executor(db),
        )
        for ex in paths:
            assert _tagged(ex.execute_sql(sql).rows, ordered) == expected, sql
        return paths[-1]

    def test_rewrite_shapes_match_sqlite(self):
        db = _db(200)
        for sql in REWRITE_SHAPES + ["SELECT 1 WHERE 1 = 0"]:
            self._check(db, sql)

    def test_contradictory_range_aggregates(self):
        db = _db(200)
        sql = "SELECT COUNT(*) FROM t WHERE a > 5 AND a < 3"
        col = self._check(db, sql)
        assert col.last_stats.vectorized == 1
        assert col.execute_sql(sql).rows == [(0,)]
        col = self._check(db, "SELECT s, COUNT(*) FROM t WHERE a > 5 AND a < 3 GROUP BY s")
        assert col.last_stats.vectorized == 1

    def test_telemetry_contradictory_range_scans_vectorized(self):
        db = _telemetry()
        sql = (
            "SELECT COUNT(*), SUM(duration_ms) FROM telemetry "
            "WHERE device_id > 100 AND device_id < 50"
        )
        col = self._check(db, sql)
        assert col.last_stats.vectorized == 1
        assert col.last_stats.rows_scanned == len(db.table("telemetry"))
        assert col.execute_sql(sql).rows == [(0, None)]

    def test_is_not_null_on_not_null_key_scans_vectorized(self):
        db = _db(200)
        for sql in (
            "SELECT COUNT(*) FROM t WHERE id IS NOT NULL",
            "SELECT s, COUNT(*) FROM t WHERE id IS NOT NULL GROUP BY s ORDER BY s",
        ):
            col = self._check(db, sql)
            assert col.last_stats.vectorized == 1, sql
