"""Tests for the static inference pass (nullability, constant folding,
predicate simplification) across all four layers it touches:

1. **Core** — :mod:`repro.sqldb.inference` unit tests: interval algebra,
   per-expression facts, three-valued truth verdicts, constant folding,
   WHERE-report issues, and implied-range drops.
2. **Analyzer** — SQL501/502/503 warnings with source spans.
3. **Planner/executor** — ``static:`` rewrite notes, the
   ``effective_where`` contract, provably-empty short-circuits (including
   grouped aggregates over the empty result), and the new
   ``ExecutionStats`` counters.
4. **Columnar** — the ``(true, unknown)`` mask connectives against the
   row path's Kleene helpers, and the two-valued representation of
   NULL-free predicates (``unknown is None``).

The differential section is the load-bearing guarantee: every corpus the
columnar engine is tested on must return byte-identical results with
inference on and off (``infer=False`` escape hatch).
"""

from __future__ import annotations

import datetime
import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.sqldb import (
    Column,
    Database,
    DataType,
    SqlError,
    TableSchema,
    parse_expression,
    parse_select,
)
from repro.bench.workload_gen import build_telemetry_db, telemetry_schema
from repro.sqldb import columnar
from repro.sqldb import executor as rowpath
from repro.sqldb.executor import Executor
from repro.sqldb.inference import (
    ALWAYS,
    MAYBE,
    NEVER,
    Interval,
    Resolver,
    fact,
    fold_constants,
    implied_drops,
    infer_where,
    truth,
)
from repro.sqldb.planner import Planner
from repro.sqldb.ast import split_conjuncts

from tests.test_sqldb_columnar import _prop_db, _where
from tests.test_sqldb_null_semantics import CORPUS as NULL_CORPUS
from tests.test_sqldb_null_semantics import ROWS as NULL_ROWS
from tests.test_sqldb_planner import (
    EMP_CORPUS,
    ERROR_CORPUS,
    SHOP_CORPUS,
    _strict_rows,
)

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

    def test_contains(self):
        assert Interval(1.0, None).contains(Interval(3.0, 5.0))
        assert not Interval(4.0, None).contains(Interval(3.0, 5.0))
        # open superset boundary does not contain a closed endpoint
        assert not Interval(3.0, None, low_open=True).contains(Interval(3.0, 5.0))

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


class TestFoldConstants:
    def test_folds_literal_arithmetic(self):
        folded = fold_constants(parse_expression("a > 2 + 3"))
        assert folded.to_sql() == "a > 5"

    def test_identity_preserved_when_nothing_folds(self):
        expr = parse_expression("a > 5 AND s = 'x'")
        assert fold_constants(expr) is expr

    def test_column_arithmetic_never_folds(self):
        expr = parse_expression("a + 1 > 5")
        assert fold_constants(expr) is expr

    def test_null_arithmetic_folds_to_null(self):
        folded = fold_constants(parse_expression("a > NULL + 1"))
        assert folded.to_sql() == "a > NULL"

    def test_unary_minus_folds(self):
        folded = fold_constants(parse_expression("a > -(2 + 3)"))
        assert folded.to_sql() == "a > -5"


class TestInferWhere:
    def test_range_contradiction_reported(self):
        report = infer_where(_conjuncts("a > 5 AND a < 3"), _resolver())
        assert report.never_satisfiable
        assert any(i.code == "SQL501" for i in report.issues)

    def test_compatible_ranges_intersect(self):
        report = infer_where(_conjuncts("a > 2 AND a < 9"), _resolver())
        assert not report.never_satisfiable
        (info,) = [r for r in report.ranges.values()]
        assert str(info.interval) == "(2, 9)"
        assert info.count == 2

    def test_tautology_reported(self):
        report = infer_where(_conjuncts("1 = 1 AND a > 2"), _resolver())
        assert any(i.code == "SQL502" for i in report.issues)

    def test_implied_drops_keep_tightest(self):
        report = infer_where(_conjuncts("a > 5 AND a > 3"), _resolver())
        drops = implied_drops(report.conjuncts)
        assert drops == [1]  # a > 3 is implied by a > 5

    def test_implied_drops_never_drop_equality(self):
        report = infer_where(_conjuncts("a = 5 AND a > 3"), _resolver())
        drops = implied_drops(report.conjuncts)
        assert all(not report.conjuncts[i].bound.is_equality for i in drops)

    def test_all_pure_false_when_conjunct_may_raise(self):
        report = infer_where(_conjuncts("a > 5 AND s / 2 > 1"), _resolver())
        assert not report.all_pure


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
# Planner rewrites
# ---------------------------------------------------------------------------


class TestPlannerRewrites:
    def test_constant_folding_note_and_rewrite(self):
        db = _db()
        planner = Planner(db)
        plan = planner.plan(parse_select("SELECT id FROM t WHERE a > 2 + 3"))
        assert plan.static_rewrites >= 1
        assert any("folded" in note for note in plan.static_notes)
        assert plan.effective_where is not None
        assert plan.effective_where.to_sql() == "a > 5"

    def test_tautology_dropped(self):
        db = _db()
        plan = Planner(db).plan(parse_select("SELECT id FROM t WHERE 1 = 1 AND a > 2"))
        assert any("always-true" in note for note in plan.static_notes)
        assert plan.effective_where.to_sql() == "a > 2"

    def test_whole_where_dropped_to_none(self):
        db = _db()
        plan = Planner(db).plan(parse_select("SELECT id FROM t WHERE 1 = 1"))
        assert plan.static_rewrites >= 1
        assert plan.effective_where is None

    def test_implied_range_dropped(self):
        db = _db()
        plan = Planner(db).plan(parse_select("SELECT id FROM t WHERE a > 5 AND a > 3"))
        assert any("implied" in note for note in plan.static_notes)
        assert plan.effective_where.to_sql() == "a > 5"

    def test_provably_empty_flag(self):
        db = _db()
        plan = Planner(db).plan(parse_select("SELECT id FROM t WHERE a > 5 AND a < 3"))
        assert plan.provably_empty
        assert "static-empty" in plan.summary()

    def test_impure_conjunct_blocks_implied_drop(self):
        # dropping "a > 3" would expose "s / 2 > 1" (a type error at
        # runtime) to rows it never previously saw
        db = _db()
        plan = Planner(db).plan(
            parse_select("SELECT id FROM t WHERE a > 5 AND a > 3 AND s / 2 > 1")
        )
        assert not any("implied" in note for note in plan.static_notes)

    def test_effective_where_is_original_object_when_unchanged(self):
        db = _db()
        stmt = parse_select("SELECT id FROM t WHERE a > 3")
        plan = Planner(db).plan(stmt)
        assert plan.effective_where is stmt.where
        assert plan.static_rewrites == 0

    def test_infer_false_disables_rewrites(self):
        db = _db()
        plan = Planner(db, infer=False).plan(
            parse_select("SELECT id FROM t WHERE 1 = 1 AND a > 5 AND a < 3")
        )
        assert plan.static_rewrites == 0
        assert not plan.provably_empty
        assert plan.static_notes == ()

    def test_describe_renders_static_notes(self):
        db = _db()
        ex = Executor(db)
        text = ex.explain_sql("SELECT id FROM t WHERE 2 + 3 = 5 AND a > 5 AND a > 3")
        assert "static: folded 2 + 3 = 5 -> 5 = 5" in text
        assert "static: dropped always-true 5 = 5 (constant comparison is true)" in text
        assert "static: dropped implied a > 3" in text
        assert "static: a in (5, inf)" in text

    def test_describe_renders_never_satisfiable(self):
        db = _db()
        ex = Executor(db)
        text = ex.explain_sql("SELECT id FROM t WHERE a > 5 AND a < 3")
        assert "static: WHERE is never satisfiable -> empty result" in text


# ---------------------------------------------------------------------------
# Executor: short-circuits and stats
# ---------------------------------------------------------------------------


class TestExecutorShortCircuit:
    def test_empty_result_without_scanning(self):
        db = _db(200)
        ex = Executor(db)
        result = ex.execute_sql("SELECT id FROM t WHERE a > 5 AND a < 3")
        assert result.rows == []
        assert ex.last_stats.static_short_circuits == 1
        assert ex.last_stats.rows_scanned == 0

    def test_grouped_aggregate_over_empty_keeps_count_zero_row(self):
        db = _db()
        ex = Executor(db)
        naive = Executor(db, use_planner=False)
        for sql in [
            "SELECT COUNT(*) FROM t WHERE 1 = 0",
            "SELECT COUNT(*), SUM(a), MIN(a), MAX(a) FROM t WHERE a = NULL",
            "SELECT s, COUNT(*) FROM t WHERE a > 5 AND a < 3 GROUP BY s",
        ]:
            got = ex.execute_sql(sql)
            expected = naive.execute_sql(sql)
            assert _strict_rows(got) == _strict_rows(expected), sql
            assert got.columns == expected.columns, sql
        assert ex.total_stats.static_short_circuits == 3

    def test_no_from_clause_short_circuit(self):
        db = _db()
        ex = Executor(db)
        naive = Executor(db, use_planner=False)
        sql = "SELECT 1 WHERE 1 = 0"
        assert _strict_rows(ex.execute_sql(sql)) == _strict_rows(naive.execute_sql(sql))

    def test_static_rewrites_counter(self):
        db = _db()
        ex = Executor(db)
        ex.execute_sql("SELECT id FROM t WHERE 1 = 1 AND a > 2 + 3")
        assert ex.last_stats.static_rewrites >= 2

    def test_infer_false_executor_matches(self):
        db = _db()
        on = Executor(db)
        off = Executor(db, infer=False)
        sql = "SELECT id FROM t WHERE a > 5 AND a < 3"
        assert _strict_rows(on.execute_sql(sql)) == _strict_rows(off.execute_sql(sql))
        assert off.last_stats.static_rewrites == 0
        assert off.last_stats.static_short_circuits == 0


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
        (columnar._AndPred, rowpath._and3),
        (columnar._OrPred, rowpath._or3),
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
                assert _decode(got) == rowpath._not3(value), (value, mask)
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
# Differential: inference on vs off, byte identical
# ---------------------------------------------------------------------------


def assert_infer_on_off_agree(db, sql):
    on = Executor(db, use_planner=True, use_columnar=True)
    off = Executor(db, use_planner=True, use_columnar=True, infer=False)
    naive = Executor(db, use_planner=False)
    try:
        expected = naive.execute_sql(sql)
    except SqlError as exc:
        for planned in (on, off):
            with pytest.raises(type(exc)):
                planned.execute_sql(sql)
        return
    for planned in (on, off):
        got = planned.execute_sql(sql)
        assert got.columns == expected.columns, sql
        assert _strict_rows(got) == _strict_rows(expected), sql


class TestDifferentialInference:
    @pytest.mark.parametrize("sql", EMP_CORPUS)
    def test_emp_corpus(self, emp_db, sql):
        assert_infer_on_off_agree(emp_db, sql)

    @pytest.mark.parametrize("sql", SHOP_CORPUS)
    def test_shop_corpus(self, shop_db, sql):
        assert_infer_on_off_agree(shop_db, sql)

    @pytest.mark.parametrize("sql", ERROR_CORPUS)
    def test_error_corpus(self, emp_db, sql):
        assert_infer_on_off_agree(emp_db, sql)

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
        assert_infer_on_off_agree(db, sql)

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(where=_where(), agg=st.sampled_from(["id", "COUNT(*), SUM(a), MIN(s)"]))
    def test_property_predicates(self, where, agg):
        assert_infer_on_off_agree(_prop_db(), f"SELECT {agg} FROM v WHERE {where}")

    def test_rewriting_queries_specifically(self):
        # Queries chosen to trigger each rewrite class, checked against
        # the naive path.
        db = _db(200)
        for sql in [
            "SELECT id FROM t WHERE 1 = 1 AND a > 3",
            "SELECT id FROM t WHERE a > 2 + 3",
            "SELECT id FROM t WHERE a > 5 AND a > 3",
            "SELECT id FROM t WHERE a > 5 AND a < 3",
            "SELECT COUNT(*), SUM(a) FROM t WHERE a = NULL",
            "SELECT id FROM t WHERE a BETWEEN 2 AND 8 AND a > 4",
            "SELECT s, COUNT(*) FROM t WHERE id IS NOT NULL GROUP BY s ORDER BY s",
            "SELECT id FROM t WHERE NOT (a > 5 AND a < 3)",
        ]:
            assert_infer_on_off_agree(db, sql)
