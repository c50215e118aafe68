"""Tests for the query planner: differential correctness against the
naive interpreter, hash-join edge cases, secondary indexes, statement
caching, and the ExecutionStats observability surface."""

import datetime

import pytest

from repro.bench import WorkloadGenerator, build_domain, domain_names
from repro.core import NLIDBContext
from repro.core.interpretation import Interpretation
from repro.sqldb import (
    Column,
    Database,
    DataType,
    Executor,
    Literal,
    Planner,
    SelectItem,
    SelectStatement,
    SqlError,
    TableSchema,
    ValueIndex,
    execute_sql,
    parse_select,
)
from repro.sqldb.executor import _hashable
from repro.sqldb.types import like_to_regex

# ---------------------------------------------------------------------------
# Differential suite: the planner path must return relations identical to
# the naive path for every query in the SQL test corpus.
# ---------------------------------------------------------------------------

EMP_CORPUS = [
    "SELECT name, salary FROM emp",
    "SELECT name FROM emp WHERE salary > 100",
    "SELECT name FROM emp WHERE salary > 0",
    "SELECT name FROM emp WHERE salary <= 0",
    "SELECT name FROM emp WHERE salary IS NULL",
    "SELECT COUNT(*) FROM emp WHERE salary IS NOT NULL",
    "SELECT dname FROM dept WHERE dname LIKE 'eng%'",
    "SELECT name FROM emp WHERE name LIKE '_ob'",
    "SELECT name FROM emp WHERE salary BETWEEN 90 AND 120",
    "SELECT name FROM emp WHERE id IN (1, 3)",
    "SELECT name FROM emp WHERE id = 3",
    "SELECT name FROM emp WHERE id = 3 AND salary > 0",
    "SELECT name FROM emp WHERE hired < '2020-01-01'",
    "SELECT name FROM emp WHERE hired = '2019-01-02'",
    "SELECT * FROM dept",
    "SELECT 1",
    "SELECT salary * 2 AS double FROM emp WHERE id = 1",
    "SELECT COUNT(*) FROM emp",
    "SELECT COUNT(salary) FROM emp",
    "SELECT COUNT(DISTINCT dept_id) FROM emp",
    "SELECT SUM(salary) FROM emp",
    "SELECT AVG(salary) FROM emp",
    "SELECT MIN(salary), MAX(salary) FROM emp",
    "SELECT SUM(salary) FROM emp WHERE id > 99",
    "SELECT COUNT(*) FROM emp WHERE id > 99",
    "SELECT dept_id, COUNT(*) FROM emp WHERE dept_id IS NOT NULL "
    "GROUP BY dept_id ORDER BY dept_id",
    "SELECT dept_id, COUNT(*) FROM emp GROUP BY dept_id",
    "SELECT dept_id FROM emp GROUP BY dept_id HAVING AVG(salary) > 120",
    "SELECT name, dname FROM emp JOIN dept ON emp.dept_id = dept.id ORDER BY name",
    "SELECT name FROM emp JOIN dept ON emp.dept_id = dept.id",
    "SELECT name FROM emp JOIN dept ON dept.id = emp.dept_id",
    "SELECT e.name FROM emp e JOIN dept d ON e.dept_id = d.id WHERE d.dname = 'Sales'",
    "SELECT e.name, d.budget FROM emp e JOIN dept d ON e.dept_id = d.id "
    "WHERE e.salary > 80 AND d.budget > 400",
    "SELECT e1.name, e2.name FROM emp e1 JOIN emp e2 ON e1.dept_id = e2.dept_id",
    "SELECT e1.name FROM emp e1 JOIN emp e2 ON e1.dept_id = e2.dept_id "
    "WHERE e2.salary > 100",
    "SELECT name FROM emp JOIN dept ON emp.dept_id = dept.id AND dept.budget > 600",
    "SELECT name FROM emp JOIN dept ON emp.dept_id = dept.id AND emp.salary < dept.budget",
    "SELECT name FROM emp WHERE salary > (SELECT AVG(salary) FROM emp)",
    "SELECT name FROM emp WHERE dept_id IN (SELECT id FROM dept WHERE budget > 600)",
    "SELECT name FROM emp WHERE dept_id NOT IN (SELECT id FROM dept WHERE budget > 600)",
    "SELECT dname FROM dept WHERE EXISTS "
    "(SELECT 1 FROM emp WHERE emp.dept_id = dept.id AND emp.salary > 140)",
    "SELECT name FROM emp WHERE salary IS NOT NULL ORDER BY salary DESC",
    "SELECT name FROM emp ORDER BY salary",
    "SELECT name, salary * 2 AS d FROM emp WHERE salary IS NOT NULL ORDER BY d DESC LIMIT 1",
    "SELECT dept_id FROM emp WHERE dept_id IS NOT NULL "
    "GROUP BY dept_id ORDER BY AVG(salary) DESC",
    "SELECT name FROM emp LIMIT 2",
    "SELECT name FROM emp LIMIT 0",
    "SELECT DISTINCT dept_id FROM emp ORDER BY dept_id",
    "SELECT dept_id, name FROM emp WHERE dept_id IS NOT NULL "
    "ORDER BY dept_id ASC, name DESC",
    "SELECT UPPER(name) FROM emp WHERE LENGTH(name) = 3",
    "SELECT name FROM emp WHERE NOT (salary > 100)",
    "SELECT name FROM emp WHERE salary > 100 OR dept_id = 2",
    "SELECT name FROM emp WHERE id IN (1, 2) AND salary > 80 AND dept_id = 1",
]

SHOP_CORPUS = [
    "SELECT DISTINCT customers.name FROM customers "
    "JOIN orders ON customers.id = orders.customer_id "
    "JOIN order_items ON orders.id = order_items.order_id "
    "WHERE order_items.qty > 2",
    "SELECT name FROM customers c WHERE "
    "(SELECT COUNT(*) FROM orders o WHERE o.customer_id = c.id) > 1",
    "SELECT name FROM customers WHERE id IN ("
    "SELECT customer_id FROM orders WHERE total > ("
    "SELECT AVG(total) FROM orders))",
    "SELECT c.name, o.total FROM customers c JOIN orders o "
    "ON c.id = o.customer_id ORDER BY o.total DESC",
    "SELECT c.name, COUNT(*) FROM customers c JOIN orders o "
    "ON c.id = o.customer_id GROUP BY c.name",
]

ERROR_CORPUS = [
    "SELECT 1 / 0",
    "SELECT name FROM emp WHERE SUM(salary) > 10",
    "SELECT * FROM emp GROUP BY dept_id",
    "SELECT id FROM emp JOIN dept ON emp.dept_id = dept.id",
    "SELECT bogus FROM emp",
    "SELECT name FROM emp WHERE salary > (SELECT salary FROM emp)",
]


def _strict_rows(relation):
    """Rows with type tags, so 1 vs 1.0 vs TRUE differences are caught."""
    return [tuple((type(v).__name__, v) for v in row) for row in relation.rows]


def assert_both_paths_agree(db, sql):
    planned = Executor(db, use_planner=True)
    naive = Executor(db, use_planner=False)
    try:
        expected = naive.execute_sql(sql)
    except SqlError as exc:
        with pytest.raises(type(exc)):
            planned.execute_sql(sql)
        return
    got = planned.execute_sql(sql)
    assert got.columns == expected.columns, sql
    assert _strict_rows(got) == _strict_rows(expected), sql


class TestDifferential:
    @pytest.mark.parametrize("sql", EMP_CORPUS)
    def test_emp_corpus(self, emp_db, sql):
        assert_both_paths_agree(emp_db, sql)

    @pytest.mark.parametrize("sql", SHOP_CORPUS)
    def test_shop_corpus(self, shop_db, sql):
        assert_both_paths_agree(shop_db, sql)

    @pytest.mark.parametrize("sql", ERROR_CORPUS)
    def test_error_corpus(self, emp_db, sql):
        assert_both_paths_agree(emp_db, sql)

    @pytest.mark.parametrize("domain", domain_names())
    def test_generated_workloads(self, domain):
        db = build_domain(domain)
        examples = WorkloadGenerator(db, seed=7).generate_mixed(12)
        for example in examples:
            assert_both_paths_agree(db, example.sql)


# ---------------------------------------------------------------------------
# Hash-join edge cases
# ---------------------------------------------------------------------------


class TestHashJoin:
    def test_null_join_keys_match_nothing(self, emp_db):
        # Eli has NULL dept_id: must not pair with any department.
        result = execute_sql(
            emp_db, "SELECT name FROM emp JOIN dept ON emp.dept_id = dept.id"
        )
        assert ("Eli",) not in result.rows
        assert len(result) == 4

    def test_self_join(self, emp_db):
        result = execute_sql(
            emp_db,
            "SELECT e1.name, e2.name FROM emp e1 JOIN emp e2 "
            "ON e1.dept_id = e2.dept_id WHERE e1.id < e2.id",
        )
        assert set(result.rows) == {("Ada", "Bob"), ("Cyd", "Dee")}

    def test_join_uses_hash_strategy(self, emp_db):
        executor = Executor(emp_db)
        executor.execute_sql(
            "SELECT name FROM emp JOIN dept ON emp.dept_id = dept.id"
        )
        assert executor.last_stats.hash_joins == 1
        assert executor.last_stats.nested_loop_joins == 0
        assert "hash-join" in executor.last_stats.strategy

    def test_non_equi_join_falls_back_to_nested_loop(self, emp_db):
        executor = Executor(emp_db)
        result = executor.execute_sql(
            "SELECT name FROM emp JOIN dept ON emp.salary < dept.budget"
        )
        assert executor.last_stats.nested_loop_joins == 1
        assert len(result) > 0

    def test_int_float_keys_join(self):
        db = Database("mix")
        db.create_table(TableSchema("a", [Column("k", DataType.INTEGER)]))
        db.create_table(TableSchema("b", [Column("k", DataType.FLOAT)]))
        db.insert_many("a", [[1], [2], [3]])
        db.insert_many("b", [[1.0], [3.0], [4.5]])
        result = execute_sql(db, "SELECT a.k FROM a JOIN b ON a.k = b.k")
        assert sorted(r[0] for r in result.rows) == [1, 3]

    def test_date_string_keys_join(self):
        db = Database("dates")
        db.create_table(TableSchema("a", [Column("d", DataType.DATE)]))
        db.create_table(TableSchema("b", [Column("d", DataType.TEXT)]))
        db.insert_many("a", [["2020-01-01"], ["2021-06-15"]])
        db.insert_many("b", [["2020-01-01"], ["not a date"]])
        result = execute_sql(db, "SELECT a.d FROM a JOIN b ON a.d = b.d")
        assert result.rows == [(datetime.date(2020, 1, 1),)]

    def test_bool_int_keys_do_not_join(self):
        db = Database("bools")
        db.create_table(TableSchema("a", [Column("k", DataType.BOOLEAN)]))
        db.create_table(TableSchema("b", [Column("k", DataType.INTEGER)]))
        db.insert_many("a", [[True], [False]])
        db.insert_many("b", [[1], [0]])
        # values_equal treats booleans and numbers as distinct families.
        result = execute_sql(db, "SELECT a.k FROM a JOIN b ON a.k = b.k")
        assert result.rows == []


# ---------------------------------------------------------------------------
# Secondary indexes and predicate pushdown
# ---------------------------------------------------------------------------


class TestIndexScan:
    def test_equality_uses_index(self, emp_db):
        executor = Executor(emp_db)
        result = executor.execute_sql("SELECT name FROM emp WHERE id = 3")
        assert result.rows == [("Cyd",)]
        assert executor.last_stats.index_scans == 1
        assert executor.last_stats.rows_scanned == 1  # not the full table

    def test_in_list_uses_index(self, emp_db):
        executor = Executor(emp_db)
        result = executor.execute_sql("SELECT name FROM emp WHERE id IN (1, 3)")
        assert result.rows == [("Ada",), ("Cyd",)]
        assert executor.last_stats.index_scans == 1

    def test_index_sees_rows_inserted_after_build(self, emp_db):
        executor = Executor(emp_db)
        assert executor.execute_sql("SELECT name FROM emp WHERE id = 99").rows == []
        emp_db.insert("emp", [99, "Zoe", 1, 80.0, "2024-01-01"])
        result = executor.execute_sql("SELECT name FROM emp WHERE id = 99")
        assert result.rows == [("Zoe",)]

    def test_secondary_index_invalidation_direct(self, emp_db):
        table = emp_db.table("emp")
        index = table.secondary_index("id")
        before = len(index)
        table.insert([50, "New", 2, 70.0, "2023-03-03"])
        rebuilt = table.secondary_index("id")
        assert len(rebuilt) == before + 1

    def test_pushdown_filters_before_join(self, emp_db):
        executor = Executor(emp_db)
        executor.execute_sql(
            "SELECT e.name FROM emp e JOIN dept d ON e.dept_id = d.id "
            "WHERE d.dname = 'Sales' AND e.salary > 100"
        )
        assert executor.last_stats.predicates_pushed == 2


# ---------------------------------------------------------------------------
# Statement cache
# ---------------------------------------------------------------------------


class TestStatementCache:
    def test_repeat_hits_cache(self, emp_db):
        executor = Executor(emp_db)
        sql = "SELECT name FROM emp WHERE salary > 100"
        executor.execute_sql(sql)
        assert executor.last_stats.statement_cache_misses == 1
        executor.execute_sql(sql)
        assert executor.last_stats.statement_cache_hits == 1

    def test_cached_statement_sees_inserts(self, emp_db):
        # The cache stores parsed ASTs, never results: an INSERT between
        # two executions of the same text must be visible to the second.
        executor = Executor(emp_db)
        sql = "SELECT COUNT(*) FROM emp"
        assert executor.execute_sql(sql).scalar() == 5
        emp_db.insert("emp", [6, "Fay", 1, 100.0, "2023-05-05"])
        assert executor.execute_sql(sql).scalar() == 6
        assert executor.last_stats.statement_cache_hits == 1

    def test_cache_disabled(self, emp_db):
        executor = Executor(emp_db, statement_cache_size=0)
        sql = "SELECT name FROM emp"
        executor.execute_sql(sql)
        executor.execute_sql(sql)
        assert executor.last_stats.statement_cache_hits == 0

    def test_database_convenience_shares_cache(self, emp_db):
        sql = "SELECT name FROM emp WHERE id = 1"
        execute_sql(emp_db, sql)
        execute_sql(emp_db, sql)
        assert emp_db.last_stats.statement_cache_hits == 1


# ---------------------------------------------------------------------------
# LIKE regex memoization
# ---------------------------------------------------------------------------


class TestLikeCache:
    def test_same_pattern_same_object(self):
        assert like_to_regex("abc%") is like_to_regex("abc%")

    def test_semantics_unchanged(self, emp_db):
        assert execute_sql(
            emp_db, "SELECT dname FROM dept WHERE dname LIKE 'eng%'"
        ).rows == [("Engineering",)]


# ---------------------------------------------------------------------------
# ExecutionStats / EXPLAIN surface
# ---------------------------------------------------------------------------


class TestObservability:
    def test_stats_counters_exposed(self, emp_db):
        executor = Executor(emp_db)
        executor.execute_sql(
            "SELECT name FROM emp JOIN dept ON emp.dept_id = dept.id "
            "WHERE dept.budget > 400"
        )
        stats = executor.last_stats
        assert stats.rows_scanned > 0
        assert stats.hash_joins == 1
        assert stats.hash_probes > 0
        assert stats.rows_output == 4
        assert stats.as_dict()["hash_joins"] == 1

    def test_total_stats_accumulate(self, emp_db):
        executor = Executor(emp_db)
        executor.execute_sql("SELECT name FROM emp")
        executor.execute_sql("SELECT dname FROM dept")
        assert executor.total_stats.full_scans >= 2

    def test_explain_reports_hash_join(self, emp_db):
        text = emp_db.explain_sql(
            "SELECT name FROM emp JOIN dept ON emp.dept_id = dept.id"
        )
        assert "hash join" in text
        assert "full-scan" in text

    def test_explain_reports_index_scan(self, emp_db):
        text = emp_db.explain_sql("SELECT name FROM emp WHERE id = 3")
        assert "index-scan(id" in text

    def test_explain_reports_nested_loop(self, emp_db):
        text = emp_db.explain_sql(
            "SELECT name FROM emp JOIN dept ON emp.salary < dept.budget"
        )
        assert "nested-loop" in text

    def test_explain_includes_subplans(self, emp_db):
        text = emp_db.explain_sql(
            "SELECT name FROM emp WHERE salary > (SELECT AVG(salary) FROM emp)"
        )
        assert "subplan" in text

    def test_naive_strategy_tagged(self, emp_db):
        executor = Executor(emp_db, use_planner=False)
        executor.execute_sql("SELECT name FROM emp")
        assert executor.last_stats.strategy == "naive"

    def test_context_execute_exposes_stats(self, emp_db):
        context = NLIDBContext(emp_db)
        interpretation = Interpretation(
            system="test",
            confidence=1.0,
            sql=parse_select("SELECT name FROM emp JOIN dept ON emp.dept_id = dept.id"),
        )
        context.execute(interpretation)
        assert context.last_stats is not None
        assert context.last_stats.hash_joins == 1


# ---------------------------------------------------------------------------
# Planner analysis details
# ---------------------------------------------------------------------------


class TestPlannerAnalysis:
    def test_ambiguous_column_stays_residual(self, emp_db):
        # "budget" is unique but an unqualified "id" is ambiguous across
        # emp/dept — the conjunct must not be pushed (the naive path
        # raises AmbiguousColumnError when it evaluates it).
        plan = Planner(emp_db).plan(
            parse_select(
                "SELECT name FROM emp JOIN dept ON emp.dept_id = dept.id WHERE id = 1"
            )
        )
        assert plan.pushed_count == 0
        assert len(plan.residual_where) == 1

    def test_subquery_conjunct_stays_residual(self, emp_db):
        plan = Planner(emp_db).plan(
            parse_select(
                "SELECT name FROM emp WHERE dept_id IN (SELECT id FROM dept)"
            )
        )
        assert plan.pushed_count == 0

    def test_multi_table_conjunct_stays_residual(self, emp_db):
        plan = Planner(emp_db).plan(
            parse_select(
                "SELECT name FROM emp JOIN dept ON emp.dept_id = dept.id "
                "WHERE emp.salary < dept.budget"
            )
        )
        assert plan.pushed_count == 0
        assert plan.joins[0].strategy == "hash"

    def test_or_not_split(self, emp_db):
        plan = Planner(emp_db).plan(
            parse_select("SELECT name FROM emp WHERE salary > 100 OR dept_id = 2")
        )
        assert plan.pushed_count == 1  # the whole OR is one pushable conjunct

    def test_plan_summary_mentions_pushdown(self, emp_db):
        plan = Planner(emp_db).plan(
            parse_select("SELECT name FROM emp WHERE salary > 100 AND dept_id = 1")
        )
        assert "pushed=" in plan.summary()


# ---------------------------------------------------------------------------
# _hashable (GROUP BY / DISTINCT on composite values)
# ---------------------------------------------------------------------------


class TestHashable:
    def test_nested_structures(self):
        key = _hashable([1, [2, {"a": 1}], {3, 4}])
        hash(key)  # must not raise
        assert key == _hashable([1, [2, {"a": 1}], {3, 4}])

    def test_distinct_values_kept_distinct(self):
        assert _hashable([1, 2]) != _hashable([1, 3])

    def test_group_by_list_literal_executes(self, emp_db):
        # Programmatic AST with an (unhashable) list literal as group key.
        stmt = SelectStatement(
            select_items=(SelectItem(Literal(1), alias="one"),),
            group_by=(Literal([1, 2]),),
        )
        result = Executor(emp_db).execute(stmt)
        assert result.rows == [(1,)]


# ---------------------------------------------------------------------------
# Inverted-index invalidation (ValueIndex)
# ---------------------------------------------------------------------------


class TestInvertedIndexInvalidation:
    def test_value_index_sees_new_rows(self, emp_db):
        index = ValueIndex(emp_db)
        assert index.lookup("zanzibar") == []
        emp_db.insert("emp", [42, "Zanzibar", 1, 77.0, "2024-04-04"])
        hits = index.lookup("zanzibar")
        assert hits and hits[0].value == "Zanzibar"


# ---------------------------------------------------------------------------
# Escape hatch
# ---------------------------------------------------------------------------


class TestEscapeHatch:
    def test_use_planner_false_still_correct(self, emp_db):
        naive = Executor(emp_db, use_planner=False)
        result = naive.execute_sql(
            "SELECT name, dname FROM emp JOIN dept ON emp.dept_id = dept.id "
            "ORDER BY name"
        )
        assert result.rows[0] == ("Ada", "Engineering")
        assert naive.last_stats.hash_joins == 0
