"""Unit tests for schema, table storage and the database catalog."""

import pytest

from repro.sqldb import (
    Column,
    Database,
    DataType,
    SchemaError,
    TableSchema,
    TypeMismatchError,
    UnknownColumnError,
    UnknownTableError,
    parse_create_table,
)


def make_schema():
    return TableSchema(
        "t",
        [
            Column("id", DataType.INTEGER, primary_key=True, nullable=False),
            Column("name", DataType.TEXT),
            Column("score", DataType.FLOAT),
        ],
    )


class TestTableSchema:
    def test_column_lookup_case_insensitive(self):
        schema = make_schema()
        assert schema.column("NAME").name == "name"
        assert schema.column_index("Score") == 2

    def test_unknown_column_raises(self):
        with pytest.raises(UnknownColumnError):
            make_schema().column("missing")

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", DataType.TEXT), Column("A", DataType.TEXT)])

    def test_empty_table_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [])

    def test_primary_key_listing(self):
        assert [c.name for c in make_schema().primary_key] == ["id"]

    def test_numeric_and_text_columns(self):
        schema = make_schema()
        assert [c.name for c in schema.numeric_columns()] == ["id", "score"]
        assert [c.name for c in schema.text_columns()] == ["name"]

    def test_ddl_render(self):
        ddl = make_schema().to_ddl()
        assert "CREATE TABLE t" in ddl
        assert "id INTEGER PRIMARY KEY NOT NULL" in ddl


class TestTable:
    def test_insert_and_len(self):
        db = Database()
        table = db.create_table(make_schema())
        table.insert([1, "a", 2.5])
        assert len(table) == 1

    def test_insert_coerces(self):
        db = Database()
        table = db.create_table(make_schema())
        table.insert(["7", "a", 3])
        assert table.rows[0] == (7, "a", 3.0)

    def test_arity_mismatch(self):
        db = Database()
        table = db.create_table(make_schema())
        with pytest.raises(TypeMismatchError):
            table.insert([1, "a"])

    def test_not_null_enforced(self):
        db = Database()
        table = db.create_table(make_schema())
        with pytest.raises(TypeMismatchError):
            table.insert([None, "a", 1.0])

    def test_insert_dict_defaults_null(self):
        db = Database()
        table = db.create_table(make_schema())
        table.insert_dict({"id": 1, "name": "x"})
        assert table.rows[0] == (1, "x", None)

    def test_insert_dict_unknown_key(self):
        db = Database()
        table = db.create_table(make_schema())
        with pytest.raises(SchemaError):
            table.insert_dict({"id": 1, "bogus": 2})

    def test_distinct_values_order_and_null_skip(self):
        db = Database()
        table = db.create_table(make_schema())
        table.insert_many([[1, "b", None], [2, "a", None], [3, "b", None]])
        assert table.distinct_values("name") == ["b", "a"]


class TestDatabase:
    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table(make_schema())
        with pytest.raises(SchemaError):
            db.create_table(make_schema())

    def test_unknown_table(self):
        with pytest.raises(UnknownTableError):
            Database().table("nope")

    def test_fk_validation(self, emp_db):
        with pytest.raises(UnknownColumnError):
            emp_db.add_foreign_key("emp", "missing", "dept", "id")

    def test_find_column_across_tables(self, emp_db):
        hits = emp_db.find_column("id")
        assert {t for t, _ in hits} == {"emp", "dept"}

    def test_stats(self, shop_db):
        stats = shop_db.stats()
        assert stats["tables"] == 4
        assert stats["foreign_keys"] == 3
        assert stats["rows"] == 3 + 3 + 3 + 4


class TestDataVersion:
    """``Database.data_version`` is one counter that every new table and
    every table write bumps, whichever object the write goes through."""

    def test_create_table_bumps(self):
        db = Database()
        before = db.data_version
        db.create_table(make_schema())
        assert db.data_version > before

    def test_insert_through_table_bumps(self):
        db = Database()
        db.create_table(make_schema())
        before = db.data_version
        db.table("t").insert([1, "a", 2.5])
        assert db.data_version > before

    def test_nonempty_insert_many_through_table_bumps(self):
        db = Database()
        db.create_table(make_schema())
        before = db.data_version
        assert db.table("t").insert_many([[1, "a", 1.0], [2, "b", 2.0]]) == 2
        assert db.data_version > before

    def test_empty_insert_many_keeps_version(self):
        db = Database()
        db.create_table(make_schema())
        before = db.data_version
        assert db.table("t").insert_many([]) == 0
        assert db.data_version == before

    def test_failed_insert_many_keeps_version(self):
        db = Database()
        table = db.create_table(make_schema())
        table.insert([1, "a", 1.0])
        before = db.data_version
        with pytest.raises(TypeMismatchError):
            table.insert_many([[2, "b", 2.0], [None, "c", 3.0]])
        assert db.data_version == before
        assert len(table) == 1


class TestDdlRoundTrip:
    def test_not_null_round_trips_end_to_end(self):
        # schema -> DDL text -> parsed schema -> database: the NOT NULL
        # constraint must survive every hop and still be enforced.
        original = make_schema()
        reparsed = parse_create_table(original.to_ddl())
        assert [
            (c.name, c.dtype, c.nullable, c.primary_key) for c in original
        ] == [(c.name, c.dtype, c.nullable, c.primary_key) for c in reparsed]
        db = Database("roundtrip")
        db.create_table_sql(original.to_ddl())
        db.insert("t", [1, "Ada", 1.5])
        with pytest.raises(TypeMismatchError):
            db.insert("t", [None, "Bob", 2.0])

    def test_create_table_sql_rejects_duplicates(self):
        db = Database("dup")
        db.create_table_sql("CREATE TABLE t (a INT)")
        with pytest.raises(SchemaError):
            db.create_table_sql("CREATE TABLE t (a INT)")

    def test_not_null_feeds_analyzer_nullability(self):
        # The analyzer proves IS NOT NULL tautological (SQL502) only
        # because the parsed DDL carried nullable=False to the catalog.
        db = Database("inference-ddl")
        db.create_table_sql("CREATE TABLE t (id INT PRIMARY KEY NOT NULL, v INT)")
        db.insert("t", [1, None])
        db.insert("t", [2, 5])
        key = db.analyze_sql("SELECT id FROM t WHERE id IS NOT NULL")
        assert "SQL502" in key.codes()
        nullable = db.analyze_sql("SELECT id FROM t WHERE v IS NOT NULL")
        assert "SQL502" not in nullable.codes()
        assert db.execute_sql("SELECT id FROM t WHERE id IS NOT NULL").rows == [(1,), (2,)]
