"""Unit tests for the inverted value index."""

import pytest

from repro.sqldb import (
    Column,
    Database,
    DataType,
    TableSchema,
    ValueIndex,
    split_identifier,
)


@pytest.fixture
def indexed_db():
    db = Database("idx")
    db.create_table(
        TableSchema(
            "orders",
            [
                Column("id", DataType.INTEGER, primary_key=True),
                Column("order_date", DataType.DATE),
                Column("customerName", DataType.TEXT, synonyms=("buyer",)),
                Column("total", DataType.FLOAT),
            ],
            synonyms=("purchase",),
        )
    )
    db.insert_many(
        "orders",
        [
            [1, "2023-01-01", "Ada Lovelace", 10.0],
            [2, "2023-02-02", "Grace Hopper", 20.0],
            [3, "2023-03-03", "Ada Lovelace", 30.0],
        ],
    )
    return db


class TestSplitIdentifier:
    @pytest.mark.parametrize(
        "identifier,expected",
        [
            ("order_date", ["order", "date"]),
            ("customerName", ["customer", "name"]),
            ("order date", ["order", "date"]),
            ("ALLCAPS", ["allcaps"]),
            ("simple", ["simple"]),
            ("a_b_c", ["a", "b", "c"]),
        ],
    )
    def test_splitting(self, identifier, expected):
        assert split_identifier(identifier) == expected


class TestValueIndex:
    def test_full_value_lookup(self, indexed_db):
        index = ValueIndex(indexed_db)
        hits = index.lookup("ada lovelace")
        assert hits and hits[0].value == "Ada Lovelace" and hits[0].score == 1.0

    def test_token_lookup_scores_lower(self, indexed_db):
        index = ValueIndex(indexed_db)
        hits = index.lookup("ada")
        assert hits and all(h.score < 1.0 for h in hits)

    def test_numeric_values_not_indexed(self, indexed_db):
        index = ValueIndex(indexed_db)
        assert index.lookup("10.0") == []

    def test_phrase_lookup(self, indexed_db):
        index = ValueIndex(indexed_db)
        assert index.lookup_phrase(["grace", "hopper"])

    def test_describe(self, indexed_db):
        entry = ValueIndex(indexed_db).lookup("ada lovelace")[0]
        assert "Ada Lovelace" in entry.describe()

