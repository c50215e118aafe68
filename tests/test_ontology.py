"""Unit tests for the ontology layer: model, builder, reasoner, relaxation."""

import networkx as nx
import pytest

from repro.core import (
    CompilationError,
    OQLCondition,
    OQLItem,
    OQLQuery,
    PropertyRef,
    compile_oql,
)
from repro.ontology import (
    Ontology,
    OntologyError,
    QueryRelaxer,
    Reasoner,
    build_medical_kb,
    build_ontology,
    humanize,
)
from repro.sqldb import Column, Database, DataType, TableSchema


class TestOntologyModel:
    def make(self):
        onto = Ontology("test")
        onto.add_concept("person", synonyms=("human",))
        onto.add_concept("employee", parent="person")
        onto.add_concept("department")
        onto.add_property("person", "name", DataType.TEXT)
        onto.add_property("employee", "salary", DataType.FLOAT, synonyms=("pay",))
        onto.add_relation("works in", "employee", "department", functional=True)
        return onto

    def test_duplicate_concept_rejected(self):
        onto = self.make()
        with pytest.raises(OntologyError):
            onto.add_concept("person")

    def test_missing_parent_rejected(self):
        with pytest.raises(OntologyError):
            Ontology().add_concept("x", parent="ghost")

    def test_find_by_synonym(self):
        onto = self.make()
        assert onto.find_concepts("human")[0].name == "person"
        assert onto.find_properties("pay")[0].name == "salary"

    def test_ancestors_and_is_a(self):
        onto = self.make()
        assert onto.ancestors("employee") == ["person"]
        assert onto.is_a("employee", "person")
        assert not onto.is_a("person", "employee")

    def test_descendants(self):
        onto = self.make()
        assert onto.descendants("person") == ["employee"]

    def test_inherited_properties(self):
        onto = self.make()
        names = [p.name for p in onto.inherited_properties("employee")]
        assert names == ["salary", "name"]

    def test_vocabulary_includes_everything(self):
        vocab = self.make().vocabulary()
        assert {"person", "human", "salary", "pay", "works in"} <= vocab

    def test_graph_connects_relations_and_inheritance(self):
        graph = self.make().graph()
        assert graph.has_edge("employee", "department")
        assert graph.has_edge("employee", "person")

    def test_graph_is_shared_and_frozen(self):
        onto = self.make()
        assert onto.graph() is onto.graph()
        assert onto.simple_graph() is onto.simple_graph()
        assert nx.is_frozen(onto.graph()) and nx.is_frozen(onto.simple_graph())

    def test_graph_rebuilt_after_add_relation(self):
        onto = self.make()
        before = onto.graph()
        assert not before.has_edge("department", "person")
        onto.add_relation("managed by", "department", "person")
        assert onto.graph() is not before
        assert onto.graph().has_edge("department", "person")
        assert onto.simple_graph().has_edge("department", "person")

    def test_add_property_keeps_graph(self):
        onto = self.make()
        before = onto.graph()
        onto.add_property("department", "budget", DataType.FLOAT)
        assert onto.graph() is before


class TestHumanize:
    def test_snake_case_split_and_singular(self):
        assert humanize("order_items") == "order item"

    def test_camel_case(self):
        assert humanize("customerName") == "customer name"

    def test_plural_table(self):
        assert humanize("customers") == "customer"


class TestBuilder:
    def test_tables_become_concepts(self, shop_db):
        # order_items has a payload column (qty), so it stays a concept
        onto, _ = build_ontology(shop_db)
        assert set(onto.concepts) == {"customer", "order", "product", "order item"}

    def test_pure_junction_folded(self):
        from repro.sqldb import Column, Database, DataType, TableSchema

        db = Database("m2m")
        db.create_table(TableSchema("a", [Column("id", DataType.INTEGER, primary_key=True)]))
        db.create_table(TableSchema("b", [Column("id", DataType.INTEGER, primary_key=True)]))
        db.create_table(
            TableSchema(
                "a_b",
                [Column("a_id", DataType.INTEGER), Column("b_id", DataType.INTEGER)],
            )
        )
        db.add_foreign_key("a_b", "a_id", "a", "id")
        db.add_foreign_key("a_b", "b_id", "b", "id")
        onto, mapping = build_ontology(db)
        assert set(onto.concepts) == {"a", "b"}
        assert [r.name for r in onto.relations] == ["a b"]
        chain = mapping.fk_chain_of("a b", "a", "b")
        assert len(chain) == 2

    def test_payload_junction_stays_concept(self, shop_db):
        onto, _ = build_ontology(shop_db)
        item = onto.concept("order item")
        assert "qty" in {p.name for p in item.properties.values()}

    def test_fk_columns_not_properties(self, shop_db):
        onto, _ = build_ontology(shop_db)
        props = {p.name for p in onto.concept("order").properties.values()}
        assert "customer id" not in props
        assert "total" in props

    def test_schema_synonyms_propagate(self, shop_db):
        onto, _ = build_ontology(shop_db)
        prop = onto.concept("order").property("total")
        assert "amount" in prop.synonyms

    def test_mapping_resolves(self, shop_db):
        _, mapping = build_ontology(shop_db)
        assert mapping.table_of("customer") == "customers"
        assert mapping.column_of("order", "total") == ("orders", "total")

    def test_relation_name_from_fk_column(self, emp_db):
        onto, _ = build_ontology(emp_db)
        assert any(r.name == "dept" for r in onto.relations)


class TestReasoner:
    def test_connected(self, shop_ctx):
        reasoner = shop_ctx.reasoner
        assert reasoner.connected("customer", "product")

    def test_relation_path(self, shop_ctx):
        path = shop_ctx.reasoner.relation_path("customer", "product")
        assert [r.name for r in path] == ["customer", "order", "product"]

    def test_steiner_includes_intermediate(self, shop_ctx):
        nodes = shop_ctx.reasoner.steiner_concepts(["customer", "product"])
        assert "order" in nodes

    def test_fk_chain_through_junction(self, shop_ctx):
        chain = shop_ctx.reasoner.fk_chain("customer", "product")
        tables = [fk.src_table for fk in chain] + [chain[-1].dst_table]
        assert tables == ["customers", "orders", "order_items", "products"]

    def test_same_concept_no_path(self, shop_ctx):
        assert shop_ctx.reasoner.relation_path("customer", "customer") == []

    def test_disconnected_raises(self):
        onto = Ontology()
        onto.add_concept("a")
        onto.add_concept("b")
        with pytest.raises(OntologyError):
            Reasoner(onto).relation_path("a", "b")

    def test_reasoner_sees_relation_added_after_it(self):
        onto = Ontology()
        onto.add_concept("a")
        onto.add_concept("b")
        reasoner = Reasoner(onto)
        onto.add_relation("r", "a", "b")
        assert [r.name for r in reasoner.relation_path("a", "b")] == ["r"]

    def test_compiling_twice_builds_no_second_graph(self, shop_ctx, monkeypatch):
        query = OQLQuery(
            select=(OQLItem(ref=PropertyRef("customer", "name")),),
            conditions=(OQLCondition(PropertyRef("product", "pname"), "=", "pen"),),
        )
        first = compile_oql(query, shop_ctx.ontology, shop_ctx.mapping)
        builds = []
        add_nodes_from = nx.MultiGraph.add_nodes_from

        def counting(graph, nodes, **attr):
            builds.append(graph)
            return add_nodes_from(graph, nodes, **attr)

        monkeypatch.setattr(nx.MultiGraph, "add_nodes_from", counting)
        second = compile_oql(query, shop_ctx.ontology, shop_ctx.mapping)
        assert second.to_sql() == first.to_sql()
        assert "JOIN" in first.to_sql()
        assert builds == []


def two_component_db() -> Database:
    """authors – books – publishers, and separately stores – racks."""
    db = Database("two_components")
    for name, columns in [
        ("authors", [("name", DataType.TEXT)]),
        ("publishers", [("pname", DataType.TEXT)]),
        ("books", [("title", DataType.TEXT), ("author_id", DataType.INTEGER),
                   ("publisher_id", DataType.INTEGER)]),
        ("stores", [("city", DataType.TEXT)]),
        ("racks", [("label", DataType.TEXT), ("store_id", DataType.INTEGER)]),
    ]:
        db.create_table(
            TableSchema(
                name,
                [Column("id", DataType.INTEGER, primary_key=True)]
                + [Column(column, dtype) for column, dtype in columns],
            )
        )
    db.add_foreign_key("books", "author_id", "authors", "id")
    db.add_foreign_key("books", "publisher_id", "publishers", "id")
    db.add_foreign_key("racks", "store_id", "stores", "id")
    return db


class TestReasonerOnSeveralComponents:
    """A relation graph with more than one component: the Steiner tree is
    searched within the terminals' component, and concepts in different
    components raise ``OntologyError`` from every search."""

    @pytest.fixture(scope="class")
    def built(self):
        ontology, mapping = build_ontology(two_component_db())
        return ontology, mapping, Reasoner(ontology, mapping)

    def test_steiner_within_one_component(self, built):
        _, _, reasoner = built
        assert reasoner.steiner_concepts(["author", "book"]) == ["author", "book"]
        assert reasoner.steiner_concepts(["author", "publisher"]) == [
            "author", "book", "publisher",
        ]
        assert reasoner.steiner_concepts(["store", "rack"]) == ["rack", "store"]

    def test_join_within_one_component(self, built):
        _, _, reasoner = built
        joined = [concept for concept, _ in reasoner.join_concepts(["author", "publisher"])]
        assert joined == ["book", "publisher"]

    @pytest.mark.parametrize(
        "search", ["steiner_concepts", "join_concepts", "fk_chain", "relation_path"]
    )
    def test_across_components_raises(self, built, search):
        _, _, reasoner = built
        method = getattr(reasoner, search)
        with pytest.raises(OntologyError, match="not connected"):
            if search in ("steiner_concepts", "join_concepts"):
                method(["author", "store"])
            else:
                method("author", "store")

    def test_compile_across_components_raises(self, built):
        ontology, mapping, _ = built
        query = OQLQuery(
            select=(OQLItem(ref=PropertyRef("author", "name")),),
            conditions=(OQLCondition(PropertyRef("store", "city"), "=", "Oslo"),),
        )
        with pytest.raises(CompilationError, match="not connected"):
            compile_oql(query, ontology, mapping)

    def test_compile_within_one_component_joins(self, built):
        ontology, mapping, _ = built
        query = OQLQuery(
            select=(OQLItem(ref=PropertyRef("author", "name")),),
            conditions=(OQLCondition(PropertyRef("publisher", "pname"), "=", "Ace"),),
        )
        sql = compile_oql(query, ontology, mapping).to_sql()
        assert "JOIN books" in sql and "JOIN publishers" in sql


class TestKnowledgeBase:
    def test_canonicalize_alias(self):
        kb = build_medical_kb()
        assert kb.canonicalize("heart attack") == "myocardial infarction"

    def test_aliases_include_canonical(self):
        kb = build_medical_kb()
        assert "mi" in kb.aliases("myocardial infarction")

    def test_hierarchy(self):
        kb = build_medical_kb()
        assert kb.parent("asthma") == "respiratory disease"
        assert "pneumonia" in kb.children("respiratory disease")
        assert "pneumonia" in kb.siblings("asthma")

    def test_unknown_term(self):
        kb = build_medical_kb()
        assert kb.canonicalize("quantum flu") is None
        assert kb.aliases("quantum flu") == set()


class TestRelaxation:
    def test_canonical_first(self):
        relaxer = QueryRelaxer(build_medical_kb())
        proposals = relaxer.relax("heart attack")
        assert proposals[0].term == "myocardial infarction"
        assert proposals[0].source == "canonical"

    def test_best_match_exact_short_circuit(self):
        relaxer = QueryRelaxer(build_medical_kb())
        match = relaxer.best_match("asthma", ["asthma", "pneumonia"])
        assert match.source == "exact" and match.confidence == 1.0

    def test_best_match_through_kb(self):
        relaxer = QueryRelaxer(build_medical_kb())
        match = relaxer.best_match("high blood pressure", ["hypertension"])
        assert match.term == "hypertension"

    def test_best_match_none(self):
        relaxer = QueryRelaxer(build_medical_kb())
        assert relaxer.best_match("xyzzy", ["hypertension"]) is None

    def test_synonym_fallback_without_kb(self):
        relaxer = QueryRelaxer()
        terms = [p.term for p in relaxer.relax("salary")]
        assert "pay" in terms

    def test_expand_all_keeps_original_first(self):
        relaxer = QueryRelaxer(build_medical_kb())
        expansion = relaxer.expand_all("diabetes")
        assert expansion[0] == "diabetes"
        assert "diabetes mellitus" in expansion
