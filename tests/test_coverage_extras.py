"""Coverage extras: parser chunking details, FSM chains, harness output,
index caps, registry round-trips."""


from repro.bench.domains import build_domain, domain_names
from repro.bench.harness import ComparisonRow, compare_systems, print_table
from repro.bench.metrics import EvaluationSummary
from repro.bench.workloads import WorkloadGenerator
from repro.core import NLIDBContext, available, create
from repro.core.complexity import ComplexityTier
from repro.dialogue import DialogueAction, DialogueState, FiniteStateManager
from repro.nlp import parse
from repro.systems import SodaSystem


class TestParserChunks:
    def test_conjunction_attaches(self):
        tree = parse("customers in Berlin and Paris")
        conj = [n for n in tree.root.walk() if n.relation == "conj"]
        assert conj and conj[0].text == "Paris"

    def test_modifier_leaf_for_adverbs(self):
        tree = parse("list quickly the items")
        labels = {n.label for n in tree.root.walk()}
        assert "MOD" in labels or "NP" in labels

    def test_verb_becomes_vp(self):
        tree = parse("employees earn salaries")
        assert tree.verbs() and tree.verbs()[0].norm == "earn"

    def test_focus_none_for_empty(self):
        tree = parse("")
        assert tree.focus() is None

    def test_content_words_skip_determiners(self):
        tree = parse("the big orders")
        np = tree.noun_phrases()[0]
        assert "the" not in np.content_words


class TestFSMChains:
    def test_multi_hop_dialogue(self):
        fsm = FiniteStateManager(start="start")
        fsm.add_transition("start", "domain", ["sales"], DialogueAction("ask_slot", "metric"))
        fsm.add_transition("domain", "metric", ["revenue"], DialogueAction("ask_slot", "period"))
        fsm.add_transition("metric", "done", ["quarter"], DialogueAction("answer"))
        state = DialogueState()
        assert fsm.decide(state, "the sales data please").kind == "ask_slot"
        assert fsm.decide(state, "revenue").kind == "ask_slot"
        assert fsm.decide(state, "this quarter").kind == "answer"
        assert fsm.state_name == "done"

    def test_wrong_order_rejected(self):
        fsm = FiniteStateManager(start="start")
        fsm.add_transition("start", "domain", ["sales"], DialogueAction("ask_slot"))
        fsm.add_transition("domain", "metric", ["revenue"], DialogueAction("answer"))
        state = DialogueState()
        # jumping straight to the second step fails from 'start'
        assert fsm.decide(state, "revenue").kind == "reject"


class TestHarnessOutput:
    def test_print_table_returns_text(self, capsys):
        rows = [
            ComparisonRow("sys", "all", EvaluationSummary(total=2, answered=2, correct=1))
        ]
        text = print_table(rows, title="demo")
        out = capsys.readouterr().out
        assert "demo" in text and "sys" in out

    def test_compare_systems_includes_tier_rows(self):
        database = build_domain("hr")
        context = NLIDBContext(database)
        examples = WorkloadGenerator(database, seed=1).generate(
            ComplexityTier.SELECTION, 2
        ) + WorkloadGenerator(database, seed=2).generate(ComplexityTier.JOIN, 2)
        rows = compare_systems([SodaSystem()], context, examples)
        scopes = {r.scope for r in rows}
        assert "all" in scopes and "simple selection" in scopes


class TestRegistryCompleteness:
    def test_every_registered_system_instantiates(self):
        for name in available():
            system = create(name)
            assert hasattr(system, "interpret")

    def test_every_domain_builds_and_contextualizes(self):
        for name in domain_names():
            context = NLIDBContext(build_domain(name))
            assert context.ontology.concepts

    def test_registered_systems_answer_simple_question(self):
        context = NLIDBContext(build_domain("hr"))
        question = "employees with title engineer"
        for name in ("soda", "sqak", "nalir", "athena", "quick", "templar"):
            system = create(name)
            interps = system.interpret(question, context)
            assert interps, name
            sql = interps[0].to_sql(context.ontology, context.mapping).to_sql()
            assert "engineer" in sql, name


class TestValueIndexCap:
    def test_max_values_per_column_respected(self, monkeypatch):
        from repro.sqldb import Column, Database, DataType, TableSchema
        from repro.sqldb import index
        from repro.sqldb.index import ValueIndex

        monkeypatch.setattr(index, "MAX_VALUES_PER_COLUMN", 10)
        db = Database("cap")
        db.create_table(
            TableSchema("t", [Column("id", DataType.INTEGER), Column("v", DataType.TEXT)])
        )
        for i in range(50):
            db.insert("t", [i, f"value{i}"])
        capped = ValueIndex(db)
        assert capped.lookup("value5")
        assert not capped.lookup("value49")
