"""Unit tests for lemmatizer, POS tagger, parser, similarity, thesaurus."""

import os
import subprocess
import sys

import pytest

import repro
from repro.nlp import (
    Thesaurus,
    are_synonyms,
    edit_similarity,
    jaccard,
    lemmatize,
    levenshtein,
    parse,
    phrase_similarity,
    string_similarity,
    synonyms,
    tag_text,
    term_similarity,
    trigram_similarity,
    wup_similarity,
)


class TestLemmatizer:
    @pytest.mark.parametrize(
        "word,lemma",
        [
            ("employees", "employee"),
            ("salaries", "salary"),
            ("branches", "branch"),
            ("cities", "city"),
            ("boxes", "box"),
            ("earning", "earn"),
            ("running", "run"),
            ("making", "make"),
            ("earned", "earn"),
            ("planned", "plan"),
            ("people", "person"),
            ("was", "be"),
            ("has", "have"),
            ("status", "status"),
            ("business", "business"),
            ("cat", "cat"),
        ],
    )
    def test_lemmas(self, word, lemma):
        assert lemmatize(word) == lemma

    def test_short_words_unchanged(self):
        assert lemmatize("as") == "as"


class TestPOS:
    def test_wh_question(self):
        tokens = tag_text("what is the salary")
        assert tokens[0].pos == "WP"

    def test_how_tagged_wrb(self):
        assert tag_text("how many orders")[0].pos == "WRB"

    def test_numbers_cd(self):
        tokens = tag_text("more than 50 items")
        assert any(t.pos == "CD" for t in tokens)

    def test_superlative(self):
        tokens = tag_text("highest salary")
        assert tokens[0].pos == "JJS"

    def test_determiner_noun_repair(self):
        tokens = tag_text("show the order")
        assert tokens[-1].pos == "NN"

    def test_quoted_proper_noun(self):
        tokens = tag_text('customers from "new york"')
        assert tokens[-1].pos == "NNP"


class TestParser:
    def test_focus_after_wh(self):
        tree = parse("what is the average salary of employees")
        assert "salary" in tree.focus().text

    def test_imperative_focus(self):
        tree = parse("show the customers from Berlin")
        assert "customers" in tree.focus().text

    def test_attachments_chain(self):
        tree = parse("salary of employees in the sales department")
        triples = [(p, d.head.norm) for _, p, d in tree.attachments()]
        assert ("of", "employees") in triples
        assert ("in", "department") in triples

    def test_noun_phrases_in_order(self):
        tree = parse("customers with orders over 100")
        nps = [np.head.norm for np in tree.noun_phrases() if np.head]
        assert nps[0] == "customers"

    def test_walk_yields_all(self):
        tree = parse("what are the names of products")
        labels = [n.label for n in tree.root.walk()]
        assert "WH" in labels and "NP" in labels

    def test_pretty_renders(self):
        assert "ROOT" in parse("show items").pretty()


class TestStringSimilarity:
    def test_levenshtein_basics(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("", "abc") == 3
        assert levenshtein("same", "same") == 0

    def test_edit_similarity_bounds(self):
        assert edit_similarity("a", "a") == 1.0
        assert 0 <= edit_similarity("abc", "xyz") <= 1

    def test_trigram_similarity(self):
        assert trigram_similarity("salary", "salary") == 1.0
        assert trigram_similarity("salary", "salaries") > 0.4

    def test_jaccard(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
        assert jaccard([], []) == 1.0

    def test_string_similarity_exact_tops(self):
        assert string_similarity("Name", "name") == 1.0
        assert string_similarity("employe", "employee") > 0.7
        assert string_similarity("salary", "zebra") < 0.5

    def test_typo_still_close(self):
        # transposition typo stays well above unrelated-word scores
        assert string_similarity("depratment", "department") > 0.55
        assert string_similarity("depratment", "department") > string_similarity(
            "depratment", "salary"
        )


#: prints the canonical taxonomy node of "location" on the retail
#: context, and the similarity that node decides
_HASH_SEED_PROBE = """
from repro.bench.domains import build_domain
from repro.core.pipeline import NLIDBContext
from repro.nlp import term_similarity

context = NLIDBContext(build_domain("retail", seed=0))
thesaurus = context.thesaurus
print(thesaurus._canonical("location"), term_similarity("stores", "location", thesaurus))
"""


class TestThesaurus:
    def test_synonyms_ring(self):
        assert "pay" in synonyms("salary")
        assert are_synonyms("doctor", "physician")

    def test_lemma_aware(self):
        assert are_synonyms("salaries", "pay")

    def test_wup_synonym_is_one(self):
        assert wup_similarity("salary", "pay") == 1.0

    def test_wup_taxonomy_relatives(self):
        sim = wup_similarity("doctor", "patient")  # siblings under person
        assert 0.5 < sim < 1.0

    def test_wup_unrelated_low(self):
        assert wup_similarity("doctor", "price") < 0.5

    def test_unknown_words_zero(self):
        assert wup_similarity("flibber", "jabber") == 0.0

    def test_runtime_extension(self):
        th = Thesaurus()
        th.add_synonyms(["sku", "product code"])
        assert th.are_synonyms("sku", "product code")

    def test_rings_stay_one_hop(self):
        th = Thesaurus()
        th.add_synonyms(["salary", "remuneration"])
        # remuneration~salary holds, but it does NOT transitively become
        # a synonym of every other member of salary's original ring
        assert th.are_synonyms("remuneration", "salary")
        assert not th.are_synonyms("remuneration", "pay")

    def test_no_transitive_megaring(self):
        th = Thesaurus()
        th.add_synonyms(["amount", "sum"])  # schema-declared synonym
        # built-in: total~sum; new: sum~amount; but NOT total~amount
        assert th.are_synonyms("sum", "amount")
        assert th.are_synonyms("total", "sum")
        assert not th.are_synonyms("total", "amount")

    def test_canonical_node_does_not_depend_on_hash_seed(self):
        # "location" is in the retail schema's {city, location, town} ring
        # and in the built-in {branch, ..., store} ring, whose taxonomy
        # nodes differ: set iteration order must not pick between them
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outputs = [
            subprocess.run(
                [sys.executable, "-c", _HASH_SEED_PROBE],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("0", "2")
        ]
        assert outputs[0] == outputs[1]


class TestTermSimilarity:
    def test_exact_and_lemma(self):
        assert term_similarity("employees", "employee") == 1.0

    def test_synonym_plateau(self):
        assert term_similarity("pay", "salary") == 0.95

    def test_synonym_beats_fuzzy(self):
        assert term_similarity("pay", "salary") > term_similarity("salry", "salary")

    def test_phrase_similarity_full_cover(self):
        assert phrase_similarity(["order", "date"], "order_date") == 1.0

    def test_phrase_similarity_partial(self):
        full = phrase_similarity(["order", "date"], "order_date")
        partial = phrase_similarity(["date"], "order_date")
        assert partial < full
