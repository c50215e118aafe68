"""Built-in thesaurus: synonym sets and a small IS-A taxonomy.

This stands in for WordNet in NaLIR's node-mapping step [30-32] and for
the domain vocabularies entity-based systems consume (§4.1).  Two
services are provided:

- synonym lookup (``synonyms("salary")`` → {"pay", "wage", ...}), and
- Wu–Palmer similarity [58] over the taxonomy, the same measure NaLIR
  uses to score mappings from parse-tree nodes to schema elements.

Domains can extend both at runtime — the ontology layer injects its own
vocabulary when a database declares synonyms.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.perf.cache import MISSING, LRUCache, stats_for

from .lemmatizer import lemmatize

# Synonym rings: every word in a ring is a synonym of every other.
_SYNONYM_RINGS: List[Set[str]] = [
    {"salary", "pay", "wage", "compensation", "earnings", "income"},
    {"employee", "worker", "staff", "personnel"},
    {"department", "division", "unit", "dept"},
    {"company", "firm", "corporation", "business", "employer"},
    {"customer", "client", "buyer", "shopper", "purchaser"},
    {"product", "item", "goods", "merchandise", "article"},
    {"order", "purchase", "transaction"},
    {"price", "cost", "amount", "value", "charge"},
    {"revenue", "sales", "turnover", "proceeds"},
    {"profit", "gain", "margin"},
    {"quantity", "count", "number", "amount"},
    {"city", "town", "municipality"},
    {"country", "nation", "state"},
    {"doctor", "physician", "clinician", "practitioner"},
    {"patient", "case"},
    {"disease", "illness", "condition", "disorder", "ailment"},
    {"drug", "medication", "medicine", "prescription", "pharmaceutical"},
    {"hospital", "clinic", "facility"},
    {"movie", "film", "picture", "feature"},
    {"director", "filmmaker"},
    {"actor", "performer", "star", "cast"},
    {"rating", "score", "grade"},
    {"year", "yr"},
    {"date", "day", "time"},
    {"name", "title", "label"},
    {"big", "large", "huge", "major"},
    {"small", "little", "minor", "tiny"},
    {"average", "mean", "typical"},
    {"total", "sum", "overall", "aggregate", "combined"},
    {"maximum", "max", "largest", "highest", "greatest", "biggest", "most"},
    {"minimum", "min", "smallest", "lowest", "least", "fewest"},
    {"show", "display", "list", "give", "find", "get", "return"},
    {"make", "manufacture", "produce", "build"},
    {"buy", "purchase", "acquire"},
    {"branch", "office", "location", "outlet", "store", "shop"},
    {"manager", "supervisor", "boss", "head", "lead"},
    {"teacher", "instructor", "professor", "lecturer"},
    {"student", "pupil", "learner"},
    {"grade", "mark", "score"},
    {"author", "writer"},
    {"song", "track", "tune"},
    {"genre", "category", "type", "kind", "class"},
    {"age", "years"},
    {"live", "reside", "stay", "dwell"},
    {"work", "serve"},
    {"earn", "make", "receive", "get"},
]

# IS-A edges (child -> parent) forming a small concept taxonomy.
_HYPERNYMS: Dict[str, str] = {
    "employee": "person",
    "manager": "employee",
    "customer": "person",
    "doctor": "person",
    "patient": "person",
    "teacher": "person",
    "student": "person",
    "actor": "person",
    "director": "person",
    "author": "person",
    "person": "entity",
    "company": "organization",
    "department": "organization",
    "hospital": "organization",
    "branch": "organization",
    "school": "organization",
    "organization": "entity",
    "product": "artifact",
    "drug": "artifact",
    "movie": "artifact",
    "song": "artifact",
    "book": "artifact",
    "artifact": "entity",
    "order": "event",
    "transaction": "event",
    "visit": "event",
    "admission": "event",
    "event": "entity",
    "salary": "money",
    "price": "money",
    "revenue": "money",
    "profit": "money",
    "budget": "money",
    "money": "quantity",
    "quantity": "attribute",
    "rating": "attribute",
    "age": "attribute",
    "attribute": "entity",
    "city": "place",
    "country": "place",
    "region": "place",
    "place": "entity",
    "disease": "condition",
    "condition": "state",
    "state": "entity",
}

_ROOT = "entity"


class Thesaurus:
    """Synonym + taxonomy service with runtime extension.

    Synonymy is *one-hop*: two words are synonyms when they share at
    least one declared ring, not when a chain of rings connects them.
    Transitive merging would let domain-schema synonyms (``amount`` ↔
    ``sum``) collapse unrelated rings (``sum`` ↔ ``total``) into one
    giant equivalence class — precisely the over-generalization the
    survey warns domain vocabularies against.
    """

    def __init__(self):
        self._rings: List[Set[str]] = []
        self._syn_index: Dict[str, List[int]] = {}
        for ring in _SYNONYM_RINGS:
            self._add_ring(set(ring))
        self._hypernyms: Dict[str, str] = dict(_HYPERNYMS)
        self._init_memos()

    def _init_memos(self) -> None:
        # Similarity lookups are the matcher's inner loop (thousands of
        # (question word, schema term) pairs per query); both memos are
        # pure functions of the thesaurus contents, so any mutation
        # clears them.  Stats aggregate process-wide under one name.
        stats = stats_for("nlp.thesaurus")
        self._syn_memo = LRUCache(maxsize=16384, stats=stats)
        self._wup_memo = LRUCache(maxsize=16384, stats=stats)
        self._ring_lemmas: Optional[List[Set[str]]] = None

    def _invalidate_memos(self) -> None:
        self._syn_memo.clear()
        self._wup_memo.clear()
        self._ring_lemmas = None

    def copy(self) -> "Thesaurus":
        """An independent clone; mutating it never touches the original.

        Used copy-on-write by ``NLIDBContext`` so schema-declared
        synonyms stay private to the context that registered them.
        """
        clone = Thesaurus.__new__(Thesaurus)
        clone._rings = [set(ring) for ring in self._rings]
        clone._syn_index = {w: list(ids) for w, ids in self._syn_index.items()}
        clone._hypernyms = dict(self._hypernyms)
        clone._init_memos()
        return clone

    def _add_ring(self, ring: Set[str]) -> None:
        ring = {w.lower() for w in ring}
        index = len(self._rings)
        self._rings.append(ring)
        for word in ring:
            self._syn_index.setdefault(word, []).append(index)

    def add_synonyms(self, words: Iterable[str]) -> None:
        """Declare all ``words`` mutual synonyms (a new ring; existing
        rings are left untouched — synonymy stays one-hop)."""
        self._add_ring(set(words))
        self._invalidate_memos()

    def add_hypernym(self, child: str, parent: str) -> None:
        """Add an IS-A edge ``child -> parent`` to the taxonomy."""
        self._hypernyms[child.lower()] = parent.lower()
        self._invalidate_memos()

    def synonyms(self, word: str) -> Set[str]:
        """All synonyms of ``word`` (including itself), lemma-aware."""
        w = word.lower()
        ring_ids = self._syn_index.get(w)
        if ring_ids is None:
            ring_ids = self._syn_index.get(lemmatize(w), [])
        out = {w}
        for ring_id in ring_ids:
            out |= self._rings[ring_id]
        return out

    def are_synonyms(self, a: str, b: str) -> bool:
        """Whether two words share a synonym ring (or a lemma)."""
        key = (a, b)
        cached = self._syn_memo.get(key, MISSING)
        if cached is not MISSING:
            return cached
        verdict = self._are_synonyms_impl(a, b)
        self._syn_memo.put(key, verdict)
        return verdict

    def _are_synonyms_impl(self, a: str, b: str) -> bool:
        a_l, b_l = a.lower(), b.lower()
        if a_l == b_l or lemmatize(a_l) == lemmatize(b_l):
            return True
        return lemmatize(b_l) in {lemmatize(s) for s in self.synonyms(a_l)}

    # -- index-side expansion -------------------------------------------------

    def _ring_lemma_sets(self) -> List[Set[str]]:
        """Lemma sets of every ring, cached until the next mutation."""
        cached = self._ring_lemmas
        if cached is None or len(cached) != len(self._rings):
            cached = [{lemmatize(w) for w in ring} for ring in self._rings]
            self._ring_lemmas = cached
        return cached

    def ring_mates(self, term: str) -> Set[str]:
        """Every word whose synonym lookup can reach ``term``.

        Inverted-index construction helper (see
        :mod:`repro.core.schema_index`): ``are_synonyms(q, term)`` holds
        only when ``q`` (or its lemma) is a member of a ring whose lemma
        set contains ``lemmatize(term)``.  The raw members of those
        rings, plus the lemma itself, are therefore a complete key set
        for the synonym channel — any question word that can score 0.95
        against ``term`` maps onto one of these keys.
        """
        lemma = lemmatize(term.lower())
        out: Set[str] = {lemma}
        for ring, lemmas in zip(self._rings, self._ring_lemma_sets()):
            if lemma in lemmas:
                out |= ring
        return out

    def taxonomy_mates(self, term: str, min_wup: float) -> Set[str]:
        """Every word whose Wu–Palmer similarity with ``term`` can reach
        ``min_wup`` through the taxonomy channel.

        A question word only gets a nonzero wup score when its canonical
        form sits in the taxonomy (otherwise both ancestry chains meet at
        the root and the depth guard zeroes the score) or trivially
        equals ``term``'s canonical form.  Enumerating the taxonomy's
        nodes with ``wup >= min_wup`` against ``term`` and expanding each
        qualifying node through the synonym rings that canonicalize to it
        yields a complete, conservative key set.
        """
        ct = self._canonical(term)
        nodes = set(self._hypernyms) | set(self._hypernyms.values()) | {_ROOT}
        nodes.add(ct)
        lemma_sets = self._ring_lemma_sets()
        out: Set[str] = set()
        for node in nodes:
            if self._wup_canonical(node, ct) < min_wup:
                continue
            out.add(node)
            for ring, lemmas in zip(self._rings, lemma_sets):
                if node in lemmas:
                    out |= ring
        return out

    # -- taxonomy -----------------------------------------------------------

    def _ancestry(self, word: str) -> List[str]:
        chain = [word]
        seen = {word}
        current = word
        while current in self._hypernyms:
            current = self._hypernyms[current]
            if current in seen:  # defensive: no cycles
                break
            seen.add(current)
            chain.append(current)
        if chain[-1] != _ROOT:
            chain.append(_ROOT)
        return chain

    def _canonical(self, word: str) -> str:
        w = lemmatize(word.lower())
        if w in self._hypernyms or w == _ROOT:
            return w
        # sorted: a word in two rings must not take its canonical node
        # from whichever ring the set's hash order meets first
        for syn in sorted(self.synonyms(w)):
            s = lemmatize(syn)
            if s in self._hypernyms:
                return s
        return w

    def wup_similarity(self, a: str, b: str) -> float:
        """Wu–Palmer similarity in (0, 1]; 1.0 for synonyms.

        ``wup = 2 * depth(lcs) / (depth(a) + depth(b))`` with depth
        counted from the taxonomy root.  Words outside the taxonomy get
        0.0 unless they are synonyms.
        """
        key = (a, b)
        cached = self._wup_memo.get(key, MISSING)
        if cached is not MISSING:
            return cached
        score = self._wup_impl(a, b)
        self._wup_memo.put(key, score)
        return score

    def _wup_impl(self, a: str, b: str) -> float:
        if self.are_synonyms(a, b):
            return 1.0
        return self._wup_canonical(self._canonical(a), self._canonical(b))

    def _wup_canonical(self, ca: str, cb: str) -> float:
        """Wu–Palmer over two already-canonicalized taxonomy terms.

        Shared by :meth:`wup_similarity` and the schema index's
        taxonomy-mates enumeration, so the index's notion of "reachable
        through the taxonomy" is the scoring math itself, not a copy.
        """
        if ca == cb:
            return 1.0
        chain_a = self._ancestry(ca)
        chain_b = self._ancestry(cb)
        if len(chain_a) == 1 and chain_a[0] == _ROOT and ca != _ROOT:
            return 0.0
        set_b = {node: i for i, node in enumerate(chain_b)}
        for i, node in enumerate(chain_a):
            if node in set_b:
                # depth counted from the root (root depth = 1)
                d_lcs = len(chain_a) - i
                d_a = len(chain_a)
                d_b = len(chain_b)
                # only count if either side actually sits in the taxonomy
                if d_lcs <= 1 and (ca not in self._hypernyms or cb not in self._hypernyms):
                    return 0.0
                return 2.0 * d_lcs / (d_a + d_b)
        return 0.0


# Module-level default instance used across the library.
DEFAULT_THESAURUS = Thesaurus()


def synonyms(word: str) -> Set[str]:
    """Synonyms of ``word`` from the default thesaurus."""
    return DEFAULT_THESAURUS.synonyms(word)


def are_synonyms(a: str, b: str) -> bool:
    """Synonym test on the default thesaurus."""
    return DEFAULT_THESAURUS.are_synonyms(a, b)


def wup_similarity(a: str, b: str) -> float:
    """Wu–Palmer similarity on the default thesaurus."""
    return DEFAULT_THESAURUS.wup_similarity(a, b)
